//! Reconciliation: how much of an end-to-end time the measured layers
//! explain. Each function returns the unexplained remainder.

/// Wire-path remainder: TCP p50 latency at one connection minus the p50
/// of the in-process stage sum (parse, admit, fork, run, reap, reply
/// rendering) for the same request lines. What is left is socket,
/// framing and thread hand-off cost.
pub fn wire_us(tcp_p50_c1_us: f64, stage_sum_p50_us: f64) -> f64 {
    tcp_p50_c1_us - stage_sum_p50_us
}

/// Contention remainder: TCP p50 at `n` connections minus TCP p50 at one
/// connection — the time a request waits for shared resources (the
/// daemon's base lock during fork, the host's cores).
pub fn wait_us(tcp_p50_cn_us: f64, tcp_p50_c1_us: f64) -> f64 {
    tcp_p50_cn_us - tcp_p50_c1_us
}

/// Share of in-VM host time not explained by running the same number
/// of guest instructions on the bare core: `1 − (instrs / bare rate) /
/// run seconds`, with the bare rate in millions of instructions per
/// second. `None` when either rate or time is not positive.
pub fn vmm_share(guest_instrs: u64, bare_mips: f64, run_s: f64) -> Option<f64> {
    (bare_mips > 0.0 && run_s > 0.0)
        .then(|| 1.0 - (guest_instrs as f64 / (bare_mips * 1e6)) / run_s)
}

/// Tracing overhead: traced minus untraced time, absolute and as a share
/// of the untraced time.
pub fn overhead(traced: f64, untraced: f64) -> (f64, f64) {
    let abs = traced - untraced;
    let share = if untraced != 0.0 { abs / untraced } else { 0.0 };
    (abs, share)
}
