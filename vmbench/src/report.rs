//! The benchmark's result: metrics by name and unit, failure counts,
//! provenance, and the JSON lines they print as.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("guest_mips", "Minstr/s"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cpu.bare_mips.interp", "Minstr/s"),
    ("cpu.bare_mips.cache", "Minstr/s"),
    ("cpu.bare_mips.trans", "Minstr/s"),
    ("core.vm_mips.interp", "Minstr/s"),
    ("core.vm_mips.cache", "Minstr/s"),
    ("core.vm_mips.trans", "Minstr/s"),
    ("cpu.trans_uop_share", "ratio"),
    ("cpu.decode_cache_hit_ratio", "ratio"),
    ("cpu.tlb_hit_ratio", "ratio"),
    ("core.run_s", "s"),
    ("core.vmm_share", "ratio"),
    ("core.exits_per_kinstr", "1/kinstr"),
    ("core.emulation_traps", "count"),
    ("core.shadow_fills", "count"),
    ("core.shadow_cache_hit_ratio", "ratio"),
    ("core.modify_faults", "count"),
    ("core.world_switches", "count"),
    ("core.sim_vm_bare_ratio", "ratio"),
    ("vaxd.proto_us", "us"),
    ("vaxd.admit_us", "us"),
    ("vaxd.fork_child_us", "us"),
    ("mem.fork_mem_us", "us"),
    ("snap.rebuild_us", "us"),
    ("core.run_payload_us", "us"),
    ("mem.reap_us", "us"),
    ("mem.child_resident_pages", "pages"),
    ("mem.shared_fraction", "ratio"),
    ("vaxd.stage_sum_us", "us"),
    ("vaxd.server.c1_p50_us", "us"),
    ("vaxd.server.cn_p50_us", "us"),
    ("vaxd.server.cn_p99_us", "us"),
    ("vaxd.server.wire_us", "us"),
    ("vaxd.server.wait_us", "us"),
    ("vaxd.rejects", "count"),
    ("vaxd.rejects.bad-request", "count"),
    ("vaxd.rejects.payload-too-large", "count"),
    ("vaxd.rejects.payload-out-of-range", "count"),
    ("vaxd.rejects.unknown-base", "count"),
    ("vaxd.rejects.tenant-concurrency", "count"),
    ("vaxd.rejects.tenant-frames", "count"),
    ("vaxd.rejects.global-capacity", "count"),
    ("vaxd.rejects.queue-full", "count"),
    ("vaxd.rejects.draining", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (guest runs, served requests, checks).
    pub attempted: u64,
    /// Operations whose output did not match its reference, refused
    /// requests, and leaked children.
    pub failed: u64,
    /// Why each failure was counted (first few only).
    pub failures: Vec<String>,
    /// Provenance and context as `(key, raw JSON value)`.
    pub info: Vec<(String, String)>,
}

impl Report {
    /// Records metric `name` (which must be in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Counts one checked operation; a mismatch is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Adds an info field whose value is already JSON.
    pub fn info_raw(&mut self, key: &str, json: String) {
        self.info.push((key.to_string(), json));
    }

    /// Adds a string info field.
    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info_raw(key, json_string(value));
    }

    /// The result line for the `expected` metric list: every metric in
    /// it must have been recorded with a finite value.
    ///
    /// # Errors
    ///
    /// Names the first missing, unknown, or non-finite metric.
    pub fn result_line(&self, expected: &[(&str, &str)]) -> Result<String, String> {
        for (name, value) in &self.metrics {
            let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name);
            if !known {
                return Err(format!("metric {name} is not in BENCHMARK.json"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in expected.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// The info line: provenance, sample counts, checks and failures.
    pub fn info_line(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.info.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", json_string(k));
        }
        let failures: Vec<String> = self.failures.iter().map(|f| json_string(f)).collect();
        let _ = write!(
            out,
            "{}\"fail_ratio\": {:?}, \"failures\": [{}]}}",
            if self.info.is_empty() { "" } else { ", " },
            self.failed as f64 / self.attempted.max(1) as f64,
            failures.join(", ")
        );
        out
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
