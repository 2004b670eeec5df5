//! Host-speed calibration for `vm_edittrans` timings and for both
//! workloads' set-up.
//!
//! On a shared host the same guest job takes from about 1x to 1.8x its
//! fastest time as the neighbours' load comes and goes, in phases of a
//! few seconds, so the median of one run depends on how much of that
//! run fell in slow phases. A fixed loop of the benchmark's own code,
//! the probe, runs just before each job or set-up and measures how fast
//! the host is at that moment; the times that follow are then scaled to
//! the reference host speed. The probe is not the program's code, so a
//! change to the program moves the scaled times as much as the raw ones.
//!
//! `serve_fork`'s load timings stay raw: its requests mostly fork, reap
//! and wait on sockets, and over two sets of ten unscaled runs the
//! distance between their quartiles stayed within 0.16 of their median.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time on an uncontended core of the reference host (a
/// 2-core Intel Xeon at 2.1 GHz): its fastest run in each of six
/// 60-second benchmark runs there read 2.744-2.751 ms.
pub const REFERENCE_S: f64 = 2.75e-3;

/// Table the probe walks: 64 KiB, so it stays in the first-level cache.
const TABLE_WORDS: usize = 1 << 14;
/// Steps per probe.
const STEPS: u32 = 600_000;

/// Runs the probe, a fixed xorshift-driven walk over a small table with
/// a data-dependent branch at every step, and returns its seconds.
pub fn probe() -> f64 {
    let started = Instant::now();
    let mut table = vec![0u32; TABLE_WORDS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u32;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize ^ acc as usize) & (TABLE_WORDS - 1);
        let v = table[k];
        acc = if v & 1 == 0 {
            acc.wrapping_add(v ^ i)
        } else {
            acc.rotate_left(5) ^ i
        };
        table[(k + 1) & (TABLE_WORDS - 1)] = acc;
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// The factor that scales a time measured while the probe took
/// `probe_s` to the reference host speed.
pub fn speed_factor(probe_s: f64) -> f64 {
    REFERENCE_S / probe_s
}
