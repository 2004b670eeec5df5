//! Tests of the benchmark's own arithmetic and input generation.

use std::time::Instant;
use vax_cpu::ExecTier;
use vaxd::payload::PAYLOAD_GPA;
use vmbench::calib::{probe, speed_factor, REFERENCE_S};
use vmbench::gen::{
    jittered, payload_bytes, payload_source, payload_specs, request_stream, PayloadSpec,
    JITTER_PERMILLE, MAX_DIRTY_PAGES, MAX_SPIN,
};
use vmbench::guest::run_bare;
use vmbench::reconcile::{overhead, vmm_share, wait_us, wire_us};
use vmbench::report::{Report, END_TO_END, PER_LAYER};
use vmbench::stats::{median, percentile, samples_beyond};
use vmbench::trace::{self_time_by_layer, self_times_ns, Span, Tracer};
use vmbench::Args;

#[test]
fn percentile_interpolates_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 1.0), Some(4.0));
    assert_eq!(median(&v), Some(2.5));
    assert_eq!(percentile(&v, 0.25), Some(1.75));
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let p99 = percentile(&hundred, 0.99).unwrap();
    assert!((p99 - 99.01).abs() < 1e-9, "{p99}");
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(median(&[7.0]), Some(7.0));
}

#[test]
fn p99_of_a_thousand_samples_has_ten_beyond_it() {
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(100, 0.99), 1);
    assert_eq!(samples_beyond(5, 0.5), 2);
    assert_eq!(samples_beyond(0, 0.99), 0);
}

#[test]
fn payload_generator_is_deterministic_per_seed() {
    assert_eq!(payload_specs(42, 128), payload_specs(42, 128));
    assert_ne!(payload_specs(42, 128), payload_specs(43, 128));
    let a: Vec<usize> = request_stream(42, 1, 128).take(500).collect();
    let b: Vec<usize> = request_stream(42, 1, 128).take(500).collect();
    assert_eq!(a, b);
    assert_ne!(a, request_stream(42, 0, 128).take(500).collect::<Vec<_>>());
    assert!(a.iter().all(|&i| i < 128));
}

#[test]
fn payload_pool_covers_zero_and_maximum_dirtied_pages() {
    for seed in [0, 1, 7, 1234, u64::MAX] {
        let specs = payload_specs(seed, 128);
        assert_eq!(specs.len(), 128);
        let zero = specs.iter().filter(|s| s.pages == 0).count();
        let max = specs.iter().filter(|s| s.pages == MAX_DIRTY_PAGES).count();
        assert_eq!((zero, max), (32, 32), "seed {seed}");
        assert!(specs
            .iter()
            .all(|s| s.spin <= MAX_SPIN && s.pages <= MAX_DIRTY_PAGES));
        // Stratified spins: the pool spans the whole range with a mean
        // that barely moves between seeds.
        assert!(specs.iter().any(|s| s.spin < MAX_SPIN / 64));
        assert!(specs.iter().any(|s| s.spin > MAX_SPIN - MAX_SPIN / 64));
        let mean = specs.iter().map(|s| f64::from(s.spin)).sum::<f64>() / 128.0;
        assert!(
            (mean - f64::from(MAX_SPIN) / 2.0).abs() < 20.0,
            "seed {seed}: {mean}"
        );
    }
}

#[test]
fn iteration_jitter_stays_in_its_band() {
    let base = 100_000u32;
    let band = u64::from(base) * u64::from(JITTER_PERMILLE) / 1000;
    let values: Vec<u32> = (0..200).map(|seed| jittered(base, seed, 7)).collect();
    for v in &values {
        assert!(u64::from(v.abs_diff(base)) <= band, "{v}");
    }
    assert!(
        values.iter().any(|&v| v != values[0]),
        "the seed moves the count"
    );
    assert_eq!(jittered(base, 5, 7), jittered(base, 5, 7));
}

#[test]
fn payloads_run_to_their_tag_on_the_bare_core() {
    for spec in [
        PayloadSpec { spin: 0, pages: 0 },
        PayloadSpec {
            spin: MAX_SPIN,
            pages: MAX_DIRTY_PAGES,
        },
        PayloadSpec { spin: 17, pages: 1 },
    ] {
        let src = payload_source(spec, "ok");
        assert_eq!(src.contains("spin_l"), spec.spin > 0);
        assert_eq!(src.contains("dirty_l"), spec.pages > 0);
        let bytes = payload_bytes(spec, "ok").expect("assembles");
        let (out, _) = run_bare(
            &[(PAYLOAD_GPA, bytes)],
            PAYLOAD_GPA,
            0,
            ExecTier::Interp,
            10_000_000,
        );
        assert!(out.completed, "{spec:?}");
        assert_eq!(out.console, b"ok");
    }
}

#[test]
fn reconciliation_remainders() {
    assert_eq!(wire_us(1274.0, 479.0), 795.0);
    assert_eq!(wait_us(2026.0, 1274.0), 752.0);
    // 10M instructions at 10 Minstr/s bare take 1 s; in 2 s under the
    // monitor, half the time is unexplained by guest execution.
    assert_eq!(vmm_share(10_000_000, 10.0, 2.0), Some(0.5));
    assert_eq!(vmm_share(10_000_000, 10.0, 1.0), Some(0.0));
    assert_eq!(vmm_share(1, 0.0, 1.0), None);
    assert_eq!(overhead(1.1, 1.0).0, 1.1 - 1.0);
    assert!((overhead(1.1, 1.0).1 - 0.1).abs() < 1e-12);
    assert_eq!(overhead(1.0, 0.0), (1.0, 0.0));
}

#[test]
fn calibration_scales_times_to_the_reference_speed() {
    assert_eq!(speed_factor(REFERENCE_S), 1.0);
    // A probe that took twice its reference time means the host ran at
    // half speed: times measured then count half.
    assert_eq!(speed_factor(2.0 * REFERENCE_S), 0.5);
    let secs = probe();
    assert!(secs > 0.0 && secs < 1.0, "{secs}");
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        req: 0,
        tid: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span("vaxd.request", 0, 100, None),
        span("core.run", 10, 30, Some(0)),
        span("mem.fork", 20, 50, Some(0)),
        span("mem.reap", 60, 70, Some(0)),
        span("core.inner", 12, 14, Some(1)),
    ];
    assert_eq!(self_times_ns(&spans), vec![50, 18, 30, 10, 2]);
    let by_layer = self_time_by_layer(&spans);
    assert!((by_layer["vaxd"] - 50e-9).abs() < 1e-15);
    assert!((by_layer["core"] - 20e-9).abs() < 1e-15);
    assert!((by_layer["mem"] - 40e-9).abs() < 1e-15);
}

#[test]
fn tracer_nests_spans_and_disabled_tracer_records_none() {
    let mut t = Tracer::new(Instant::now(), true, 3);
    let (v, outer_s) = t.span("vaxd.outer", 9, |t| t.span("core.inner", 9, |_| 5).0);
    assert_eq!(v, 5);
    assert!(outer_s >= 0.0);
    assert_eq!(t.spans().len(), 2);
    assert_eq!(t.spans()[1].parent, Some(0));
    assert_eq!(t.spans()[0].layer(), "vaxd");
    let mut off = Tracer::new(Instant::now(), false, 0);
    let ((), _) = off.span("vaxd.outer", 0, |_| ());
    assert!(off.spans().is_empty());
}

#[test]
fn result_line_demands_every_listed_metric() {
    let mut r = Report::default();
    for (name, _) in END_TO_END {
        r.set(name, 1.5);
    }
    r.check(true, String::new);
    let line = r.result_line(END_TO_END).expect("complete");
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    assert!(
        r.result_line(PER_LAYER).is_err(),
        "per-layer metrics are missing"
    );
    r.set("setup_s", f64::NAN);
    assert!(r.result_line(END_TO_END).is_err());
}

#[test]
fn benchmark_json_names_every_metric_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
    }
    let listed = json.matches("\"unit\":").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    for w in vmbench::WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
}

#[test]
fn args_parse_the_benchmark_command_line() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = Args::parse(argv(
        "--workload serve_fork --seed 9 --seconds 12 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        a,
        Args {
            workload: "serve_fork".into(),
            seed: 9,
            seconds: 12,
            trace: true
        }
    );
    assert!(Args::parse(argv("--workload nope")).is_err());
    assert!(Args::parse(argv("--workload vm_edittrans --trace 2")).is_err());
    assert!(Args::parse(argv("--workload vm_edittrans --seconds 0")).is_err());
    assert!(Args::parse(argv("--seed 1")).is_err());
    assert!(Args::parse(argv("--workload vm_edittrans --seed")).is_err());
}
