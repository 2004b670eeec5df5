//! The `vm_edittrans` workload: a MiniVMS guest running the paper's
//! §7.3 editing+transaction mix, booted into a fresh monitor and run to
//! its orderly halt, once per rep. A rep is the unit of work a batch
//! user of the VMM waits for, so the request metrics of this workload
//! are per-rep times, scaled to the reference host speed by the probe
//! run before each rep (see [`crate::calib`]).

use crate::calib;
use crate::gen::jittered;
use crate::guest::{ratio, run_bare, VmCounts, VmOutcome};
use crate::report::Report;
use crate::stats::{median, percentile, samples_beyond};
use crate::trace::Tracer;
use crate::{reconcile, Args};
use std::time::{Duration, Instant};
use vax_cpu::ExecTier;
use vax_os::{boot_in_monitor, build_image, GuestImage, OsConfig, Workload};
use vax_vmm::{Monitor, MonitorConfig, RunExit, ShadowConfig, VmConfig, VmId};

/// Cycle budget no rep comes near; a guest that has not halted by then
/// is a failure.
const RUN_BUDGET: u64 = 64_000_000_000;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: u64 = 45;
/// Fewest timed reps per run, however long each takes.
const MIN_REPS: usize = 5;
/// Interleaved rounds of per-tier runs in a traced run.
const TIER_ROUNDS: usize = 3;
/// Rep ids of the untimed reference and per-tier runs (spans only).
const REFERENCE_REP: u64 = 1_000_000;

/// The guest configuration for `seed`.
fn spec(seed: u64) -> (OsConfig, VmConfig) {
    // The paper's §7.3 mix with the §7.2 shadow-table cache: exits,
    // shadow fills, modify faults and virtual disk I/O are dense.
    let os = OsConfig {
        nproc: 6,
        workload: Workload::EditTrans,
        iterations: jittered(ITERATIONS, seed, 8),
        ..OsConfig::default()
    };
    let vm = VmConfig {
        shadow: ShadowConfig {
            cache_slots: 8,
            ..ShadowConfig::default()
        },
        ..VmConfig::default()
    };
    (os, vm)
}

/// Per-process iterations before the seed jitter of
/// ±[`JITTER_PERMILLE`](crate::gen::JITTER_PERMILLE) per mille.
const ITERATIONS: u32 = 1_000;

fn boot(image: &GuestImage, vm: &VmConfig) -> (Monitor, VmId) {
    let mut monitor = Monitor::new(MonitorConfig::default());
    let id = boot_in_monitor(&mut monitor, image, vm.clone());
    (monitor, id)
}

fn tier_span(tier: ExecTier) -> (&'static str, &'static str) {
    match tier {
        ExecTier::Interp => ("core.Monitor::run.interp", "cpu.step_loop.interp"),
        ExecTier::Cache => ("core.Monitor::run.cache", "cpu.step_loop.cache"),
        ExecTier::Trans => ("core.Monitor::run.trans", "cpu.step_loop.trans"),
    }
}

/// One rep at an explicitly selected tier (reference and per-tier
/// runs): returns the outcome, the counters it moved and the seconds
/// inside `Monitor::run`.
fn run_at(
    tracer: &mut Tracer,
    image: &GuestImage,
    vm: &VmConfig,
    tier: ExecTier,
) -> (VmOutcome, VmCounts, f64) {
    let (mut monitor, id) = boot(image, vm);
    monitor.set_exec_tier(tier);
    let (exit, secs) = tracer.span(tier_span(tier).0, REFERENCE_REP, |_| {
        monitor.run(RUN_BUDGET)
    });
    let counts = VmCounts::read(&monitor);
    (VmOutcome::read(&mut monitor, id, exit), counts, secs)
}

/// A timed rep at the monitor's default tier.
struct Rep {
    /// Boot plus run: the job's latency.
    job_s: f64,
    /// Seconds inside `Monitor::run`.
    run_s: f64,
    /// The probe's seconds just before the rep.
    probe_s: f64,
    counts: VmCounts,
    traced: bool,
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let (os, vm) = spec(args.seed);
    report.info_raw("iterations_per_process", os.iterations.to_string());
    report.info_raw("processes", os.nproc.to_string());

    // Set-up: build the guest image and boot it into a fresh monitor,
    // timed after a probe and scaled to the reference host speed.
    let setup_reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut raw_setup_s = Vec::new();
    let mut image = None;
    for i in 0..setup_reps {
        let probe_s = tracer.span("bench.probe", i, |_| calib::probe()).0;
        let (built, secs) = tracer.span("bench.setup", i, |t| {
            let (img, _) = t.span("os.build_image", i, |_| {
                build_image(&os).expect("guest image builds")
            });
            let _ = t.span("core.boot", i, |_| boot(&img, &vm));
            img
        });
        setup_s.push(secs * calib::speed_factor(probe_s));
        raw_setup_s.push(secs);
        image = Some(built);
    }
    let image = image.expect("at least one set-up");
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));
    report.info_raw(
        "raw_setup_s",
        format!("{:?}", median(&raw_setup_s).unwrap_or(0.0)),
    );
    report.info_raw("setup_samples", setup_s.len().to_string());

    // Reference (oracle work, excluded from every timing): the guest
    // under the monitor on the interpreter tier, and on the bare core
    // through the OS crate's own driver.
    let (reference, _, _) = run_at(tracer, &image, &vm, ExecTier::Interp);
    report.check(
        reference.exit == RunExit::AllHalted && reference.kernel.done == os.nproc,
        || format!("reference run did not halt cleanly: {:?}", reference.exit),
    );
    let bare_ref = vax_os::run_bare(&image, RUN_BUDGET);
    report.check(bare_ref.completed, || "bare reference did not halt".into());
    let sim_ratio = bare_ref.cycles as f64 / reference.stats.cycles_run as f64;
    report.info_raw("sim_vm_bare_ratio", format!("{sim_ratio:?}"));
    report.info_raw(
        "guest_instructions",
        reference.counters.instructions.to_string(),
    );
    report.info_raw("simulated_cycles", reference.cycles.to_string());

    // Timed reps at the default tier, back to back on this thread until
    // the run's time is up. A traced run alternates traced and untraced
    // reps so the difference is the tracing overhead.
    let reps = timed_reps(args, report, tracer, &image, &vm, &reference);
    report.info_str(
        "exec_tier",
        Monitor::new(MonitorConfig::default()).exec_tier().name(),
    );

    // The end-to-end metrics come from untraced reps only, each rep's
    // times scaled to the reference host speed. The rates are work done
    // over the time it took, summed over the run; the raw figures go to
    // the info line.
    let timed: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let collect = |secs: fn(&Rep) -> f64| timed.iter().map(|r| secs(r)).collect::<Vec<f64>>();
    let job_s = collect(|r| r.job_s * calib::speed_factor(r.probe_s));
    let run_s = collect(|r| r.run_s * calib::speed_factor(r.probe_s));
    let raw_job_s = collect(|r| r.job_s);
    let raw_run_s = collect(|r| r.run_s);
    let instructions: u64 = timed.iter().map(|r| r.counts.instructions).sum();
    let mips = |run: &[f64]| instructions as f64 / run.iter().sum::<f64>() / 1e6;
    let per_s = |job: &[f64]| timed.len() as f64 / job.iter().sum::<f64>();
    let p50_ms = |job: &[f64]| median(job).unwrap_or(0.0) * 1e3;
    report.set("guest_mips", mips(&run_s));
    report.set("req_per_s", per_s(&job_s));
    report.set("req_p50_ms", p50_ms(&job_s));
    report.info_raw(
        "req_p99_ms",
        format!("{:?}", percentile(&job_s, 0.99).unwrap_or(0.0) * 1e3),
    );
    report.info_raw("raw_guest_mips", format!("{:?}", mips(&raw_run_s)));
    report.info_raw("raw_req_per_s", format!("{:?}", per_s(&raw_job_s)));
    report.info_raw("raw_req_p50_ms", format!("{:?}", p50_ms(&raw_job_s)));
    let probe_s: Vec<f64> = timed.iter().map(|r| r.probe_s).collect();
    report.info_raw(
        "probe_p50_ms",
        format!("{:?}", median(&probe_s).unwrap_or(0.0) * 1e3),
    );
    report.info_raw(
        "probe_reference_ms",
        format!("{:?}", calib::REFERENCE_S * 1e3),
    );
    report.info_raw("req_samples", timed.len().to_string());
    report.info_raw(
        "p99_samples_beyond",
        samples_beyond(timed.len(), 0.99).to_string(),
    );

    if args.trace {
        per_layer(
            report, tracer, &image, &vm, &reps, &bare_ref, &reference, sim_ratio,
        );
    }
}

/// Runs reps back to back at the monitor's default tier until the run's
/// time has passed and at least [`MIN_REPS`] are done, checking each
/// against the reference.
fn timed_reps(
    args: &Args,
    report: &mut Report,
    tracer: &mut Tracer,
    image: &GuestImage,
    vm: &VmConfig,
    reference: &VmOutcome,
) -> Vec<Rep> {
    let deadline = Duration::from_secs_f64(args.seconds_f64());
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut i = 0u64;
    while reps.len() < MIN_REPS || started.elapsed() < deadline {
        let traced = args.trace && i.is_multiple_of(2);
        tracer.set_enabled(traced);
        let probe_s = tracer.span("bench.probe", i, |_| calib::probe()).0;
        let ((mut monitor, vm_id), boot_s) = tracer.span("core.boot", i, |_| boot(image, vm));
        let (exit, run_s) = tracer.span("core.Monitor::run", i, |_| monitor.run(RUN_BUDGET));
        let counts = VmCounts::read(&monitor);
        report.attempted += 1;
        if VmOutcome::read(&mut monitor, vm_id, exit) != *reference {
            report.fail(format!(
                "rep {i}: simulated outcome differs from the interp reference"
            ));
        }
        reps.push(Rep {
            job_s: boot_s + run_s,
            run_s,
            probe_s,
            counts,
            traced,
        });
        i += 1;
    }
    tracer.set_enabled(args.trace);
    reps
}

/// The traced run's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    tracer: &mut Tracer,
    image: &GuestImage,
    vm: &VmConfig,
    reps: &[Rep],
    bare_ref: &vax_os::RunOutcome,
    reference: &VmOutcome,
    sim_ratio: f64,
) {
    // The bare core and the guest under the monitor at each tier, in
    // interleaved rounds so every tier samples the same host conditions.
    // Bare runs must match the OS driver's run; monitor runs the interp
    // reference.
    const TIERS: [ExecTier; 3] = [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans];
    let default_tier = Monitor::new(MonitorConfig::default()).exec_tier();
    let mem_bytes = image.mem_pages * 512;
    let mut bare_mips = [Vec::new(), Vec::new(), Vec::new()];
    let mut vm_mips = [Vec::new(), Vec::new(), Vec::new()];
    let mut default_run_s = Vec::new();
    let mut default_counts = VmCounts::default();
    let mut trans_share = 0.0;
    for _ in 0..TIER_ROUNDS {
        for (i, tier) in TIERS.into_iter().enumerate() {
            let ((out, _), secs) = tracer.span(tier_span(tier).1, REFERENCE_REP, |_| {
                run_bare(&image.segments, image.entry, mem_bytes, tier, RUN_BUDGET)
            });
            let matches = out.completed == bare_ref.completed
                && out.cycles == bare_ref.cycles
                && out.console == bare_ref.console
                && out.kernel == bare_ref.kernel;
            report.check(matches, || {
                format!("bare run at {} differs from the OS driver's", tier.name())
            });
            bare_mips[i].push(out.counters.instructions as f64 / secs / 1e6);

            let (out, counts, secs) = run_at(tracer, image, vm, tier);
            report.check(&out == reference, || {
                format!(
                    "monitor run at {} differs from the interp reference",
                    tier.name()
                )
            });
            vm_mips[i].push(counts.instructions as f64 / secs / 1e6);
            if tier == ExecTier::Trans {
                trans_share = ratio(counts.trans_uops, counts.instructions);
            }
            if tier == default_tier {
                default_run_s.push(secs);
                default_counts = counts;
            }
        }
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    for (i, (bare, core)) in [
        ("cpu.bare_mips.interp", "core.vm_mips.interp"),
        ("cpu.bare_mips.cache", "core.vm_mips.cache"),
        ("cpu.bare_mips.trans", "core.vm_mips.trans"),
    ]
    .into_iter()
    .enumerate()
    {
        report.set(bare, med(&bare_mips[i]));
        report.set(core, med(&vm_mips[i]));
    }
    report.set("cpu.trans_uop_share", trans_share);

    // Counts and reconciliation at the monitor's default tier, timed in
    // the same rounds as the bare core it is reconciled against.
    let run_s = med(&default_run_s);
    report.set("core.run_s", run_s);
    report.set(
        "core.vmm_share",
        reconcile::vmm_share(default_counts.instructions, med(&bare_mips[1]), run_s).unwrap_or(0.0),
    );
    set_counts(report, &default_counts);
    report.set("core.sim_vm_bare_ratio", sim_ratio);

    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let job = |rs: &[&Rep]| median(&rs.iter().map(|r| r.job_s).collect::<Vec<_>>()).unwrap_or(0.0);
    let (abs, share) = reconcile::overhead(job(&traced), job(&untraced));
    report.set("trace.overhead_ms", abs * 1e3);
    report.set("trace.overhead_share", share);

    // This workload does no serving: those layers report 0.
    for (name, _) in crate::report::PER_LAYER {
        if name.starts_with("vaxd.")
            || name.starts_with("mem.")
            || name.starts_with("snap.")
            || *name == "core.run_payload_us"
        {
            report.set(name, 0.0);
        }
    }
}

/// The cache, exit and shadow counts of `c`.
fn set_counts(report: &mut Report, c: &VmCounts) {
    report.set(
        "cpu.decode_cache_hit_ratio",
        ratio(c.decode_hits, c.decode_hits + c.decode_misses),
    );
    report.set(
        "cpu.tlb_hit_ratio",
        ratio(c.tlb_hits, c.tlb_hits + c.tlb_misses),
    );
    report.set(
        "core.exits_per_kinstr",
        ratio(c.exits * 1000, c.instructions),
    );
    report.set("core.emulation_traps", c.emulation_traps as f64);
    report.set("core.shadow_fills", c.shadow_fills as f64);
    report.set(
        "core.shadow_cache_hit_ratio",
        ratio(
            c.shadow_cache_hits,
            c.shadow_cache_hits + c.shadow_cache_misses,
        ),
    );
    report.set("core.modify_faults", c.modify_faults as f64);
    report.set("core.world_switches", c.world_switches as f64);
}
