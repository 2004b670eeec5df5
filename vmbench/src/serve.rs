//! The `serve_fork` workload: an in-process `vaxd::Daemon` serving a
//! warm MiniVMS base over loopback TCP to a closed loop of one
//! connection per host core, each its own tenant. Every reply is checked
//! against the base's standalone oracle.

use crate::calib;
use crate::gen::{payload_bytes, payload_specs, request_stream};
use crate::guest::VmCounts;
use crate::report::Report;
use crate::stats::{median, percentile, samples_beyond};
use crate::trace::Tracer;
use crate::{reconcile, Args};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use vax_snap::{capture, rebuild, MemSource, MonitorImage};
use vax_vmm::{Monitor, MonitorConfig, RunExit, VmConfig};
use vaxd::base::run_payload;
use vaxd::proto::{hex_encode, ok_line, parse_request, parse_response, Request, Response};
use vaxd::tenant::TenantQuota;
use vaxd::{Admission, Daemon, DaemonConfig, RunOutput, WarmBase};

/// The warm base's name on the wire.
const BASE: &str = "minivms";
/// The warm base's guest: MiniVMS, compute workload.
const BASE_PROCS: u32 = 2;
const BASE_ITERATIONS: u32 = 20;
const BASE_BOOT_BUDGET: u64 = 500_000_000;
/// Distinct payloads per run; requests draw from this pool so every
/// reply can be checked against a precomputed oracle.
const POOL: usize = 128;
/// Requests replayed in process by the traced run (a fixed number, so
/// the counts it reports repeat exactly).
const REPLAY: usize = 128;
/// Fewest requests a run measures, so p99 has ten samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// Requests per rep window: medians are taken over windows.
const WINDOW_REQUESTS: usize = 1000;
/// Untimed requests per connection before the measurement starts.
const WARMUP_PER_CONN: usize = 16;
/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: u64 = 5;

/// The cycle budget a request asking for the tenant cap (`0`) runs
/// under: the default quota's clamp, which the oracle must use too.
fn effective_budget() -> u64 {
    TenantQuota::default().max_cycle_budget
}

fn boot_base() -> WarmBase {
    WarmBase::boot_minivms(BASE, BASE_PROCS, BASE_ITERATIONS, BASE_BOOT_BUDGET)
        .expect("warm base boots")
}

fn start_daemon(base: WarmBase, conns: usize) -> Daemon {
    let config = DaemonConfig {
        workers: conns,
        max_live_children: u32::try_from(conns * 4).unwrap_or(u32::MAX).max(16),
        ..DaemonConfig::default()
    };
    Daemon::start(config, vec![base]).expect("daemon starts")
}

/// The seeded payload pool and what each payload must produce.
struct Pool {
    hex: Vec<String>,
    payloads: Vec<Vec<u8>>,
    expected: Vec<RunOutput>,
    instrs: Vec<u64>,
}

impl Pool {
    /// Builds the pool for `seed` and computes its oracle: the base's
    /// standalone run of each payload, which a forked in-process run
    /// must also match.
    fn build(seed: u64, oracle: &mut WarmBase, report: &mut Report) -> Pool {
        let specs = payload_specs(seed, POOL);
        let mut pool = Pool {
            hex: Vec::new(),
            payloads: Vec::new(),
            expected: Vec::new(),
            instrs: Vec::new(),
        };
        for (i, spec) in specs.into_iter().enumerate() {
            let payload = payload_bytes(spec, &format!("p{i}")).expect("payload assembles");
            let expected = oracle
                .run_standalone(&payload, effective_budget())
                .expect("standalone oracle runs");
            let mut child = oracle.fork_child().expect("oracle base forks");
            let before = VmCounts::read(&child);
            let forked = run_payload(&mut child, &payload, effective_budget());
            let instrs = VmCounts::read(&child).since(&before).instructions;
            report.check(forked.as_ref() == Ok(&expected), || {
                format!("payload {i}: forked run differs from standalone")
            });
            pool.hex.push(hex_encode(&payload));
            pool.payloads.push(payload);
            pool.expected.push(expected);
            pool.instrs.push(instrs);
        }
        pool
    }

    fn line(&self, conn: usize, idx: usize) -> String {
        format!("RUN t{conn} {BASE} 0 {}\n", self.hex[idx])
    }
}

/// One completed request as the client saw it.
struct Sample {
    /// Completion time, seconds since the load started.
    done_s: f64,
    latency_s: f64,
    instrs: u64,
}

/// What one client connection saw.
struct ConnResult {
    samples: Vec<Sample>,
    attempted: u64,
    failures: Vec<String>,
    tracer: Tracer,
}

/// Sends one request line and checks the reply against the oracle;
/// returns the send-to-reply seconds.
fn exchange(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    pool: &Pool,
    conn: usize,
    idx: usize,
    req: u64,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let line = pool.line(conn, idx);
    let mut reply = String::new();
    let (sent, secs) = tracer.span("vaxd.server.request", req, |_| {
        writer.write_all(line.as_bytes())?;
        reader.read_line(&mut reply)
    });
    sent.map_err(|e| format!("conn {conn}: {e}"))?;
    let want = &pool.expected[idx];
    match parse_response(reply.trim_end()) {
        Ok(Response::Ok {
            status,
            cycles,
            console,
        }) if status == want.status && cycles == want.cycles && console == want.console => Ok(secs),
        other => Err(format!("conn {conn} payload {idx}: {other:?}")),
    }
}

/// A closed-loop client: after a warm-up, sends connection `conn`'s
/// seeded requests one at a time until `until` has passed and
/// `min_total` requests have completed across all connections.
#[allow(clippy::too_many_arguments)]
fn client(
    addr: SocketAddr,
    conn: usize,
    seed: u64,
    pool: &Pool,
    start: &Barrier,
    until: Duration,
    min_total: usize,
    done: &AtomicUsize,
    mut tracer: Tracer,
) -> ConnResult {
    let stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    stream.set_nodelay(true).expect("set nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut requests = request_stream(seed, conn, POOL);
    let mut out = ConnResult {
        samples: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        tracer: Tracer::new(tracer.origin(), false, 0),
    };
    let traced = tracer.enabled();
    tracer.set_enabled(false);
    for idx in requests.by_ref().take(WARMUP_PER_CONN) {
        out.attempted += 1;
        if let Err(e) = exchange(&mut writer, &mut reader, pool, conn, idx, 0, &mut tracer) {
            out.failures.push(e);
        }
    }
    tracer.set_enabled(traced);
    start.wait();
    let t0 = Instant::now();
    let mut req = (conn as u64 + 1) << 32;
    while t0.elapsed() < until || done.load(Ordering::Relaxed) < min_total {
        let idx = requests.next().unwrap_or(0);
        out.attempted += 1;
        req += 1;
        match exchange(&mut writer, &mut reader, pool, conn, idx, req, &mut tracer) {
            Ok(latency_s) => {
                out.samples.push(Sample {
                    done_s: t0.elapsed().as_secs_f64(),
                    latency_s,
                    instrs: pool.instrs[idx],
                });
                done.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                out.failures.push(e);
                // A connection that got a wrong or no reply stops: the
                // closed loop cannot tell what state the daemon is in.
                break;
            }
        }
    }
    out.tracer = tracer;
    out
}

/// Runs one closed-loop load phase over `conns` connections and returns
/// every completed request.
#[allow(clippy::too_many_arguments)]
fn load(
    addr: SocketAddr,
    conns: usize,
    seed: u64,
    pool: &Pool,
    until: Duration,
    min_total: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<Sample> {
    let start = Barrier::new(conns);
    let done = AtomicUsize::new(0);
    let (origin, traced) = (tracer.origin(), tracer.enabled());
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (start, done) = (&start, &done);
                let t = Tracer::new(origin, traced, 1 + c as u32);
                s.spawn(move || client(addr, c, seed, pool, start, until, min_total, done, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    for r in results {
        report.attempted += r.attempted;
        for f in r.failures {
            report.fail(f);
        }
        samples.extend(r.samples);
        tracer.absorb(r.tracer);
    }
    samples
}

/// Splits a load's samples into equal-time windows of about
/// [`WINDOW_REQUESTS`] requests each and returns per-window
/// (requests/s, guest Minstr/s, p50 s, p99 s), plus the smallest window.
fn windows(samples: &[Sample]) -> (Vec<[f64; 4]>, usize) {
    let wall = samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
    let k = (samples.len() / WINDOW_REQUESTS).clamp(1, 16);
    let width = wall / k as f64;
    let mut out = Vec::new();
    let mut smallest = usize::MAX;
    for w in 0..k {
        let (lo, hi) = (w as f64 * width, (w + 1) as f64 * width);
        let inside: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.done_s > lo && (s.done_s <= hi || w + 1 == k))
            .collect();
        let lat: Vec<f64> = inside.iter().map(|s| s.latency_s).collect();
        let instrs: u64 = inside.iter().map(|s| s.instrs).sum();
        smallest = smallest.min(inside.len());
        out.push([
            inside.len() as f64 / width,
            instrs as f64 / width / 1e6,
            median(&lat).unwrap_or(0.0),
            percentile(&lat, 0.99).unwrap_or(0.0),
        ]);
    }
    (out, smallest)
}

/// Boots the warm base and starts the daemon: the serving set-up.
fn setup(tracer: &mut Tracer, i: u64, conns: usize) -> Daemon {
    tracer
        .span("bench.setup", i, |t| {
            let (base, _) = t.span("vaxd.WarmBase::boot_minivms", i, |_| boot_base());
            t.span("vaxd.Daemon::start", i, |_| start_daemon(base, conns))
                .0
        })
        .0
}

/// Checks the daemon's own hygiene accounting after a load, then shuts
/// it down and checks that nothing leaked.
fn finish(daemon: Daemon, served: usize, report: &mut Report) -> vax_vmm::Metrics {
    let m = daemon.metrics();
    report.check(
        m.get_gauge("vaxd_forked_children_live") == Some(Some(0.0)),
        || "children still live after the load".into(),
    );
    report.check(
        m.get_counter("vaxd_requests_ok").unwrap_or(0) >= served as u64,
        || "daemon counted fewer OK replies than the clients saw".into(),
    );
    let shutdown = daemon.shutdown();
    report.check(
        shutdown.drained_in_deadline && shutdown.children_leaked == 0,
        || format!("shutdown: {shutdown:?}"),
    );
    m
}

/// Runs the `serve_fork` workload and fills `report`.
pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.info_raw("connections", conns.to_string());
    report.info_raw("daemon_workers", conns.to_string());

    // Set-up, timed after a probe and scaled to the reference host
    // speed: booting the warm base runs the guest, so its host time moves
    // with the neighbours' load like a `vm_edittrans` job's.
    let setup_reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut raw_setup_s = Vec::new();
    let mut daemon = None;
    for i in 0..setup_reps {
        if let Some(previous) = daemon.take() {
            finish(previous, 0, report);
        }
        let probe_s = tracer.span("bench.probe", i, |_| calib::probe()).0;
        let started = Instant::now();
        daemon = Some(setup(tracer, i, conns));
        let secs = started.elapsed().as_secs_f64();
        setup_s.push(secs * calib::speed_factor(probe_s));
        raw_setup_s.push(secs);
    }
    let daemon = daemon.expect("at least one set-up");
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));
    report.info_raw(
        "raw_setup_s",
        format!("{:?}", median(&raw_setup_s).unwrap_or(0.0)),
    );
    report.info_raw("setup_samples", setup_s.len().to_string());

    // Oracle work, excluded from every timing.
    let mut oracle = boot_base();
    let pool = tracer
        .span("bench.oracle", 0, |_| {
            Pool::build(args.seed, &mut oracle, report)
        })
        .0;
    report.info_raw("payload_pool", POOL.to_string());
    report.info_str(
        "exec_tier",
        oracle.fork_child().map_or("?", |m| m.exec_tier().name()),
    );

    let addr = daemon.local_addr();
    let budget = Duration::from_secs_f64(args.seconds_f64());
    if !args.trace {
        let samples = load(
            addr,
            conns,
            args.seed,
            &pool,
            budget,
            MIN_REQUESTS,
            tracer,
            report,
        );
        let (w, smallest) = windows(&samples);
        let col = |i: usize| median(&w.iter().map(|r| r[i]).collect::<Vec<_>>()).unwrap_or(0.0);
        report.set("req_per_s", col(0));
        report.set("guest_mips", col(1));
        report.set("req_p50_ms", col(2) * 1e3);
        report.info_raw("req_p99_ms", format!("{:?}", col(3) * 1e3));
        report.info_raw("req_samples", samples.len().to_string());
        report.info_raw("rep_windows", w.len().to_string());
        report.info_raw("rep_window_min_samples", smallest.to_string());
        report.info_raw(
            "p99_samples_beyond_min",
            samples_beyond(smallest, 0.99).to_string(),
        );
        finish(daemon, samples.len(), report);
        return;
    }
    per_layer(args, report, tracer, daemon, conns, &pool, &mut oracle);
}

/// A monitor booted by the [`WarmBase::boot_minivms`] recipe and frozen
/// the way [`WarmBase::from_monitor`] freezes it, plus its memory-less
/// image: the two halves `fork_child` joins, exposed so the benchmark
/// can time each half on its own.
fn replica() -> (Monitor, MonitorImage) {
    let image = vax_os::build_image(&vax_os::OsConfig {
        nproc: BASE_PROCS,
        workload: vax_os::Workload::Compute,
        iterations: BASE_ITERATIONS,
        ..vax_os::OsConfig::default()
    })
    .expect("base image builds");
    let mut monitor = Monitor::new(MonitorConfig::default());
    vax_os::boot_in_monitor(&mut monitor, &image, VmConfig::default());
    assert_eq!(
        monitor.run(BASE_BOOT_BUDGET),
        RunExit::AllHalted,
        "replica base boots"
    );
    let ids: Vec<_> = monitor.vm_ids().collect();
    for id in ids {
        let _ = monitor.vm_console_output(id);
        monitor.vm_mut(id).vmm_log.clear();
    }
    let skeleton = capture(&monitor, false).expect("replica base captures");
    drop(monitor.machine_mut().fork_mem());
    (monitor, skeleton)
}

/// Per-request host seconds of each serving stage in the replay.
#[derive(Default)]
struct Stages {
    proto: Vec<f64>,
    admit: Vec<f64>,
    fork_child: Vec<f64>,
    fork_mem: Vec<f64>,
    rebuild: Vec<f64>,
    run_payload: Vec<f64>,
    reap: Vec<f64>,
    sum: Vec<f64>,
    resident_pages: Vec<f64>,
    shared_fraction: Vec<f64>,
}

fn p50_us(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0) * 1e6
}

/// The traced run: the seeded request lines replayed in process through
/// the calls the daemon's serving path composes, each tier of the guest
/// layers, and the TCP path at one and at `conns` connections.
fn per_layer(
    args: &Args,
    report: &mut Report,
    tracer: &mut Tracer,
    daemon: Daemon,
    conns: usize,
    pool: &Pool,
    base: &mut WarmBase,
) {
    let mut streams: Vec<_> = (0..conns)
        .map(|c| request_stream(args.seed, c, POOL))
        .collect();
    let replay: Vec<(usize, usize)> = (0..REPLAY)
        .map(|r| (r % conns, streams[r % conns].next().unwrap_or(0)))
        .collect();

    // 1. The serving stages, one span each, per request.
    let admission = Arc::new(Admission::new(TenantQuota::default(), HashMap::new(), 16));
    let (mut parent, skeleton) = replica();
    let mut st = Stages::default();
    for (r, &(conn, idx)) in replay.iter().enumerate() {
        let req = r as u64;
        let line = pool.line(conn, idx);
        let expected = &pool.expected[idx];
        let ok = tracer
            .span("bench.request", req, |t| -> Result<(), String> {
                let (parsed, parse_s) = t.span("vaxd.parse_request", req, |_| {
                    parse_request(line.trim_end())
                });
                let Ok(Request::Run {
                    tenant,
                    budget,
                    payload,
                    ..
                }) = parsed
                else {
                    return Err(format!("replay {r}: request line did not parse"));
                };
                let requested = if budget == 0 { u64::MAX } else { budget };
                let (admitted, admit_s) = t.span("vaxd.Admission::admit", req, |_| {
                    admission.admit(&tenant, base.frame_cost(), requested)
                });
                let (ticket, granted) = admitted.map_err(|e| format!("replay {r}: {e}"))?;
                let (child, fork_s) =
                    t.span("vaxd.WarmBase::fork_child", req, |_| base.fork_child());
                let mut child = child.map_err(|e| format!("replay {r}: fork: {e}"))?;
                let (out, run_s) = t.span("core.run_payload", req, |_| {
                    run_payload(&mut child, &payload, granted)
                });
                st.resident_pages
                    .push(f64::from(child.machine().mem().resident_pages()));
                st.shared_fraction
                    .push(child.machine().mem().shared_fraction());
                let ((), reap_s) = t.span("mem.reap", req, |_| drop(child));
                let ((), release_s) = t.span("vaxd.AdmitTicket::drop", req, |_| drop(ticket));
                let out = out.map_err(|e| format!("replay {r}: {e}"))?;
                let (_, reply_s) = t.span("vaxd.ok_line", req, |_| {
                    ok_line(out.status, out.cycles, &out.console)
                });
                if &out != expected {
                    return Err(format!("replay {r}: output differs from the oracle"));
                }
                st.proto.push(parse_s + reply_s);
                st.admit.push(admit_s + release_s);
                st.fork_child.push(fork_s);
                st.run_payload.push(run_s);
                st.reap.push(reap_s);
                st.sum
                    .push(parse_s + reply_s + admit_s + release_s + fork_s + run_s + reap_s);
                Ok(())
            })
            .0;
        report.check(ok.is_ok(), || ok.clone().err().unwrap_or_default());

        // fork_child's two halves, timed apart on the replica.
        let (mem, fork_mem_s) =
            tracer.span("mem.fork_mem", req, |_| parent.machine_mut().fork_mem());
        let (child, rebuild_s) = tracer.span("snap.rebuild", req, |_| {
            rebuild(skeleton.clone(), MemSource::Forked(mem))
        });
        report.check(child.is_ok(), || {
            format!("replay {r}: replica rebuild failed")
        });
        drop(child);
        st.fork_mem.push(fork_mem_s);
        st.rebuild.push(rebuild_s);
    }
    report.set("vaxd.proto_us", p50_us(&st.proto));
    report.set("vaxd.admit_us", p50_us(&st.admit));
    report.set("vaxd.fork_child_us", p50_us(&st.fork_child));
    report.set("mem.fork_mem_us", p50_us(&st.fork_mem));
    report.set("snap.rebuild_us", p50_us(&st.rebuild));
    report.set("core.run_payload_us", p50_us(&st.run_payload));
    report.set("mem.reap_us", p50_us(&st.reap));
    report.set("vaxd.stage_sum_us", p50_us(&st.sum));
    report.set(
        "mem.child_resident_pages",
        median(&st.resident_pages).unwrap_or(0.0),
    );
    report.set(
        "mem.shared_fraction",
        median(&st.shared_fraction).unwrap_or(0.0),
    );
    report.info_raw("replay_requests", REPLAY.to_string());

    // 2. The guest layers are measured on `vm_edittrans`; the
    // served payloads are too short to say anything about them.
    for (name, _) in crate::report::PER_LAYER {
        if (name.starts_with("cpu.") || name.starts_with("core.")) && *name != "core.run_payload_us"
        {
            report.set(name, 0.0);
        }
    }

    // 3. The TCP path: one connection, then `conns` traced and untraced.
    let addr = daemon.local_addr();
    let phase = Duration::from_secs_f64(args.seconds_f64() / 3.0);
    let min = MIN_REQUESTS / 4;
    let lat_us = |s: &[Sample]| p50_us(&s.iter().map(|x| x.latency_s).collect::<Vec<_>>());
    let c1 = load(addr, 1, args.seed, pool, phase, min, tracer, report);
    let cn = load(addr, conns, args.seed, pool, phase, min, tracer, report);
    tracer.set_enabled(false);
    let cn_plain = load(addr, conns, args.seed, pool, phase, min, tracer, report);
    tracer.set_enabled(true);
    let (c1_us, cn_us) = (lat_us(&c1), lat_us(&cn));
    report.set("vaxd.server.c1_p50_us", c1_us);
    report.set("vaxd.server.cn_p50_us", cn_us);
    let cn_lat: Vec<f64> = cn.iter().map(|x| x.latency_s).collect();
    report.set(
        "vaxd.server.cn_p99_us",
        percentile(&cn_lat, 0.99).unwrap_or(0.0) * 1e6,
    );
    report.set(
        "vaxd.server.wire_us",
        reconcile::wire_us(c1_us, p50_us(&st.sum)),
    );
    report.set("vaxd.server.wait_us", reconcile::wait_us(cn_us, c1_us));
    let (abs_us, share) = reconcile::overhead(cn_us, lat_us(&cn_plain));
    report.set("trace.overhead_ms", abs_us / 1e3);
    report.set("trace.overhead_share", share);
    report.info_raw(
        "tcp_samples",
        format!(
            "{{\"c1\": {}, \"cn\": {}, \"cn_untraced\": {}}}",
            c1.len(),
            cn.len(),
            cn_plain.len()
        ),
    );

    // 4. Refusals, by reason, from the daemon's own counters.
    let served = c1.len() + cn.len() + cn_plain.len();
    let m = finish(daemon, served, report);
    let rejected = m.get_counter("vaxd_requests_rejected").unwrap_or(0)
        + m.get_counter("vaxd_requests_shed").unwrap_or(0)
        + m.get_counter("vaxd_requests_refused_draining").unwrap_or(0);
    report.set("vaxd.rejects", rejected as f64);
    for (name, _) in crate::report::PER_LAYER {
        if let Some(reason) = name.strip_prefix("vaxd.rejects.") {
            // Shed and draining refusals are counted apart from the
            // labeled admission and parse rejects.
            let n = match reason {
                "queue-full" => m.get_counter("vaxd_requests_shed"),
                "draining" => m.get_counter("vaxd_requests_refused_draining"),
                _ => m.get_labeled_counter("vaxd_requests_rejected_by_reason", "reason", reason),
            }
            .unwrap_or(0);
            report.set(name, n as f64);
        }
    }
}
