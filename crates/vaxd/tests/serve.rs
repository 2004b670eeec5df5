//! End-to-end serving tests: concurrency with bit-identity, fork-reap
//! hygiene, admission and backpressure, graceful shutdown, and the
//! metrics endpoint — the acceptance gates from the serving design.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use vaxd::payload::{print_payload, spin_print_payload};
use vaxd::proto::{hex_encode, parse_response, Response, RunStatus};
use vaxd::tenant::TenantQuota;
use vaxd::{Daemon, DaemonConfig, WarmBase};

fn warm_base() -> WarmBase {
    WarmBase::boot_minivms("minivms", 2, 4, 100_000_000).expect("base boots")
}

fn start_daemon(config: DaemonConfig) -> Daemon {
    Daemon::start(config, vec![warm_base()]).expect("daemon starts")
}

/// One client connection speaking the wire protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn exchange(&mut self, line: &str) -> Response {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        self.read_reply()
    }

    fn read_reply(&mut self) -> Response {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("recv");
        assert!(n > 0, "server closed connection unexpectedly");
        parse_response(reply.trim_end()).expect("well-formed response")
    }

    fn run(&mut self, tenant: &str, base: &str, budget: u64, payload: &[u8]) -> Response {
        self.exchange(&format!(
            "RUN {tenant} {base} {budget} {}",
            hex_encode(payload)
        ))
    }
}

fn gauge(daemon: &Daemon, name: &str) -> f64 {
    daemon
        .metrics()
        .get_gauge(name)
        .and_then(|v| v)
        .unwrap_or_else(|| panic!("gauge {name} missing"))
}

#[test]
fn two_tenants_serve_concurrently_bit_identical_to_standalone() {
    let daemon = start_daemon(DaemonConfig::default());
    let addr = daemon.local_addr();

    let spawn_tenant = |tenant: &'static str, spin: u32| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr);
            let mut results = Vec::new();
            for i in 0..3 {
                let msg = format!("{tenant} says {i}");
                let payload = spin_print_payload(spin, msg.as_bytes()).expect("assembles");
                let reply = client.run(tenant, "minivms", 0, &payload);
                results.push((payload, msg, reply));
            }
            results
        })
    };
    // Different spin counts so the tenants' requests genuinely overlap
    // and interleave on the worker pool.
    let alice = spawn_tenant("alice", 20_000);
    let bob = spawn_tenant("bob", 100);
    for handle in [alice, bob] {
        for (payload, msg, reply) in handle.join().expect("tenant thread") {
            let Response::Ok {
                status,
                cycles,
                console,
            } = reply
            else {
                panic!("expected OK, got {reply:?}");
            };
            assert_eq!(status, RunStatus::Halted);
            assert_eq!(console, msg.as_bytes(), "served console output");
            // The standalone oracle: restore the base's snapshot and run
            // the same payload outside the daemon. Bit-identical, always.
            let standalone = daemon
                .run_standalone("minivms", &payload, u64::MAX)
                .expect("standalone runs");
            assert_eq!(standalone.status, status);
            assert_eq!(standalone.cycles, cycles, "cycle-exact determinism");
            assert_eq!(standalone.console, console);
        }
    }

    let m = daemon.metrics();
    assert_eq!(m.get_counter("vaxd_requests_ok"), Some(6));
    assert_eq!(
        m.get_labeled_counter("vaxd_requests_ok_by_tenant", "tenant", "alice"),
        Some(3)
    );
    assert_eq!(
        m.get_labeled_counter("vaxd_requests_ok_by_tenant", "tenant", "bob"),
        Some(3)
    );
    let report = daemon.shutdown();
    assert!(report.drained_in_deadline);
    assert_eq!(report.children_leaked, 0);
}

#[test]
fn fork_reap_cycles_return_base_memory_to_baseline() {
    let daemon = start_daemon(DaemonConfig::default());
    let (baseline_refs, baseline_pages) = daemon.base_mem_stats("minivms").expect("base exists");
    assert_eq!(baseline_refs, Some(1), "frozen base, parent's ref only");
    assert_eq!(baseline_pages, 0, "parent never writes after freeze");

    let mut client = Client::connect(daemon.local_addr());
    let payload = print_payload(b"cycle").expect("assembles");
    for _ in 0..20 {
        let reply = client.run("hygiene", "minivms", 0, &payload);
        assert!(matches!(reply, Response::Ok { .. }), "got {reply:?}");
    }

    // Every response was written after its child was reaped, so the
    // ledger is already settled — no polling, no sleeps.
    assert_eq!(
        daemon.base_mem_stats("minivms").expect("base exists"),
        (Some(1), 0),
        "20 fork/run/reap cycles later the base is back at baseline"
    );
    let m = daemon.metrics();
    assert_eq!(m.get_counter("vaxd_forks_total"), Some(20));
    assert_eq!(m.get_counter("vaxd_children_reaped"), Some(20));
    assert_eq!(gauge(&daemon, "vaxd_forked_children_live"), 0.0);
    assert_eq!(gauge(&daemon, "vaxd_children_leaked"), 0.0);

    let report = daemon.shutdown();
    assert_eq!(report.children_leaked, 0);
}

#[test]
fn tenant_over_frame_quota_is_refused_while_neighbor_serves() {
    let base = warm_base();
    let frame_cost = base.frame_cost();
    let mut config = DaemonConfig::default();
    // "starved" cannot afford even one fork; "neighbor" is unconstrained.
    config.tenant_quotas.insert(
        "starved".to_string(),
        TenantQuota {
            max_frames: frame_cost - 1,
            ..TenantQuota::default()
        },
    );
    let daemon = Daemon::start(config, vec![base]).expect("daemon starts");

    let mut client = Client::connect(daemon.local_addr());
    let payload = print_payload(b"who goes there").expect("assembles");

    let refused = client.run("starved", "minivms", 0, &payload);
    assert_eq!(
        refused,
        Response::Err {
            code: 429,
            reason: "tenant-frames".to_string()
        }
    );

    // The neighbor is untouched by the starved tenant's rejection — and
    // its response is still bit-identical to standalone.
    let served = client.run("neighbor", "minivms", 0, &payload);
    let standalone = daemon
        .run_standalone("minivms", &payload, u64::MAX)
        .expect("standalone runs");
    assert_eq!(
        served,
        Response::Ok {
            status: standalone.status,
            cycles: standalone.cycles,
            console: standalone.console,
        }
    );

    let m = daemon.metrics();
    assert_eq!(
        m.get_labeled_counter(
            "vaxd_requests_rejected_by_reason",
            "reason",
            "tenant-frames"
        ),
        Some(1)
    );
    daemon.shutdown();
}

#[test]
fn concurrency_quota_and_budget_statuses() {
    let daemon = start_daemon(DaemonConfig {
        default_quota: TenantQuota {
            max_cycle_budget: 100_000,
            ..TenantQuota::default()
        },
        ..DaemonConfig::default()
    });
    let mut client = Client::connect(daemon.local_addr());

    // A spin too long for the clamped budget: the run is cut off and
    // reported as `budget`, not an error — the tenant paid for it.
    let payload = spin_print_payload(1_000_000, b"never").expect("assembles");
    let reply = client.run("capped", "minivms", 0, &payload);
    let Response::Ok {
        status, console, ..
    } = reply
    else {
        panic!("expected OK, got {reply:?}");
    };
    assert_eq!(status, RunStatus::Budget);
    assert!(console.is_empty(), "cut off before printing");

    // Unknown base and oversized payload are typed refusals.
    assert_eq!(
        client.run("capped", "no-such-base", 0, b"\x00"),
        Response::Err {
            code: 404,
            reason: "unknown-base".to_string()
        }
    );
    // Just over the payload cap but within the line cap: typed 400.
    let huge = vec![0u8; 16 * 1024 + 16];
    assert_eq!(
        client.run("capped", "minivms", 0, &huge),
        Response::Err {
            code: 400,
            reason: "payload-too-large".to_string()
        }
    );
    daemon.shutdown();
}

#[test]
fn accept_queue_overflow_sheds_with_429() {
    let config = DaemonConfig {
        workers: 1,
        accept_queue: 1,
        ..DaemonConfig::default()
    };
    let daemon = start_daemon(config);
    let addr = daemon.local_addr();

    // Pin the single worker to connection A (PONG proves the worker
    // owns it and the queue is empty again).
    let mut a = Client::connect(addr);
    assert_eq!(a.exchange("PING"), Response::Pong);
    // B fills the one queue slot; C must be shed at accept.
    let _b = TcpStream::connect(addr).expect("connect b");
    // Give the accept thread time to queue B before C arrives.
    std::thread::sleep(Duration::from_millis(100));
    let mut c = Client::connect(addr);
    assert_eq!(
        c.read_reply(),
        Response::Err {
            code: 429,
            reason: "queue-full".to_string()
        }
    );

    let m = daemon.metrics();
    assert_eq!(m.get_counter("vaxd_requests_shed"), Some(1));
    daemon.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_and_leaks_nothing() {
    let daemon = start_daemon(DaemonConfig::default());
    let addr = daemon.local_addr();

    // A slow request from a background client...
    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        let payload = spin_print_payload(2_000_000, b"made it out").expect("assembles");
        client.run("drainee", "minivms", 0, &payload)
    });
    // ...wait until its child is actually forked and live...
    let started = Instant::now();
    while gauge(&daemon, "vaxd_forked_children_live") < 1.0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "request never became in-flight"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // ...then shut down mid-request. The drain must let it finish.
    let report = daemon.shutdown();
    assert!(report.drained_in_deadline, "in-flight work drained");
    assert_eq!(report.in_flight_at_deadline, 0);
    assert_eq!(report.children_leaked, 0, "every child reaped");

    let reply = slow.join().expect("client thread");
    let Response::Ok {
        status, console, ..
    } = reply
    else {
        panic!("in-flight request lost: {reply:?}");
    };
    assert_eq!(status, RunStatus::Halted);
    assert_eq!(console, b"made it out");
}

#[test]
fn shutdown_verb_stops_the_daemon_and_drains_with_503() {
    // One worker: connection A is pinned to it, connection B waits in
    // the accept queue. A's SHUTDOWN flips the stop flag; the worker
    // then pops B (queued connections are drained, not dropped) and
    // must refuse its already-sent RUN with 503 draining.
    let config = DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    };
    let daemon = start_daemon(config);
    let mut a = Client::connect(daemon.local_addr());
    assert_eq!(a.exchange("PING"), Response::Pong);

    let mut b = Client::connect(daemon.local_addr());
    let payload = print_payload(b"late").expect("assembles");
    b.writer
        .write_all(format!("RUN tardy minivms 0 {}\n", hex_encode(&payload)).as_bytes())
        .expect("send");
    // Let the accept thread queue B before the shutdown order.
    std::thread::sleep(Duration::from_millis(100));

    assert_eq!(a.exchange("SHUTDOWN"), Response::Bye);
    let started = Instant::now();
    while !daemon.stop_requested() {
        assert!(started.elapsed() < Duration::from_secs(5));
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        b.read_reply(),
        Response::Err {
            code: 503,
            reason: "draining".to_string()
        }
    );
    let m = daemon.metrics();
    assert_eq!(m.get_counter("vaxd_requests_refused_draining"), Some(1));
    let report = daemon.shutdown();
    assert!(report.drained_in_deadline);
    assert_eq!(report.children_leaked, 0);
}

#[test]
fn metrics_endpoint_speaks_prometheus() {
    let daemon = start_daemon(DaemonConfig::default());
    let mut client = Client::connect(daemon.local_addr());
    let payload = print_payload(b"observable").expect("assembles");
    assert!(matches!(
        client.run("prom", "minivms", 0, &payload),
        Response::Ok { .. }
    ));

    let mut http = TcpStream::connect(daemon.metrics_addr()).expect("connect metrics");
    http.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write!(http, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
    let mut body = String::new();
    http.read_to_string(&mut body).expect("read");
    assert!(body.starts_with("HTTP/1.1 200 OK"), "got: {body}");
    assert!(body.contains("text/plain; version=0.0.4"));
    assert!(body.contains("# TYPE vax_vaxd_requests_total counter"));
    assert!(body.contains("vax_vaxd_requests_ok_by_tenant{tenant=\"prom\"} 1"));
    assert!(body.contains("vax_vaxd_forked_children_live 0"));
    assert!(body.contains("vax_vaxd_request_latency_us_count 1"));

    // Unknown paths 404.
    let mut http = TcpStream::connect(daemon.metrics_addr()).expect("connect metrics");
    write!(http, "GET /nope HTTP/1.1\r\n\r\n").expect("send");
    let mut reply = String::new();
    http.read_to_string(&mut reply).expect("read");
    assert!(reply.starts_with("HTTP/1.1 404"));

    daemon.shutdown();
}
