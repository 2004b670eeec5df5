//! Forking a warm base: a child starts with no private memory, dirties
//! exactly the pages a standalone run of the same payload writes, and
//! any number of workers can fork one `&WarmBase` at once with every
//! child bit-identical to the standalone oracle and nothing leaked.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use vax_snap::restore_monitor;
use vaxd::base::{run_payload, RunOutput};
use vaxd::payload::PAYLOAD_GPA;
use vaxd::proto::{hex_encode, parse_response, Response, RunStatus};
use vaxd::{Daemon, DaemonConfig, WarmBase};

const BUDGET: u64 = 20_000_000;

fn warm_base() -> WarmBase {
    WarmBase::boot_minivms("minivms", 2, 4, 100_000_000).expect("base boots")
}

/// Spins `spin` times, writes one longword on each of `pages` pages
/// from 4 KiB above the payload (every third page), prints `tag`, halts.
fn payload(spin: u32, pages: u32, tag: &str) -> Vec<u8> {
    let mut src = format!("    movl #{spin}, r0\nspin_l:\n    sobgtr r0, spin_l\n");
    if pages > 0 {
        src.push_str(&format!(
            "    movl #{pages}, r1\n    movl #{}, r2\ndirty_l:\n    movl r1, (r2)\n    addl2 #1536, r2\n    sobgtr r1, dirty_l\n",
            PAYLOAD_GPA + 0x1000
        ));
    }
    for b in tag.bytes() {
        src.push_str(&format!("    mtpr #{b}, #35\n"));
    }
    src.push_str("    halt\n");
    vax_asm::assemble_text(&src, PAYLOAD_GPA)
        .expect("assembles")
        .bytes
}

#[test]
fn fresh_child_holds_no_pages_and_dirties_what_standalone_writes() {
    let base = warm_base();
    let payload = payload(5_000, 7, "A");

    let mut child = base.fork_child().expect("forks");
    assert_eq!(
        child.machine().mem().resident_pages(),
        0,
        "rebuilding around the fork writes nothing into it"
    );
    let served = run_payload(&mut child, &payload, BUDGET).expect("runs");
    assert_eq!(served.status, RunStatus::Halted);

    // The oracle: a monitor restored from the base's bytes, tracking
    // every page written from the same point — payload injection on.
    let mut standalone = restore_monitor(base.snapshot_bytes()).expect("restores");
    standalone.machine_mut().mem_mut().enable_write_tracking();
    let expected = run_payload(&mut standalone, &payload, BUDGET).expect("runs");
    assert_eq!(served, expected, "fork-serve == standalone, bit for bit");
    let dirtied = standalone.machine().mem().dirty_pages();
    assert_eq!(child.machine().mem().resident_page_numbers(), dirtied);
    // Seven payload-written pages, the payload's own page, and the
    // monitor's bookkeeping writes — and nothing proportional to memory.
    assert!(dirtied.len() >= 8 && dirtied.len() < 16, "{dirtied:?}");
}

#[test]
fn concurrent_forks_of_one_base_match_standalone_and_leak_nothing() {
    let base = warm_base();
    assert_eq!(base.parent_mem().base_ref_count(), Some(1));
    let payloads: Vec<Vec<u8>> = (0..4u32)
        .map(|i| payload(1_000 + 3_000 * i, 4 * i, &format!("w{i}")))
        .collect();
    let expected: Vec<RunOutput> = payloads
        .iter()
        .map(|p| base.run_standalone(p, BUDGET).expect("standalone runs"))
        .collect();

    let start = Barrier::new(payloads.len());
    let (base_ref, start_ref) = (&base, &start);
    let served: Vec<(RunOutput, u32)> = std::thread::scope(|s| {
        let workers: Vec<_> = payloads
            .iter()
            .map(|p| {
                s.spawn(move || {
                    start_ref.wait();
                    let mut child = base_ref.fork_child().expect("forks");
                    let out = run_payload(&mut child, p, BUDGET).expect("runs");
                    (out, child.machine().mem().resident_pages())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .collect()
    });

    for (i, ((out, resident), want)) in served.iter().zip(&expected).enumerate() {
        assert_eq!(out, want, "worker {i}: served == standalone");
        assert_eq!(out.console, format!("w{i}").as_bytes());
        assert!(*resident > 0, "worker {i} wrote its own pages");
    }
    // Every child is reaped: no reference on the frozen base beyond the
    // template's own, and the template itself never wrote.
    assert_eq!(
        base.parent_mem().base_ref_count(),
        Some(1),
        "children_leaked = 0"
    );
    assert_eq!(base.parent_mem().resident_pages(), 0);
}

#[test]
fn four_workers_fork_concurrently_over_the_wire_and_leak_nothing() {
    let daemon = Daemon::start(
        DaemonConfig {
            workers: 4,
            ..DaemonConfig::default()
        },
        vec![warm_base()],
    )
    .expect("daemon starts");
    let addr = daemon.local_addr();
    let payloads: Vec<Vec<u8>> = (0..4u32)
        .map(|i| payload(2_000 * i, 8 - i, &format!("c{i}")))
        .collect();
    let start = Barrier::new(payloads.len());
    let replies: Vec<Vec<Response>> = std::thread::scope(|s| {
        let clients: Vec<_> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let start = &start;
                s.spawn(move || {
                    let mut writer = TcpStream::connect(addr).expect("connects");
                    let mut reader = BufReader::new(writer.try_clone().expect("clones"));
                    start.wait();
                    (0..5)
                        .map(|_| {
                            let line = format!("RUN t{i} minivms 0 {}\n", hex_encode(p));
                            writer.write_all(line.as_bytes()).expect("sends");
                            let mut reply = String::new();
                            reader.read_line(&mut reply).expect("replies");
                            parse_response(reply.trim_end()).expect("well-formed")
                        })
                        .collect()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect()
    });
    for (i, (p, replies)) in payloads.iter().zip(replies).enumerate() {
        let want = daemon
            .run_standalone("minivms", p, u64::MAX)
            .expect("standalone runs");
        for reply in replies {
            let Response::Ok {
                status,
                cycles,
                console,
            } = reply
            else {
                panic!("client {i}: expected OK, got {reply:?}");
            };
            assert_eq!(
                (status, cycles, &console),
                (want.status, want.cycles, &want.console)
            );
        }
    }
    assert_eq!(daemon.base_mem_stats("minivms"), Some((Some(1), 0)));
    let report = daemon.shutdown();
    assert!(report.drained_in_deadline);
    assert_eq!(report.children_leaked, 0);
}
