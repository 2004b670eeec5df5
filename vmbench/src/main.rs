//! Command-line entry point; see the library documentation.

use std::process::{Command, ExitCode};
use std::time::Instant;
use vmbench::report::{json_string, Report, END_TO_END, PER_LAYER};
use vmbench::trace::{chrome_trace, self_time_by_layer, Tracer};
use vmbench::{guest, serve, vmwork, Args};

/// Where the traced run writes its Chrome trace, relative to the
/// directory the benchmark runs from.
const TRACE_DIR: &str = "vmbench/out";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vmbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut tracer = Tracer::new(Instant::now(), args.trace, 0);
    if args.workload == "serve_fork" {
        serve::run(&args, &mut report, &mut tracer);
    } else {
        vmwork::run(&args, &mut report, &mut tracer);
    }
    report.set("rss_peak_mb", guest::rss_peak_mb().unwrap_or(0.0));
    provenance(&args, &mut report);
    if args.trace {
        let spans = tracer.spans();
        let by_layer: Vec<String> = self_time_by_layer(spans)
            .into_iter()
            .map(|(layer, s)| format!("{}: {s:?}", json_string(layer)))
            .collect();
        report.info_raw("self_s_by_layer", format!("{{{}}}", by_layer.join(", ")));
        report.info_raw("spans", spans.len().to_string());
        let path = format!("{TRACE_DIR}/trace_{}_{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, chrome_trace(spans)));
        match written {
            Ok(()) => report.info_str("chrome_trace", &path),
            Err(e) => eprintln!("vmbench: could not write {path}: {e}"),
        }
    }
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    match report.result_line(expected) {
        Ok(line) => {
            println!("{}", report.info_line());
            println!("{line}");
            // The result is printed either way; a wrong output also
            // fails the command for callers that read only its status.
            if report.failed > 0 {
                ExitCode::from(3)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("vmbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Records what produced this result: source revision (git, where the
/// checkout has it, and a digest of the sources built), host cores,
/// compiler, seed and mode.
fn provenance(args: &Args, report: &mut Report) {
    let git_rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.info_str("workload", &args.workload);
    report.info_raw("seed", args.seed.to_string());
    report.info_raw("seconds", args.seconds.to_string());
    report.info_raw("trace", args.trace.to_string());
    report.info_str("git_rev", &git_rev);
    report.info_str("source_digest", env!("VMBENCH_SOURCE_DIGEST"));
    report.info_raw("nproc", nproc.to_string());
    report.info_str("rustc", env!("VMBENCH_RUSTC_VERSION"));
}
