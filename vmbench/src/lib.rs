//! The repository's benchmark: a guest under the VMM (`vm_edittrans`)
//! and fork-per-request serving (`serve_fork`), measured
//! end to end with tracing off and layer by layer with tracing on.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path vmbench/Cargo.toml -- \
//!     --workload vm_edittrans --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result as one JSON object;
//! the line before it carries provenance, sample counts and failures.

pub mod calib;
pub mod gen;
pub mod guest;
pub mod reconcile;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod vmwork;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["vm_edittrans", "serve_fork"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: u32,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Describes the first missing, unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(format!("unknown workload {value}")),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|s| (1..=3600).contains(s))
                            .ok_or("--seconds takes an integer in 1..=3600")?,
                    );
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    });
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }

    /// The measurement time as seconds.
    pub fn seconds_f64(&self) -> f64 {
        f64::from(self.seconds)
    }
}
