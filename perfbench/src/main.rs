//! `activermt-perfbench`: the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cache_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one thread, one workload per invocation. The workload
//! is rebuilt from `--seed` in repetitions (set-up plus a fixed virtual
//! window) until `--seconds` of wall time have passed; the window is
//! costed at each slice's fastest repetition (see `common::Slices`).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` re-runs the
//! same repetitions through a traced event loop and prints the
//! per-layer metrics instead. The last line of standard output is one
//! JSON object; the exit code is non-zero when any outcome check
//! failed. See `perfbench/README.md`.

mod churn;
mod common;
mod fabric;
mod mirror;
mod star;

use common::{CountingAlloc, Outcome};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// The command line, validated.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Wall time the repetitions may fill.
    pub budget: Duration,
    /// Run the traced loop and report per-layer metrics.
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = [
    "cache_read",
    "monitor_write",
    "tenant_churn",
    "fabric_migrate",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds must be a whole number from 1 to 600")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "cache_read" => star::run(&args, star::Kind::CacheRead),
        "monitor_write" => star::run(&args, star::Kind::MonitorWrite),
        "tenant_churn" => churn::run(&args),
        "fabric_migrate" => fabric::run(&args),
        _ => unreachable!("validated in parse_args"),
    };
    outcome.print();
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
