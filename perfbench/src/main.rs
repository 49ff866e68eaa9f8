//! End-to-end benchmark of the AutoHet reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search_vgg16|serve_day|serve_faults|eval_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs fixed rounds of seeded work until `--seconds` have
//! passed (at least the rounds the quality figures need), checks the
//! simulated outputs, and prints one `metric` line per figure, a `digest`
//! line over all simulated outputs, and as its last line a JSON object
//! with the gated metrics. `--trace 1` runs the workload once untraced
//! and once with a timer around every call the benchmark makes into a
//! layer, and reports the per-layer split instead. See `README.md`.

mod bench;
mod search;
mod serve;
mod sweep;

use bench::{Bench, Opts};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                bench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut b = Bench::new(&opts);
    match opts.workload.as_str() {
        "search_vgg16" => search::run(&mut b),
        "serve_day" => serve::run_day(&mut b),
        "serve_faults" => serve::run_faults(&mut b),
        "eval_sweep" => sweep::run(&mut b),
        other => unreachable!("workload {other} passed validation"),
    }
    b.finish();
    ExitCode::SUCCESS
}
