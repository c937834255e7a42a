//! End-to-end CATS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path catsbench/Cargo.toml -- \
//!     --workload <e1_tcp_serial|e2_tcp_load|t1_sim_churn> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload, checks every operation's result (per-key
//! linearizability, value integrity, no silent loss), and prints as the
//! last line of standard output one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! end to end; with `--trace 1` they are per layer, observed through port
//! taps and the layers' public counters. Exits with 0 for a correct run, 1
//! when a correctness check failed and 2 for bad arguments. See `NOTES.md`.

mod sim;
mod stats;
mod tcp;
mod trace;

use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("catsbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "catsbench: workload {} seed {} for {} s, trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let (steal0, total0) = stats::steal_ticks();
    let report = match args.workload.as_str() {
        "e1_tcp_serial" => tcp::run(tcp::Shape::Serial, &args),
        "e2_tcp_load" => tcp::run(tcp::Shape::Load, &args),
        "t1_sim_churn" => sim::run(&args),
        other => {
            eprintln!("catsbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let (steal1, total1) = stats::steal_ticks();
    println!(
        "cpu time stolen by the hypervisor during the run: {:.2}%",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    );
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
