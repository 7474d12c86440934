//! End-to-end XQuery-update benchmark with per-layer attribution.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload synth-update --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client in one process drives a closed loop of XQuery statements
//! through the repository's public API (`statement_cost_us = 0`). With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it drives
//! the same operations stage by stage through the public functions that
//! `execute_xquery`/`query_xml` chain, and prints the per-layer metrics.
//! The last line of standard output is one JSON object. The run exits
//! nonzero when an affected count, the in-memory oracle, the durability
//! check or the count-determinism check disagrees.

mod calib;
mod layers;
mod run;
mod workload;

use std::process::ExitCode;
use workload::Name;

const USAGE: &str =
    "usage: xmlup-e2ebench --workload synth-update|synth-query|dblp-durable --seed N --seconds S --trace 0|1";

pub struct Args {
    pub workload: Name,
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
        match flag.as_str() {
            "--workload" => {
                workload = Some(Name::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                for p in &report.problems {
                    eprintln!("check failed: {p}");
                }
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::from(1)
        }
    }
}
