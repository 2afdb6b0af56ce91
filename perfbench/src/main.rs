//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a host stamp line, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 after
//! printing if any reply was wrong, and 2 without printing a result if
//! the run could not be made.

use perfbench::drive::{workload, Tamper, WORKLOADS};
use perfbench::{run, Options};
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Options {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        tamper: Tamper::default(),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.host);
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} replies were wrong",
            outcome.mismatched, outcome.attempted
        );
        ExitCode::from(1)
    }
}
