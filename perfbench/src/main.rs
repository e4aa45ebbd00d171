//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Progress,
//! the run fingerprint, workload sizes and any failed check go to
//! standard error. Exit status 2 means bad arguments.

use std::process::ExitCode;

use perfbench::corpus::Scale;
use perfbench::workloads::{PassConfig, Workload, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <batch-10k|serve-ingest-3k> --seed <n> --seconds <s> \
     --trace <0|1>";

fn parse() -> Result<(String, PassConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed: u64 = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let cfg = PassConfig { scale: Scale::full(), seed, seconds, traced, corrupt_reference: false };
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let (name, cfg) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::parse(&name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown workload {name}; one of {names:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    let fingerprint = perfbench::fingerprint::line(&name, cfg.seed, cfg.seconds, cfg.traced);
    eprintln!("{fingerprint}");
    let (outcome, notes) = perfbench::run(workload, &cfg);
    for line in notes {
        eprintln!("{line}");
    }
    println!("{fingerprint}");
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
