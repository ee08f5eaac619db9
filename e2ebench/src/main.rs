//! `e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all of them in turn) against an in-process
//! server on a loopback port. Prints a human-readable report, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 1 if any correctness check failed, 2 on bad
//! arguments or a run that could not be set up.

use std::process::ExitCode;

use e2ebench::metrics::{self, Value};
use e2ebench::run::{self, Options};
use e2ebench::workload::Workload;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: e2ebench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                    Workload::ALL.map(Workload::name).join("|")
                ))
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let single = args.workloads.len() == 1;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut values: Vec<Value> = Vec::new();
    for w in args.workloads {
        let out = match run::run(&Options::new(w, args.seed, args.seconds, args.trace)) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{}: run failed: {e}", w.name());
                return ExitCode::from(2);
            }
        };
        for line in &out.report {
            println!("{line}");
        }
        correct &= out.correct;
        attempted += out.attempted;
        failed += out.failed;
        values.extend(out.values.into_iter().map(|mut v| {
            if !single {
                v.name = format!("{}.{}", w.name(), v.name);
            }
            v
        }));
    }
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
