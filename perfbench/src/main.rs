//! The repository benchmark: fleet throughput and adaptation latency on
//! three workloads, with a traced per-layer run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-mixed|fleet-uniform|adapt-stream|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, writes the run's record to
//! `perfbench/results/`, and ends its standard output with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md`.

mod adapt;
mod fleet;
mod metrics;
mod probe;
mod stats;

use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 3] = ["fleet-mixed", "fleet-uniform", "adapt-stream"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?} or all"));
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace })
}

fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
}

fn run_one(args: &Args) -> ExitCode {
    let mut outcome: Outcome = match args.workload.as_str() {
        "fleet-mixed" => fleet::run(fleet::Shape::Mixed, args.seed, args.seconds, args.trace),
        "fleet-uniform" => fleet::run(fleet::Shape::Uniform, args.seed, args.seconds, args.trace),
        "adapt-stream" => {
            adapt::run(args.seed, args.seconds, args.trace, &results_dir().join("work"))
        }
        _ => unreachable!("workload validated by parse_args"),
    };
    let defs: &[MetricDef] = if args.trace { PER_LAYER } else { END_TO_END };
    outcome.require(defs);

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for def in defs {
        let value = outcome.values.get(def.name).copied().unwrap_or(f64::NAN);
        let better = if def.higher_is_better { "higher is better" } else { "lower is better" };
        println!("  {:<32} {:>16.6} {:<14} ({better})", def.name, value, def.unit);
    }
    println!(
        "  attempted {} failed {} -> {}",
        outcome.attempted,
        outcome.failed,
        if outcome.correct() { "outputs correct" } else { "OUTPUT CHECKS FAILED" }
    );
    for problem in &outcome.problems {
        println!("  problem: {problem}");
    }

    let dir = results_dir();
    let path =
        dir.join(format!("{}-seed{}-trace{}.json", args.workload, args.seed, u8::from(args.trace)));
    let record = outcome.record(&args.workload, args.seed, args.seconds, args.trace, defs);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, record)) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    println!("{}", outcome.result_line(defs));
    ExitCode::SUCCESS
}

/// Runs every workload in its own process (so peak memory stays per
/// workload) and prints a combined result line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut lines = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let output = match output {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("error: {workload} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: running {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        let mut body: Vec<&str> = stdout.lines().collect();
        let last = body.pop().unwrap_or_default().to_string();
        for line in body {
            println!("{line}");
        }
        lines.push((workload, last));
    }
    let field = |line: &str, key: &str| -> String {
        let at = line.find(&format!("\"{key}\": ")).map(|i| i + key.len() + 4).unwrap_or(0);
        line[at..].split([',', '}']).next().unwrap_or("").trim().to_string()
    };
    let correct = lines.iter().all(|(_, l)| field(l, "correct") == "true");
    let sum =
        |key: &str| -> u64 { lines.iter().map(|(_, l)| field(l, key).parse().unwrap_or(0)).sum() };
    let workloads: Vec<String> =
        lines.iter().map(|(w, l)| format!("{}: {l}", metrics::json_string(w))).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"workloads\": {{{}}}}}",
        sum("attempted"),
        sum("failed"),
        workloads.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
