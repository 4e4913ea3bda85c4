//! Command-line entry point:
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary of every metric to standard error and,
//! as the last line of standard output, one JSON object with the untraced
//! (`--trace 0`) or per-layer (`--trace 1`) metrics, whose `correct` is
//! false when a correctness check failed.  Exits 2 on bad arguments.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{run, Config, Kind, WorkloadName, METRICS};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "perfbench: {problem}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = WorkloadName::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag needs a valid value");
    };
    let config = Config {
        workload,
        seed,
        seconds,
        trace,
        scale: 1.0,
        trace_out: Some(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}.tsv", workload.name())),
        ),
    };
    let report = run(&config);

    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench: {} seed {seed}: {} episodes, {} checks, {} failed, {threads} CPUs",
        workload.name(),
        report.episodes,
        report.attempted,
        report.failed
    );
    eprintln!(
        "perfbench: latency percentiles over {} query and {} insert calls, each its host-adjusted median over the repetitions",
        report.query_samples, report.insert_samples
    );
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    for def in METRICS {
        let shown = match def.kind {
            Kind::EndToEnd => true,
            // Host noise and answer quality are shown on every run.
            Kind::PerLayer => trace || def.name.starts_with("proc.") || !def.name.contains('.'),
        };
        if shown {
            eprintln!(
                "  {:<44} {:>16.6} {}",
                def.name,
                report.get(def.name),
                def.unit
            );
        }
    }
    if let (true, Some(path)) = (trace, &config.trace_out) {
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let kind = if trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    println!("{}", report.to_json(kind));
    ExitCode::SUCCESS
}
