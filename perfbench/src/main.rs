//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a report line (host fingerprint, latency tail percentile and
//! sample count, output digests) and then, as the last line, the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when an output check fails, 2 on bad arguments.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use srmac_perfbench::host::{Host, Reference};
use srmac_perfbench::metrics::{end_to_end, number, per_layer, result_line, string};
use srmac_perfbench::{run, Options, Scale, DEFAULT_SEED, WORKLOADS};

const USAGE: &str =
    "usage: srmac-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        work_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join(".work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload.clone_from(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    opts.work_dir = opts
        .work_dir
        .join(format!("{}-{}", opts.workload, std::process::id()));
    Ok(opts)
}

/// The workload-specific names of the generic end-to-end metrics.
fn aliases(workload: &str) -> [(&'static str, &'static str); 3] {
    if workload.starts_with("serve") {
        [
            ("latency_ms_p50", "serve_p50_ms"),
            ("latency_tail", "serve_tail_ms"),
            ("throughput_per_s", "serve_capacity_rps"),
        ]
    } else {
        [
            ("latency_ms_p50", "step_ms_p50"),
            ("latency_tail", "step_ms_tail"),
            ("throughput_per_s", "train_samples_per_s"),
        ]
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect(&std::env::current_dir().unwrap_or_default());
    let defs = if opts.trace {
        per_layer()
    } else {
        end_to_end()
    };
    for d in &defs {
        let v = outcome.metrics.get(&d.name).copied().unwrap_or(0.0);
        eprintln!("{:<32} {:>14.4} {}", d.name, v, d.unit);
    }
    if !opts.trace {
        for line in Reference::bundled().compare(&host, &opts.workload, &outcome.metrics) {
            eprintln!("reference: {line}");
        }
    }
    for p in &outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let names: Vec<String> = aliases(&opts.workload)
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), string(v)))
        .collect();
    let digests: Vec<String> = outcome.digests.iter().map(|d| string(d)).collect();
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {}, \"latency_tail\": {{\"percentile\": {}, \"n\": {}, \"value_ms\": {}}}, \
         \"eval_samples_per_s\": {}, \"digests\": [{}], \"failed_frac\": {}, \
         \"names\": {{{}}}}}}}",
        string(&opts.workload),
        opts.seed,
        number(opts.seconds),
        opts.trace,
        host.json(),
        number(outcome.tail.percentile),
        outcome.tail.n,
        number(outcome.tail.value),
        number(outcome.eval_samples_per_s),
        digests.join(", "),
        number(failed_frac),
        names.join(", ")
    );
    let values: BTreeMap<String, f64> = outcome.metrics;
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &defs,
            &values
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
