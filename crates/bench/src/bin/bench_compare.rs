//! CLI for the CI bench-regression gate.
//!
//! Four subcommands:
//!
//! * `bench_compare collect <raw.jsonl>` — reads the JSON-lines records the
//!   benchmark harness appends under `BQC_BENCH_JSON` and prints the
//!   canonical medians document to stdout;
//! * `bench_compare median <doc.json>...` — prints the per-scenario median
//!   of several collected documents; this is the committed baseline
//!   (`BENCH_PR15.json`);
//! * `bench_compare readme <baseline.json> <earlier.json>` — prints the
//!   README's performance tables from the committed baseline, with the
//!   before-and-after columns taken from an earlier baseline;
//! * `bench_compare compare <baseline.json> <new.json> [--threshold 1.25]
//!   [--normalize] [--min-speedup SLOW_ID FAST_ID FACTOR]...` — fails
//!   (exit 1) when any baseline scenario regresses beyond the threshold,
//!   disappears from the new run, or a required speedup between two
//!   scenarios of the new run is not met.  `--normalize` divides every
//!   ratio by the run-wide geometric mean first (machine calibration), so a
//!   baseline recorded on a different machine stays comparable.
//!
//! See `scripts/bench_compare.sh` for the invocation CI uses.

use bqc_bench::report::{
    compare, median_of, parse_medians, readme_tables, render_baseline, SpeedupRequirement,
};
use std::process::ExitCode;

fn read_medians(path: &str) -> Result<bqc_bench::report::Medians, String> {
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))?;
    parse_medians(&text).map_err(|error| format!("{path}: {error}"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("collect") => {
            let [_, raw] = args.as_slice() else {
                return Err("usage: bench_compare collect <raw.jsonl>".into());
            };
            let medians = read_medians(raw)?;
            if medians.is_empty() {
                return Err(format!("{raw} contains no benchmark records"));
            }
            print!("{}", render_baseline(&medians));
            Ok(())
        }
        Some("median") => {
            if args.len() < 2 {
                return Err("usage: bench_compare median <doc.json>...".into());
            }
            let runs = args[1..]
                .iter()
                .map(|path| read_medians(path))
                .collect::<Result<Vec<_>, _>>()?;
            print!("{}", render_baseline(&median_of(&runs)?));
            Ok(())
        }
        Some("readme") => {
            let [_, current, before] = args.as_slice() else {
                return Err("usage: bench_compare readme <baseline.json> <earlier.json>".into());
            };
            let name = |path: &str| path.rsplit('/').next().unwrap_or(path).to_string();
            print!(
                "{}",
                readme_tables(
                    &name(current),
                    &read_medians(current)?,
                    &name(before),
                    &read_medians(before)?
                )?
            );
            Ok(())
        }
        Some("compare") => {
            let mut threshold = 1.25f64;
            let mut normalize = false;
            let mut speedups = Vec::new();
            let mut positional = Vec::new();
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--normalize" => normalize = true,
                    "--threshold" => {
                        let value = rest
                            .next()
                            .ok_or_else(|| "--threshold needs a value".to_string())?;
                        threshold = value
                            .parse()
                            .map_err(|_| format!("bad threshold {value:?}"))?;
                    }
                    "--min-speedup" => {
                        let (Some(slow), Some(fast), Some(factor)) =
                            (rest.next(), rest.next(), rest.next())
                        else {
                            return Err("--min-speedup needs SLOW_ID FAST_ID FACTOR".into());
                        };
                        speedups.push(SpeedupRequirement {
                            slow: slow.clone(),
                            fast: fast.clone(),
                            factor: factor
                                .parse()
                                .map_err(|_| format!("bad speedup factor {factor:?}"))?,
                        });
                    }
                    other => positional.push(other.to_string()),
                }
            }
            let [baseline_path, new_path] = positional.as_slice() else {
                return Err(
                    "usage: bench_compare compare <baseline.json> <new.json> [--threshold X] \
                     [--normalize] [--min-speedup SLOW FAST FACTOR]..."
                        .into(),
                );
            };
            let baseline = read_medians(baseline_path)?;
            let new = read_medians(new_path)?;
            let result = compare(&baseline, &new, threshold, &speedups, normalize);
            print!("{}", result.report);
            if result.failures.is_empty() {
                println!(
                    "bench gate: OK ({} scenarios within {:.0}%)",
                    baseline.len(),
                    (threshold - 1.0) * 100.0
                );
                Ok(())
            } else {
                for failure in &result.failures {
                    eprintln!("bench gate: {failure}");
                }
                Err(format!("{} failure(s)", result.failures.len()))
            }
        }
        _ => Err("usage: bench_compare <collect|median|compare|readme> ...".into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_compare: {message}");
            ExitCode::FAILURE
        }
    }
}
