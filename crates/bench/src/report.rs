//! Benchmark median reports and the CI regression comparison.
//!
//! The vendored criterion harness appends one JSON-lines record
//! `{"id": "...", "median_ns": ...}` per benchmark when `BQC_BENCH_JSON` is
//! set.  This module parses those records (and the collected baseline
//! documents built from them), renders the canonical committed form
//! (`BENCH_PR15.json`), and implements the regression comparison that the CI
//! `bench` job runs through the `bench_compare` binary.
//!
//! Everything is hand-rolled string processing: the build environment has no
//! serde, and the format is fully under this repository's control.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median nanoseconds per scenario id, ordered by id.
pub type Medians = BTreeMap<String, f64>;

/// Parses every `{"id": ..., "median_ns": ...}` record in `text`.
///
/// Accepts both the raw JSON-lines stream written by the harness and the
/// collected document rendered by [`render_baseline`].  Duplicate ids keep
/// the **smallest** value: the gate script appends several runs of each
/// suite to one stream, and best-of-N medians is far more robust to
/// scheduler noise (which only ever inflates timings) than any single run —
/// on both sides of the comparison, since baselines are built from
/// collections made the same way (see [`median_of`]).  Returns an error
/// naming the first malformed record.
pub fn parse_medians(text: &str) -> Result<Medians, String> {
    let mut medians = Medians::new();
    let mut rest = text;
    while let Some(start) = rest.find("\"id\"") {
        rest = &rest[start + 4..];
        let open = rest
            .find('"')
            .ok_or_else(|| "unterminated id record".to_string())?;
        let mut id = String::new();
        let mut chars = rest[open + 1..].char_indices();
        let mut closed = None;
        while let Some((i, ch)) = chars.next() {
            match ch {
                '\\' => match chars.next() {
                    Some((_, escaped)) => id.push(escaped),
                    None => return Err("dangling escape in id".to_string()),
                },
                '"' => {
                    closed = Some(open + 1 + i);
                    break;
                }
                _ => id.push(ch),
            }
        }
        let closed = closed.ok_or_else(|| "unterminated id string".to_string())?;
        rest = &rest[closed + 1..];
        let key = rest
            .find("\"median_ns\"")
            .ok_or_else(|| format!("record {id:?} has no median_ns"))?;
        let after = rest[key + 11..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("record {id:?}: expected ':' after median_ns"))?
            .trim_start();
        let end = after
            .find(|ch: char| {
                !(ch.is_ascii_digit()
                    || ch == '.'
                    || ch == '-'
                    || ch == '+'
                    || ch == 'e'
                    || ch == 'E')
            })
            .unwrap_or(after.len());
        let value: f64 = after[..end]
            .parse()
            .map_err(|_| format!("record {id:?}: bad median_ns {:?}", &after[..end]))?;
        medians
            .entry(id)
            .and_modify(|best| *best = best.min(value))
            .or_insert(value);
        rest = &after[end..];
    }
    Ok(medians)
}

/// Renders the canonical committed baseline document.
pub fn render_baseline(medians: &Medians) -> String {
    let mut out = String::from("{\n  \"schema\": \"bqc-bench-medians-v1\",\n  \"scenarios\": [\n");
    for (i, (id, median)) in medians.iter().enumerate() {
        let comma = if i + 1 == medians.len() { "" } else { "," };
        let escaped: String = id
            .chars()
            .flat_map(|ch| match ch {
                '"' | '\\' => vec!['\\', ch],
                _ => vec![ch],
            })
            .collect();
        let _ = writeln!(
            out,
            "    {{\"id\": \"{escaped}\", \"median_ns\": {median:.1}}}{comma}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Per-scenario median across several collected documents.
///
/// Each collected document is one draw of the statistic the gate compares
/// (best of two runs per suite).  A baseline taken from a single draw keeps
/// that draw's luck: a scenario that happened to read low becomes a
/// reference later runs of the same code miss by more than the threshold.
/// The median of several draws is the typical value instead.  Every
/// document must cover the same scenario ids.
pub fn median_of(runs: &[Medians]) -> Result<Medians, String> {
    let (first, rest) = runs
        .split_first()
        .ok_or_else(|| "no documents to combine".to_string())?;
    if let Some(i) = rest.iter().position(|run| run.keys().ne(first.keys())) {
        return Err(format!(
            "document {} covers different scenarios than document 1",
            i + 2
        ));
    }
    let mut combined = Medians::new();
    for id in first.keys() {
        let mut values: Vec<f64> = runs.iter().map(|run| run[id]).collect();
        values.sort_by(f64::total_cmp);
        let mid = values.len() / 2;
        let median = if values.len() % 2 == 1 {
            values[mid]
        } else {
            (values[mid - 1] + values[mid]) / 2.0
        };
        combined.insert(id.clone(), median);
    }
    Ok(combined)
}

/// A required speedup between two scenarios of the *new* run: the scenario
/// `slow` must take at least `factor` times as long as `fast`.
#[derive(Clone, Debug)]
pub struct SpeedupRequirement {
    /// Id of the scenario expected to be slower.
    pub slow: String,
    /// Id of the scenario expected to be faster.
    pub fast: String,
    /// Minimum ratio `median(slow) / median(fast)`.
    pub factor: f64,
}

/// Outcome of [`compare`]: the rendered report plus pass/fail.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Human-readable per-scenario table and verdicts.
    pub report: String,
    /// Failure descriptions; empty iff the gate passes.
    pub failures: Vec<String>,
}

/// Compares a new run against the committed baseline.
///
/// A scenario regresses when `new / baseline > threshold` (e.g. 1.25 for the
/// CI gate's 25%).  Scenarios present in the baseline but missing from the
/// new run fail the gate — losing coverage silently is exactly what the gate
/// exists to prevent — while scenarios only present in the new run are
/// reported but do not fail (the baseline is updated by committing the new
/// file).  Each `SpeedupRequirement` is checked against the new medians.
///
/// With `normalize` set, every per-scenario ratio is divided by the
/// geometric mean of all ratios before the threshold is applied.  This is
/// the **machine calibration** the CI gate relies on: a baseline recorded on
/// one machine and a run on a uniformly faster or slower one produce the
/// same shifted ratio everywhere, which the geomean cancels, while a
/// regression localized to some scenarios still sticks out against the
/// rest.  The trade-off — a change slowing *every* scenario by the same
/// factor is invisible to the normalized gate — is covered by the
/// machine-independent `SpeedupRequirement` floors, which always compare
/// scenarios of the same run.
pub fn compare(
    baseline: &Medians,
    new: &Medians,
    threshold: f64,
    speedups: &[SpeedupRequirement],
    normalize: bool,
) -> Comparison {
    let mut report = String::new();
    let mut failures = Vec::new();
    let scale = if normalize {
        let ratios: Vec<f64> = baseline
            .iter()
            .filter_map(|(id, base)| new.get(id).map(|current| current / base))
            .collect();
        if ratios.is_empty() {
            1.0
        } else {
            let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
            let _ = writeln!(
                report,
                "machine calibration: new run is {geomean:.3}x the baseline overall; \
                 per-scenario ratios are normalized by this factor"
            );
            geomean
        }
    } else {
        1.0
    };
    let _ = writeln!(
        report,
        "{:<55} {:>12} {:>12} {:>8}",
        "scenario", "baseline", "new", "ratio"
    );
    for (id, base) in baseline {
        match new.get(id) {
            None => {
                failures.push(format!("scenario {id:?} missing from the new run"));
                let _ = writeln!(report, "{id:<55} {base:>12.1} {:>12} {:>8}", "MISSING", "-");
            }
            Some(current) => {
                let ratio = (current / base) / scale;
                let verdict = if ratio > threshold { "  REGRESSED" } else { "" };
                let _ = writeln!(
                    report,
                    "{id:<55} {base:>12.1} {current:>12.1} {ratio:>8.3}{verdict}"
                );
                if ratio > threshold {
                    failures.push(format!(
                        "scenario {id:?} regressed {:.1}% (> {:.0}% allowed)",
                        (ratio - 1.0) * 100.0,
                        (threshold - 1.0) * 100.0
                    ));
                }
            }
        }
    }
    for id in new.keys() {
        if !baseline.contains_key(id) {
            let _ = writeln!(
                report,
                "{id:<55} {:>12} {:>12.1} {:>8}",
                "(new)", new[id], "-"
            );
        }
    }
    for requirement in speedups {
        let (Some(slow), Some(fast)) = (new.get(&requirement.slow), new.get(&requirement.fast))
        else {
            failures.push(format!(
                "speedup check needs both {:?} and {:?} in the new run",
                requirement.slow, requirement.fast
            ));
            continue;
        };
        let ratio = slow / fast;
        let _ = writeln!(
            report,
            "speedup {} / {} = {ratio:.1}x (required >= {:.1}x)",
            requirement.slow, requirement.fast, requirement.factor
        );
        if ratio < requirement.factor {
            failures.push(format!(
                "speedup {} / {} is {ratio:.1}x, below the required {:.1}x",
                requirement.slow, requirement.fast, requirement.factor
            ));
        }
    }
    Comparison { report, failures }
}

/// One cell of a README performance table.
enum Cell {
    /// A median of the current baseline.
    Now(&'static str),
    /// `before[id] / current[id]`: the speedup since the earlier baseline.
    Since(&'static str),
    /// The earlier baseline's median.
    Before(&'static str),
    /// `current[slow] / current[fast]`.
    Ratio(&'static str, &'static str),
    /// Fixed text.
    Text(&'static str),
}

/// A README table: header cells, then labelled rows.
type Table = (Vec<String>, Vec<(&'static str, Vec<Cell>)>);

/// The README's performance tables, rendered as Markdown from the committed
/// baseline `current` (file name `current_name`) and, for the
/// before-and-after columns, the earlier baseline `before`.  Errors name the
/// first scenario missing from either document.
pub fn readme_tables(
    current_name: &str,
    current: &Medians,
    before_name: &str,
    before: &Medians,
) -> Result<String, String> {
    use Cell::*;
    let tables: [Table; 4] = [
        (
            vec![
                "Scenario".into(),
                "dense tableau (oracle)".into(),
                "sparse revised simplex".into(),
                "speedup".into(),
            ],
            vec![
                (
                    "`Γ_3` feasibility",
                    vec![
                        Now("lp/shannon_cone_feasibility/dense/3"),
                        Now("lp/shannon_cone_feasibility/revised/3"),
                        Ratio(
                            "lp/shannon_cone_feasibility/dense/3",
                            "lp/shannon_cone_feasibility/revised/3",
                        ),
                    ],
                ),
                (
                    "`Γ_4` feasibility",
                    vec![
                        Now("lp/shannon_cone_feasibility/dense/4"),
                        Now("lp/shannon_cone_feasibility/revised/4"),
                        Ratio(
                            "lp/shannon_cone_feasibility/dense/4",
                            "lp/shannon_cone_feasibility/revised/4",
                        ),
                    ],
                ),
                (
                    "`Γ_5` feasibility",
                    vec![
                        Now("lp/shannon_cone_feasibility/dense/5"),
                        Now("lp/shannon_cone_feasibility/revised/5"),
                        Ratio(
                            "lp/shannon_cone_feasibility/dense/5",
                            "lp/shannon_cone_feasibility/revised/5",
                        ),
                    ],
                ),
                (
                    "`Γ_6` feasibility",
                    vec![
                        Text("(minutes — excluded)"),
                        Now("lp/shannon_cone_feasibility/revised/6"),
                        Text("—"),
                    ],
                ),
            ],
        ),
        (
            vec![
                "Scenario".into(),
                format!("cold check (`{current_name}`)"),
                format!("before (`{before_name}`)"),
                "speedup".into(),
            ],
            [
                ("`Γ_6` validity", "lp/gamma_validity/valid/6"),
                ("`Γ_6` refutation", "lp/gamma_validity/refute/6"),
                ("`Γ_7` validity", "lp/gamma_validity/valid/7"),
                ("`Γ_7` refutation", "lp/gamma_validity/refute/7"),
            ]
            .into_iter()
            .map(|(label, id)| (label, vec![Now(id), Before(id), Since(id)]))
            .collect(),
        ),
        (
            vec![
                "Scenario".into(),
                "LP-only / legacy path".into(),
                "staged pipeline".into(),
                "ratio".into(),
            ],
            vec![
                (
                    "refutable, m=2 blocks (`Γ_4`)",
                    vec![
                        Now("pipeline/refutable/lp_only/2"),
                        Now("pipeline/refutable/refuter/2"),
                        Ratio(
                            "pipeline/refutable/lp_only/2",
                            "pipeline/refutable/refuter/2",
                        ),
                    ],
                ),
                (
                    "refutable, m=3 blocks (`Γ_6`)",
                    vec![
                        Now("pipeline/refutable/lp_only/3"),
                        Now("pipeline/refutable/refuter/3"),
                        Ratio(
                            "pipeline/refutable/lp_only/3",
                            "pipeline/refutable/refuter/3",
                        ),
                    ],
                ),
                (
                    "LP-bound cycle₆ ⊑ path₅ (`Γ_6`)",
                    vec![
                        Now("pipeline/overhead/legacy/6"),
                        Now("pipeline/overhead/pipeline/6"),
                        Ratio("pipeline/overhead/legacy/6", "pipeline/overhead/pipeline/6"),
                    ],
                ),
                (
                    "headed triangle vs star, witness ladders to 1,024 rows",
                    vec![Text("—"), Now("pipeline/witness/ladders/1024"), Text("—")],
                ),
            ],
        ),
        (
            vec!["Scenario".into(), "time".into(), "vs. cold".into()],
            vec![
                (
                    "cold engine, full workload",
                    vec![Now("serve/restart/cold/4"), Text("—")],
                ),
                (
                    "snapshot-restored engine, same workload",
                    vec![
                        Now("serve/restart/restored/4"),
                        Ratio("serve/restart/cold/4", "serve/restart/restored/4"),
                    ],
                ),
                (
                    "snapshot encode, 4096 entries",
                    vec![Now("serve/snapshot/encode/4096"), Text("—")],
                ),
                (
                    "snapshot decode, 4096 entries",
                    vec![Now("serve/snapshot/decode/4096"), Text("—")],
                ),
                (
                    "daemon round trip, cache-hit request over TCP",
                    vec![Now("serve/rtt/cached/1"), Text("—")],
                ),
            ],
        ),
    ];
    let get = |doc: &Medians, name: &str, id: &str| {
        doc.get(id)
            .copied()
            .ok_or_else(|| format!("{name} has no scenario {id}"))
    };
    let mut out = String::new();
    for (header, rows) in tables {
        let _ = writeln!(out, "| {} |", header.join(" | "));
        let _ = writeln!(out, "|{}", "---|".repeat(header.len()));
        for (label, cells) in rows {
            let mut line = format!("| {label} |");
            for cell in cells {
                let text = match cell {
                    Now(id) => format_ns(get(current, current_name, id)?),
                    Before(id) => format_ns(get(before, before_name, id)?),
                    Since(id) => format_ratio(
                        get(before, before_name, id)? / get(current, current_name, id)?,
                    ),
                    Ratio(slow, fast) => format_ratio(
                        get(current, current_name, slow)? / get(current, current_name, fast)?,
                    ),
                    Text(text) => text.to_string(),
                };
                let _ = write!(line, " {text} |");
            }
            let _ = writeln!(out, "{line}");
        }
        out.push('\n');
    }
    Ok(out)
}

/// Nanoseconds to three significant digits in the largest unit ≥ 1.
fn format_ns(ns: f64) -> String {
    let (value, unit) = [(1e9, "s"), (1e6, "ms"), (1e3, "µs")]
        .into_iter()
        .find(|(scale, _)| ns >= *scale)
        .map_or((ns, "ns"), |(scale, unit)| (ns / scale, unit));
    let decimals = if value >= 100.0 {
        0
    } else if value >= 10.0 {
        1
    } else {
        2
    };
    format!("{value:.decimals$} {unit}")
}

/// A speedup: two decimals below 10x, whole with thousands separators above.
fn format_ratio(ratio: f64) -> String {
    if ratio < 10.0 {
        return format!("{ratio:.2}x");
    }
    let digits = format!("{ratio:.0}");
    let mut grouped = String::new();
    for (i, digit) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            grouped.push(',');
        }
        grouped.push(digit);
    }
    format!("{grouped}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medians(pairs: &[(&str, f64)]) -> Medians {
        pairs.iter().map(|(id, v)| (id.to_string(), *v)).collect()
    }

    #[test]
    fn parses_jsonl_and_rendered_documents() {
        let raw = "{\"id\": \"lp/a/1\", \"median_ns\": 120.5}\n{\"id\": \"lp/b \\\"x\\\"\", \"median_ns\": 3e2}\n{\"id\": \"lp/a/1\", \"median_ns\": 110.0}\n{\"id\": \"lp/a/1\", \"median_ns\": 140.0}\n";
        let parsed = parse_medians(raw).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["lp/a/1"], 110.0); // best (smallest) record wins
        assert_eq!(parsed["lp/b \"x\""], 300.0);
        let rendered = render_baseline(&parsed);
        assert!(rendered.contains("bqc-bench-medians-v1"));
        let reparsed = parse_medians(&rendered).unwrap();
        assert_eq!(parsed, reparsed);
    }

    #[test]
    fn readme_tables_format_times_and_ratios() {
        assert_eq!(format_ns(348_666.0), "349 µs");
        assert_eq!(format_ns(10_574.2), "10.6 µs");
        assert_eq!(format_ns(7_077_135.1), "7.08 ms");
        assert_eq!(format_ns(2.5e9), "2.50 s");
        assert_eq!(format_ns(812.0), "812 ns");
        assert_eq!(format_ratio(2.234), "2.23x");
        assert_eq!(format_ratio(1343.4), "1,343x");
        assert_eq!(format_ratio(33.0), "33x");
        // Every scenario a table names must exist.
        let err = readme_tables("NOW.json", &Medians::new(), "OLD.json", &Medians::new());
        assert!(err.unwrap_err().contains("NOW.json has no scenario"));
    }

    #[test]
    fn parse_rejects_malformed_records() {
        assert!(parse_medians("{\"id\": \"x\"}").is_err());
        assert!(parse_medians("{\"id\": \"x\", \"median_ns\": oops}").is_err());
    }

    #[test]
    fn median_of_takes_the_middle_draw_per_scenario() {
        let runs = [
            medians(&[("a", 100.0), ("b", 10.0)]),
            medians(&[("a", 70.0), ("b", 30.0)]),
            medians(&[("a", 90.0), ("b", 20.0)]),
        ];
        let combined = median_of(&runs).unwrap();
        assert_eq!(combined, medians(&[("a", 90.0), ("b", 20.0)]));
        assert_eq!(
            median_of(&runs[..2]).unwrap(),
            medians(&[("a", 85.0), ("b", 20.0)])
        );
        assert!(median_of(&[]).is_err());
        let missing = [medians(&[("a", 1.0), ("b", 1.0)]), medians(&[("a", 1.0)])];
        assert!(median_of(&missing).is_err());
    }

    #[test]
    fn regression_detection_and_thresholds() {
        let base = medians(&[("a", 100.0), ("b", 100.0), ("gone", 50.0)]);
        let new = medians(&[("a", 120.0), ("b", 130.0), ("extra", 10.0)]);
        let result = compare(&base, &new, 1.25, &[], false);
        // a: +20% passes, b: +30% fails, gone: missing fails, extra: warns.
        assert_eq!(result.failures.len(), 2);
        assert!(result.failures.iter().any(|f| f.contains("\"b\"")));
        assert!(result.failures.iter().any(|f| f.contains("\"gone\"")));
        assert!(result.report.contains("(new)"));

        let ok = compare(
            &medians(&[("a", 100.0)]),
            &medians(&[("a", 124.0)]),
            1.25,
            &[],
            false,
        );
        assert!(ok.failures.is_empty());
    }

    #[test]
    fn normalization_cancels_uniform_machine_shifts_but_not_local_regressions() {
        let base = medians(&[("a", 100.0), ("b", 200.0), ("c", 50.0), ("d", 1000.0)]);
        // A uniformly 2x slower machine: raw ratios all 2.0, which would fail
        // every scenario un-normalized but must pass with calibration.
        let slower = medians(&[("a", 200.0), ("b", 400.0), ("c", 100.0), ("d", 2000.0)]);
        let raw = compare(&base, &slower, 1.25, &[], false);
        assert_eq!(raw.failures.len(), 4);
        let calibrated = compare(&base, &slower, 1.25, &[], true);
        assert!(calibrated.failures.is_empty(), "{:?}", calibrated.failures);
        assert!(calibrated.report.contains("machine calibration"));

        // The same 2x machine with one genuinely regressed scenario: only
        // that scenario fails after calibration.
        let regressed = medians(&[("a", 200.0), ("b", 400.0), ("c", 100.0), ("d", 8000.0)]);
        let result = compare(&base, &regressed, 1.25, &[], true);
        assert_eq!(result.failures.len(), 1);
        assert!(result.failures[0].contains("\"d\""));
    }

    #[test]
    fn speedup_requirements_are_enforced() {
        let base = medians(&[("slow", 1000.0), ("fast", 100.0)]);
        let new = medians(&[("slow", 1000.0), ("fast", 100.0)]);
        let ok = compare(
            &base,
            &new,
            1.25,
            &[SpeedupRequirement {
                slow: "slow".into(),
                fast: "fast".into(),
                factor: 5.0,
            }],
            false,
        );
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        let bad = compare(
            &base,
            &new,
            1.25,
            &[SpeedupRequirement {
                slow: "slow".into(),
                fast: "fast".into(),
                factor: 50.0,
            }],
            false,
        );
        assert_eq!(bad.failures.len(), 1);
    }
}
