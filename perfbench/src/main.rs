//! The repository benchmark: two workloads driven through the public entry
//! points (`Engine::decide_batch`, the `bqc` batch text path, and — in the
//! traced run — a live `bqc_serve::Server` on loopback), with end-to-end
//! metrics on untraced runs and per-layer metrics on a traced run.  See
//! `README.md`.
//!
//! ```text
//! bqc-perfbench --workload <gamma-cold|screen-mix> --seed <n> --seconds <s> --trace <0|1>
//! bqc-perfbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  A run whose correctness
//! gate finds a discrepancy prints no numbers and exits with status 1.

mod batch;
mod gate;
mod inputs;
mod layers;
mod report;
mod self_test;
mod serve;
mod trace;

use crate::inputs::{ServeMix, SERVE_MIX};
use crate::report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: bqc-perfbench --workload <gamma-cold|screen-mix> \
--seed <n> --seconds <s> --trace <0|1>\n       bqc-perfbench --self-test";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GammaCold,
    ScreenMix,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::GammaCold, Workload::ScreenMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GammaCold => "gamma-cold",
            Workload::ScreenMix => "screen-mix",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Engine workers, oracle threads and serve clients: `nproc`.
    pub threads: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// Input sizes.  `FULL` is the benchmark; `TINY` is the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Timed passes made even if the window has closed.
    pub min_passes: usize,
    pub gamma_questions: usize,
    pub gamma_trace: usize,
    pub screen_pairs: usize,
    pub serve_pool: usize,
    /// Requests in one serve pass.
    pub serve_requests: usize,
    pub serve_mix: ServeMix,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        setup_reps: 7,
        min_passes: 2,
        gamma_questions: 3_000,
        gamma_trace: 1_500,
        screen_pairs: 20_000,
        serve_pool: 2_000,
        serve_requests: 20_000,
        serve_mix: SERVE_MIX,
    };

    pub const TINY: Sizes = Sizes {
        setup_reps: 2,
        min_passes: 1,
        gamma_questions: 40,
        gamma_trace: 40,
        screen_pairs: 200,
        serve_pool: 60,
        serve_requests: 600,
        serve_mix: ServeMix {
            fresh_every: 50,
            malformed_every: 100,
            snapshot_every: 200,
        },
    };
}

/// A private scratch directory under the working directory, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create() -> Result<RunDir, String> {
        let path = Path::new(".perfbench-run").join(std::process::id().to_string());
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub fn run(args: &Args, sizes: &Sizes) -> Result<Report, String> {
    let run_dir = RunDir::create()?;
    match args.workload {
        Workload::GammaCold => batch::run(batch::Kind::Gamma, args, sizes, &run_dir),
        Workload::ScreenMix => batch::run(batch::Kind::Screen, args, sizes, &run_dir),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--self-test"] {
        return match self_test::run() {
            Ok(()) => {
                println!("self-test passed");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("self-test failed: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, &Sizes::FULL) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
