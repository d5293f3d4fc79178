//! `perfbench` — the repository's time-to-verdict benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare --parent <dir> --change <dir>
//! ```
//!
//! A run builds the workload's inputs from the seed, sets up several times
//! (reporting the median set-up time), measures for the given seconds,
//! checks every verdict against its known answer and prints, as its last
//! line, one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a separate traced run (`--trace 1`). See
//! `perfbench/README.md` for the definitions.

mod compare;
mod counter;
mod layers;
mod served;
mod stats;
mod ticker;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use muml_obs::json::Json;

use crate::layers::{Layers, PER_LAYER};
use crate::stats::{median, percentile, windowed_p99, P99_WINDOW};

/// The workloads, in report order.
pub const WORKLOADS: &[&str] = &[
    "railcab-serve",
    "railcab-durable",
    "counter-loop",
    "ticker-verify",
];

/// The end-to-end metrics with their units, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Length of one timed phase. A traced run measures an untraced and a
    /// traced phase of half the run each, so both kinds of run take the
    /// same time.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Scratch directory of this run inside the working directory
    /// (removed when the run ends).
    pub fn scratch(&self) -> PathBuf {
        PathBuf::from(".perfbench").join(format!("tmp-{}", std::process::id()))
    }

    /// Where the traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(".perfbench")
            .join("spans")
            .join(format!("{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// What one workload run measured.
pub struct Measured {
    /// Verdicts attempted and failed in the timed (untraced) phase. A
    /// failure is an error, timeout, refusal, cancellation, crash or any
    /// verdict that differs from its known answer.
    pub attempted: usize,
    pub failed: usize,
    /// Known-answer mismatches outside the timed phase (warm-up, shadow
    /// and direct calls); any makes the run incorrect.
    pub other_mismatches: usize,
    /// One entry per set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Time to verdict of every attempted verdict of the untraced phase,
    /// in ms (`INFINITY` for a failure).
    pub verdict_ms: Vec<f64>,
    /// Wall time of the untraced phase, in seconds.
    pub wall_s: f64,
    /// The workload's parameters (rates, cells, rungs).
    pub params: Vec<(String, Json)>,
    /// Extra figures printed before the result line.
    pub info: Vec<(String, Json)>,
    /// Per-layer figures of the traced phase (`--trace 1` only).
    pub layers: Layers,
}

impl Measured {
    pub fn new(params: Vec<(String, Json)>) -> Measured {
        Measured {
            attempted: 0,
            failed: 0,
            other_mismatches: 0,
            setup_s: Vec::new(),
            verdict_ms: Vec::new(),
            wall_s: 0.0,
            params,
            info: Vec::new(),
            layers: Layers::new(),
        }
    }

    /// The untraced median, for the trace-overhead ratio.
    pub fn p50(&self) -> f64 {
        percentile(&self.verdict_ms, 50.0).0
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench compare --parent <dir> --change <dir>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok()?,
            "--trace" => args.trace = value == "1",
            _ => return None,
        }
    }
    (WORKLOADS.contains(&args.workload.as_str()) && args.seconds > 0.0).then_some(args)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Object(vec![
        ("value".into(), Json::Float(value)),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let scratch = args.scratch();
    std::fs::create_dir_all(&scratch).expect("scratch directory is writable");
    let measured = match args.workload.as_str() {
        "railcab-serve" => served::run(&args, false),
        "railcab-durable" => served::run(&args, true),
        "counter-loop" => counter::run(&args),
        _ => ticker::run(&args),
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let mut params = vec![
        ("workload".to_owned(), Json::Str(args.workload.clone())),
        ("seed".to_owned(), Json::from_u64(args.seed)),
        ("seconds".to_owned(), Json::Float(args.seconds)),
        ("trace".to_owned(), Json::Bool(args.trace)),
    ];
    params.extend(measured.params.clone());
    println!("# params {}", Json::Object(params).encode());

    let verdicts = measured.attempted - measured.failed;
    let (p50, _) = percentile(&measured.verdict_ms, 50.0);
    let (whole_run_p99, beyond_p99) = percentile(&measured.verdict_ms, 99.0);
    let p99 = windowed_p99(&measured.verdict_ms);
    let mut info = vec![
        ("verdicts".to_owned(), Json::from_usize(verdicts)),
        (
            "failed_frac".to_owned(),
            Json::Float(measured.failed as f64 / measured.attempted.max(1) as f64),
        ),
        (
            "other_mismatches".to_owned(),
            Json::from_usize(measured.other_mismatches),
        ),
        (
            "samples_beyond_p99".to_owned(),
            Json::from_usize(beyond_p99),
        ),
        ("whole_run_p99_ms".to_owned(), Json::Float(whole_run_p99)),
        (
            "p99_windows".to_owned(),
            Json::from_usize((measured.verdict_ms.len() / P99_WINDOW).max(1)),
        ),
        (
            "setup_s_all".to_owned(),
            Json::Array(measured.setup_s.iter().map(|s| Json::Float(*s)).collect()),
        ),
    ];
    info.extend(measured.info.clone());
    println!("# info {}", Json::Object(info).encode());

    let metrics: Vec<(String, Json)> = if args.trace {
        let mut absent = Vec::new();
        let values = PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = measured.layers.get(name).copied().unwrap_or_else(|| {
                    absent.push(Json::Str((*name).into()));
                    0.0
                });
                ((*name).to_owned(), metric(value, unit))
            })
            .collect();
        println!("# not-on-path {}", Json::Array(absent).encode());
        values
    } else {
        let values = [
            median(&measured.setup_s),
            verdicts as f64 / measured.wall_s,
            p50,
            p99,
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| ((*name).to_owned(), metric(value, unit)))
            .collect()
    };
    let correct = measured.failed == 0 && measured.other_mismatches == 0;
    let result = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::from_usize(measured.attempted)),
        ("failed".into(), Json::from_usize(measured.failed)),
        ("metrics".into(), Json::Object(metrics)),
    ]);
    println!("{}", result.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
