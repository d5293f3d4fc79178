//! Per-layer metrics: the table of names, the roll-up of the session
//! statistics the program already reports, and the direct calls that time
//! one crate's public functions on a workload's own data.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use muml_automata::Universe;
use muml_core::IntegrationStats;
use muml_fleet::{JobContext, JobRegistry, JobRequest};
use muml_legacy::{fault_matrix, inject};
use muml_obs::json::parse;
use muml_serve::{Journal, JournalRecord, Priority, VerdictRecord};
use muml_store::{ComponentSignature, Store, StoreLookup};

use crate::stats::median;

/// Every per-layer metric with its unit, in report order. A layer that is
/// not on a workload's path reports 0 there (and is listed as such). The
/// served workloads add the daemon-only figures to `# info`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.codec_us", "us"),
    ("fleet.busy_frac", "ratio"),
    ("core.iterations_per_verdict", "count"),
    ("core.learn_ms_per_verdict", "ms"),
    ("core.unbooked_ms_per_verdict", "ms"),
    ("automata.compose_ns_per_state", "ns"),
    ("automata.compose_ms_per_verdict", "ms"),
    ("automata.incremental_frac", "ratio"),
    ("logic.check_ns_per_state", "ns"),
    ("logic.check_ms_per_verdict", "ms"),
    ("logic.warm_states_frac", "ratio"),
    ("logic.fused_ms", "ms"),
    ("logic.fused_expanded_frac", "ratio"),
    ("legacy.probe_ms_per_verdict", "ms"),
    ("legacy.test_ms_per_verdict", "ms"),
    ("legacy.cache_hit_frac", "ratio"),
    ("legacy.saved_steps_frac", "ratio"),
    ("legacy.rig_steps_per_verdict", "steps"),
    ("store.lookup_us_p50", "us"),
    ("store.save_us_p50", "us"),
    ("journal.append_us_p50", "us"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Per-layer values measured by one traced run.
pub type Layers = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Weighted sums of the session statistics of a set of verdicts.
#[derive(Default)]
pub struct LoopTotals {
    verdicts: f64,
    iterations: f64,
    learn_ns: f64,
    probe_ns: f64,
    test_ns: f64,
    compose_ns: f64,
    check_ns: f64,
    unbooked_ns: f64,
    incremental: f64,
    cold: f64,
    warm_states: f64,
    labeled_states: f64,
    cache_hits: f64,
    tests: f64,
    saved_steps: f64,
    driven_steps: f64,
}

impl LoopTotals {
    /// Adds one verdict's statistics, counted `weight` times; `job_ns` is
    /// the job's wall time, of which the five phase timers book a part.
    pub fn add(&mut self, stats: &IntegrationStats, job_ns: u64, weight: f64) {
        let t = &stats.timings;
        self.verdicts += weight;
        self.iterations += weight * stats.iterations as f64;
        self.learn_ns += weight * t.learn_ns as f64;
        self.probe_ns += weight * t.probe_ns as f64;
        self.test_ns += weight * t.test_ns as f64;
        self.compose_ns += weight * t.compose_ns as f64;
        self.check_ns += weight * t.check_ns as f64;
        self.unbooked_ns += weight * job_ns.saturating_sub(t.total_ns()) as f64;
        self.incremental += weight * stats.recompose_incremental as f64;
        self.cold += weight * stats.recompose_cold as f64;
        self.warm_states += weight * stats.checker_warm_states as f64;
        self.labeled_states += weight * stats.checker_labeled_states as f64;
        self.cache_hits += weight * stats.trace_cache_hits as f64;
        self.tests += weight * stats.tests_executed as f64;
        self.saved_steps += weight * stats.trace_cache_saved_steps as f64;
        self.driven_steps += weight * stats.driven_steps as f64;
    }

    /// Writes the core, automata, logic and legacy figures these
    /// statistics define.
    pub fn write(&self, layers: &mut Layers) {
        let per_verdict_ms = |ns: f64| ratio(ns / 1e6, self.verdicts);
        layers.insert(
            "core.iterations_per_verdict",
            ratio(self.iterations, self.verdicts),
        );
        layers.insert("core.learn_ms_per_verdict", per_verdict_ms(self.learn_ns));
        layers.insert(
            "core.unbooked_ms_per_verdict",
            per_verdict_ms(self.unbooked_ns),
        );
        layers.insert(
            "automata.compose_ms_per_verdict",
            per_verdict_ms(self.compose_ns),
        );
        layers.insert(
            "automata.incremental_frac",
            ratio(self.incremental, self.incremental + self.cold),
        );
        layers.insert("logic.check_ms_per_verdict", per_verdict_ms(self.check_ns));
        layers.insert(
            "logic.warm_states_frac",
            ratio(self.warm_states, self.labeled_states),
        );
        layers.insert("legacy.probe_ms_per_verdict", per_verdict_ms(self.probe_ns));
        layers.insert("legacy.test_ms_per_verdict", per_verdict_ms(self.test_ns));
        layers.insert("legacy.cache_hit_frac", ratio(self.cache_hits, self.tests));
        layers.insert(
            "legacy.saved_steps_frac",
            ratio(self.saved_steps, self.saved_steps + self.driven_steps),
        );
        layers.insert(
            "legacy.rig_steps_per_verdict",
            ratio(self.driven_steps, self.verdicts),
        );
    }
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// Median microseconds of one job's wire codec work: a `JobRequest` and a
/// `VerdictRecord`, each encoded to text, parsed and decoded.
pub fn codec_us(requests: &[JobRequest], records: &[VerdictRecord]) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..20 {
        for (request, record) in requests.iter().zip(records.iter().cycle()) {
            let start = Instant::now();
            let text = request.to_json().encode();
            let back = JobRequest::from_json(&parse(&text).expect("request text parses"))
                .expect("request decodes");
            let text = record.to_json().encode();
            let record_back = VerdictRecord::from_json(&parse(&text).expect("verdict text parses"))
                .expect("verdict decodes");
            samples.push(micros(start));
            assert_eq!(&back, request, "request codec round trip");
            assert_eq!(&record_back, record, "verdict codec round trip");
        }
    }
    median(&samples)
}

/// One distinct campaign cell re-run in process, outside the daemon.
pub struct ShadowCell {
    pub request: JobRequest,
    pub stats: IntegrationStats,
    pub job_ns: u64,
    pub outcome: String,
}

/// Runs every cell once through the daemon's own registry in this thread,
/// with the given job context (a shared store or none).
pub fn shadow_cells(
    registry: &JobRegistry,
    cells: &[JobRequest],
    context: &JobContext,
) -> Vec<ShadowCell> {
    cells
        .iter()
        .map(|request| {
            let job = registry.resolve(request).expect("campaign cells resolve");
            let start = Instant::now();
            let (outcome, _, stats) = muml_fleet::classify((job.work)(context));
            ShadowCell {
                request: request.clone(),
                stats,
                job_ns: start.elapsed().as_nanos() as u64,
                outcome: outcome.name().to_owned(),
            }
        })
        .collect()
}

/// The content address the RailCab resolver signs a cell's component
/// with (after fault injection, as the resolver does).
pub fn railcab_signature(request: &JobRequest) -> ComponentSignature {
    let u = Universe::new();
    let variant = muml_railcab::shuttle_variants()
        .iter()
        .find(|v| v.name == request.variant)
        .expect("campaign variants exist");
    let mut shuttle = (variant.build)(&u);
    if let Some(name) = &request.fault {
        let fault = fault_matrix(&shuttle, &u)
            .into_iter()
            .find(|f| f.describe() == *name)
            .expect("campaign faults exist");
        inject(&mut shuttle, &u, &fault).expect("campaign faults inject");
    }
    ComponentSignature::of_component(&shuttle, &u)
}

/// Median microseconds of `Store::lookup` on a filled store and of
/// `Store::save` of the snapshots it returned into an empty one.
pub fn store_us(filled: &Store, empty_dir: &Path, signatures: &[ComponentSignature]) -> (f64, f64) {
    let target = Store::open(empty_dir);
    let mut lookups = Vec::new();
    let mut saves = Vec::new();
    for _ in 0..5 {
        for signature in signatures {
            let start = Instant::now();
            let found = filled.lookup(signature);
            lookups.push(micros(start));
            let StoreLookup::Hit { snapshot } = found else {
                panic!("the shadow pass stored every signature");
            };
            let start = Instant::now();
            target.save(&snapshot).expect("scratch store accepts saves");
            saves.push(micros(start));
        }
    }
    (median(&lookups), median(&saves))
}

/// Median microseconds of one fsynced `Journal::append`, replaying the
/// accepted / started / finished frames of the given verdicts.
pub fn journal_append_us(path: &Path, records: &[VerdictRecord]) -> f64 {
    let (mut journal, _) = Journal::open(path).expect("scratch journal opens");
    let mut samples = Vec::new();
    for record in records {
        let frames = [
            JournalRecord::Accepted {
                job: record.job,
                client: 1,
                priority: Priority::Normal,
                request: record.request.clone(),
            },
            JournalRecord::Started { job: record.job },
            JournalRecord::Finished {
                record: record.clone(),
            },
        ];
        for frame in &frames {
            let start = Instant::now();
            journal.append(frame).expect("scratch journal appends");
            samples.push(micros(start));
        }
    }
    median(&samples)
}
