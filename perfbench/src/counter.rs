//! `counter-loop`: seeded counter-protocol cells, run as one `run_fleet`
//! batch on 2 workers with zero rig latency. Each verdict takes 16–64
//! verify → test → learn iterations.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use muml_bench::workload::{counter_workload, seed_fault};
use muml_core::store::{ComponentSignature, Store};
use muml_core::{CoreError, IntegrationConfig, IntegrationSession, LegacyUnit};
use muml_fleet::{run_fleet, FleetConfig, Job, JobContext, JobOutcome, JobRequest, JobResult};
use muml_legacy::PortMap;
use muml_obs::json::Json;
use muml_obs::{FleetEvent, FleetSink, NullFleetSink, SharedSink};
use muml_serve::VerdictRecord;

use crate::layers::{codec_us, journal_append_us, store_us, Layers, LoopTotals};
use crate::stats::{percentile, Rng};
use crate::trace::{ns_since, set_current_job, FleetRecorder, LoopRecorder, PhaseCosts, Spans};
use crate::{Args, Measured};

const WORKERS: usize = 2;
/// Cells generated per second of measuring time. The batch is sized well
/// above what the pool completes, so the deadline ends the phase.
const CELLS_PER_SECOND: f64 = 800.0;
const SETUPS: usize = 5;
const N_MIN: usize = 16;
const N_MAX: usize = 64;

/// One counter cell: `n` component states, `k = n − 2` pushes, and an
/// optional seeded fault depth (`< k`).
#[derive(Debug, Clone, Copy)]
struct Cell {
    n: usize,
    fault: Option<usize>,
}

impl Cell {
    fn k(&self) -> usize {
        self.n - 2
    }

    /// Closed-form answer: correct counters prove, faulted ones confirm a
    /// real fault.
    fn expected(&self) -> &'static str {
        if self.fault.is_some() {
            "real_fault"
        } else {
            "proven"
        }
    }

    fn seeded(rng: &mut Rng) -> Cell {
        let n = rng.range(N_MIN, N_MAX);
        let fault = (rng.unit() < 0.5).then(|| rng.range(0, n - 3));
        Cell { n, fault }
    }

    /// The content address of the cell's (possibly faulted) component.
    fn signature(self) -> ComponentSignature {
        let mut w = counter_workload(self.n, self.k());
        if let Some(d) = self.fault {
            seed_fault(&mut w, d);
        }
        ComponentSignature::of_component(&w.component, &w.universe)
    }

    fn job(self, id: usize, clock: Option<Arc<PhaseClock>>) -> Job {
        let name = match self.fault {
            Some(d) => format!("counter-n{}/fault-d{d}", self.n),
            None => format!("counter-n{}/correct", self.n),
        };
        let request = JobRequest::new(id, name)
            .with_scenario("counter")
            .with_variant(format!("n{}", self.n))
            .with_latency(Duration::ZERO);
        Job::new(request, move |ctx| {
            if let Some(clock) = &clock {
                if !clock.start(id) {
                    return Err(CoreError::Cancelled { iterations: 0 });
                }
            }
            set_current_job(id as u64);
            let mut w = counter_workload(self.n, self.k());
            if let Some(d) = self.fault {
                seed_fault(&mut w, d);
            }
            let mut sink = ctx.loop_sink.clone();
            let mut config = IntegrationConfig::default();
            let signature = ctx
                .store
                .as_ref()
                .map(|_| ComponentSignature::of_component(&w.component, &w.universe));
            let mut unit = LegacyUnit::new(&mut w.component, PortMap::with_default("port"));
            if let (Some(store), Some(signature)) = (&ctx.store, signature) {
                config = config.with_shared_store(Arc::clone(store));
                unit = unit.with_signature(signature);
            }
            let mut session = IntegrationSession::new(&w.universe, &w.context)
                .unit(unit)
                .config(config)
                .cancel_token(ctx.cancel.clone());
            if let Some(sink) = sink.as_mut() {
                session = session.sink(sink);
            }
            let report = session.run();
            if let Some(clock) = &clock {
                clock.finish();
            }
            report
        })
    }
}

fn correct(result: &JobResult, expected: &str) -> bool {
    result.outcome.name() == expected && !matches!(result.outcome, JobOutcome::Error { .. })
}

/// The measuring window of one phase: jobs that reach a worker after the
/// deadline return at once and are not counted as attempted.
struct PhaseClock {
    epoch: Instant,
    deadline_ns: u64,
    ran: Vec<AtomicBool>,
    /// End of the last job that ran, in ns since `epoch`.
    last_end: AtomicU64,
}

impl PhaseClock {
    /// Whether job `id` may still start; marks it as run if so.
    fn start(&self, id: usize) -> bool {
        let open = ns_since(self.epoch, Instant::now()) < self.deadline_ns;
        if open {
            self.ran[id].store(true, Ordering::Relaxed);
        }
        open
    }

    fn finish(&self) {
        self.last_end
            .fetch_max(ns_since(self.epoch, Instant::now()), Ordering::Relaxed);
    }
}

/// One timed phase: a single `run_fleet` batch of seeded cells, of which
/// the jobs started within `seconds` count.
struct Phase {
    results: Vec<(JobResult, &'static str)>,
    wall_ns: u64,
    epoch: Instant,
    /// Whether every generated cell ran before the deadline.
    exhausted: bool,
}

fn timed_phase(seed: u64, seconds: f64, config: &FleetConfig, sink: &mut dyn FleetSink) -> Phase {
    let mut rng = Rng::new(seed ^ 0xC0C0);
    let count = (seconds * CELLS_PER_SECOND).ceil() as usize;
    let cells: Vec<Cell> = (0..count).map(|_| Cell::seeded(&mut rng)).collect();
    let clock = Arc::new(PhaseClock {
        epoch: Instant::now(),
        deadline_ns: (seconds * 1e9) as u64,
        ran: (0..count).map(|_| AtomicBool::new(false)).collect(),
        last_end: AtomicU64::new(0),
    });
    let jobs = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| cell.job(i, Some(Arc::clone(&clock))))
        .collect();
    let report = run_fleet(jobs, config, sink);
    // Report rows are sorted by job id, i.e. in cell order.
    let results: Vec<(JobResult, &'static str)> = report
        .results
        .into_iter()
        .zip(&cells)
        .filter(|(result, _)| clock.ran[result.request.id].load(Ordering::Relaxed))
        .map(|(result, cell)| (result, cell.expected()))
        .collect();
    Phase {
        exhausted: results.len() == count,
        results,
        wall_ns: clock.last_end.load(Ordering::Relaxed),
        epoch: clock.epoch,
    }
}

fn verdict_ms(phase: &Phase) -> Vec<f64> {
    phase
        .results
        .iter()
        .map(|(result, expected)| {
            if correct(result, expected) {
                result.nanos as f64 / 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

pub fn run(args: &Args) -> Measured {
    let mut measured = Measured::new(vec![
        (
            "cells_n".into(),
            Json::Str(format!("{N_MIN}..={N_MAX}, k = n - 2")),
        ),
        ("fault_share".into(), Json::Float(0.5)),
        ("cells_per_second".into(), Json::Float(CELLS_PER_SECOND)),
        ("fleet_workers".into(), Json::from_usize(WORKERS)),
        ("setups".into(), Json::from_usize(SETUPS)),
    ]);
    let mut config = FleetConfig::default();
    for _ in 0..SETUPS {
        let start = Instant::now();
        config = FleetConfig::default().with_workers(WORKERS);
        // Warm-up: one batch across the size range, correct and faulted.
        let warm: Vec<Cell> = [16, 32, 48, 64]
            .into_iter()
            .flat_map(|n| {
                [
                    Cell { n, fault: None },
                    Cell {
                        n,
                        fault: Some(n / 2),
                    },
                ]
            })
            .collect();
        let jobs = warm
            .iter()
            .enumerate()
            .map(|(i, c)| c.job(i, None))
            .collect();
        let report = run_fleet(jobs, &config, &mut NullFleetSink);
        measured.other_mismatches += report
            .results
            .iter()
            .zip(&warm)
            .filter(|(result, cell)| !correct(result, cell.expected()))
            .count();
        measured.setup_s.push(start.elapsed().as_secs_f64());
    }

    let phase = timed_phase(args.seed, args.phase_seconds(), &config, &mut NullFleetSink);
    measured.verdict_ms = verdict_ms(&phase);
    measured.attempted = phase.results.len();
    measured.failed = measured
        .verdict_ms
        .iter()
        .filter(|v| v.is_infinite())
        .count();
    measured.wall_s = phase.wall_ns as f64 / 1e9;
    measured
        .info
        .push(("cells_exhausted".to_owned(), Json::Bool(phase.exhausted)));
    if !args.trace {
        return measured;
    }

    let loop_events = LoopRecorder::default();
    let traced_config = config.with_loop_sink(SharedSink::new(loop_events.clone()));
    let mut fleet_events = FleetRecorder::default();
    let traced = timed_phase(
        args.seed,
        args.phase_seconds(),
        &traced_config,
        &mut fleet_events,
    );
    let traced_ms = verdict_ms(&traced);
    measured.other_mismatches += traced_ms.iter().filter(|v| v.is_infinite()).count();
    let stamps = loop_events.take();

    let mut layers = Layers::new();
    layers.insert(
        "obs.trace_overhead_frac",
        percentile(&traced_ms, 50.0).0 / measured.p50() - 1.0,
    );
    let mut totals = LoopTotals::default();
    let mut busy_ns = 0u64;
    for (result, _) in &traced.results {
        totals.add(&result.stats, result.nanos, 1.0);
        busy_ns += result.nanos;
    }
    totals.write(&mut layers);
    layers.insert(
        "fleet.busy_frac",
        busy_ns as f64 / (WORKERS as f64 * traced.wall_ns as f64),
    );
    let costs = PhaseCosts::from_stamps(&stamps);
    layers.insert(
        "automata.compose_ns_per_state",
        costs.compose_ns_per_state(),
    );
    layers.insert("logic.check_ns_per_state", costs.check_ns_per_state());
    measured.other_mismatches += direct_calls(args, &traced, &mut layers);
    measured.layers = layers;

    // Spans: one session per job (worker pick-up → finish, as the
    // coordinator saw them) with the timed loop events as children.
    let jobs = traced.results.len();
    let mut started = vec![None; jobs];
    let mut finished = vec![None; jobs];
    for (at, event) in &fleet_events.events {
        let at = ns_since(traced.epoch, *at);
        match event {
            FleetEvent::JobStarted { job, .. } if *job < jobs => started[*job] = Some(at),
            FleetEvent::JobFinished { job, .. } if *job < jobs => finished[*job] = Some(at),
            _ => {}
        }
    }
    let mut by_job = vec![Vec::new(); jobs];
    for stamp in stamps.iter().filter(|s| (s.job as usize) < jobs) {
        by_job[stamp.job as usize].push(stamp);
    }
    let mut spans = Spans::default();
    for job in 0..jobs {
        let (Some(start), Some(end)) = (started[job], finished[job]) else {
            continue;
        };
        let session = spans.push("core.session", job as u64, None, start, end);
        spans.push_loop_children(traced.epoch, session, &by_job[job]);
    }
    measured.info.push((
        "self_ms_per_verdict".to_owned(),
        spans.self_ms_per_verdict(traced.results.len()),
    ));
    if let Err(e) = spans.write(&args.spans_path()) {
        eprintln!("perfbench: spans not written: {e}");
    }
    measured
}

/// Cells the direct calls replay: the first ones of the traced phase.
const PROBE_CELLS: usize = 32;

/// Direct calls on the traced phase's first cells: the wire codec and the
/// journal frames of their verdicts, and `Store::lookup` / `Store::save`
/// of their signatures after re-running them against a scratch store.
/// Returns the known-answer mismatches of those re-runs.
fn direct_calls(args: &Args, traced: &Phase, layers: &mut Layers) -> usize {
    let scratch = args.scratch();
    let first = &traced.results[..traced.results.len().min(PROBE_CELLS)];
    let requests: Vec<JobRequest> = first.iter().map(|(r, _)| r.request.clone()).collect();
    let records: Vec<VerdictRecord> = first
        .iter()
        .map(|(r, _)| VerdictRecord {
            job: r.request.id as u64,
            request: r.request.clone(),
            outcome: r.outcome.name().to_owned(),
            property: match &r.outcome {
                JobOutcome::RealFault { property } => Some(property.clone()),
                _ => None,
            },
            iterations: r.iterations,
            nanos: r.nanos,
            attempts: r.attempts,
        })
        .collect();
    layers.insert("serve.codec_us", codec_us(&requests, &records));
    layers.insert(
        "journal.append_us_p50",
        journal_append_us(&scratch.join("probe-journal.log"), &records),
    );

    // The traced phase drew its cells from the same seeded sequence.
    let mut rng = Rng::new(args.seed ^ 0xC0C0);
    let cells: Vec<Cell> = (0..first.len()).map(|_| Cell::seeded(&mut rng)).collect();
    let store = Arc::new(Store::open(scratch.join("shadow-store")));
    let context = JobContext {
        store: Some(Arc::clone(&store)),
        ..JobContext::default()
    };
    let mismatches = cells
        .iter()
        .enumerate()
        .filter(|(i, cell)| {
            let (outcome, _, _) = muml_fleet::classify((cell.job(*i, None).work)(&context));
            outcome.name() != cell.expected()
        })
        .count();
    let signatures: Vec<ComponentSignature> = cells.iter().map(|c| c.signature()).collect();
    let (lookup, save) = store_us(&store, &scratch.join("probe-store"), &signatures);
    layers.insert("store.lookup_us_p50", lookup);
    layers.insert("store.save_us_p50", save);
    mismatches
}
