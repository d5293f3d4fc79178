//! `railcab-serve` and `railcab-durable`: the RailCab variants × faults
//! campaign sent open loop to an in-process daemon on loopback TCP.
//!
//! Two generator threads, each on its own connection, send the seeded
//! arrival schedule without waiting for verdicts. Accepted job ids go to a
//! pool of waiter connections; the first idle waiter blocks on the job's
//! verdict, so a slow job holds up only its own waiter, not the verdicts
//! behind it. Time to verdict counts from each arrival's due time.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use muml_bench::campaign::{railcab_requests, CampaignOptions};
use muml_fleet::{JobContext, JobRequest};
use muml_obs::json::Json;
use muml_serve::{
    railcab_registry, Daemon, Priority, Response, ServeClient, ServeConfig, ServeError, Server,
    VerdictRecord,
};
use muml_store::Store;

use crate::layers::{
    codec_us, journal_append_us, railcab_signature, shadow_cells, store_us, LoopTotals,
};
use crate::stats::{percentile, poisson_schedule, Arrival, Rng};
use crate::trace::{ns_since, PhaseCosts, Spans, Stamp};
use crate::{Args, Measured};

/// Offered load of `railcab-serve`, in requests per second: about half
/// the daemon's saturated capacity with 2 workers on 2 CPUs.
pub const RATE_PLAIN: f64 = 500.0;
/// Offered load of `railcab-durable` (store and journal on).
pub const RATE_DURABLE: f64 = 100.0;
const GENERATORS: usize = 2;
const WAITERS: usize = 8;
const WORKERS: usize = 2;
const SETUPS: usize = 5;

/// Known answers of the 37 campaign cells, keyed by request name.
pub fn expected_railcab() -> HashMap<String, String> {
    include_str!("../expected/railcab.tsv")
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let (name, outcome) = line.split_once('\t').expect("name<TAB>outcome");
            (name.to_owned(), outcome.to_owned())
        })
        .collect()
}

/// The campaign's requests (rig latency 0), shuffled by the seed.
fn request_stream(seed: u64) -> Vec<JobRequest> {
    let mut requests = railcab_requests(&CampaignOptions {
        latency: Duration::ZERO,
        ..CampaignOptions::default()
    });
    Rng::new(seed).shuffle(&mut requests);
    requests
}

struct Rig {
    daemon: Daemon,
    server: Server,
    generators: Vec<ServeClient>,
    waiters: Vec<ServeClient>,
    stream: Vec<JobRequest>,
}

impl Rig {
    fn stop(self) {
        self.server.stop();
        self.daemon.join();
    }
}

/// Builds the requests, starts the daemon, connects and warms up by
/// running every cell once closed loop. Returns the rig and the number of
/// warm-up verdicts that missed their known answer.
fn set_up(seed: u64, dir: Option<&Path>, expected: &HashMap<String, String>) -> (Rig, usize) {
    let stream = request_stream(seed);
    let mut config = ServeConfig::default().with_workers(WORKERS);
    if let Some(dir) = dir {
        config = config
            .with_store(dir.join("store"))
            .with_journal(dir.join("journal.log"));
    }
    let daemon = Daemon::start(config, railcab_registry());
    let server = Server::bind(daemon.clone(), Some("127.0.0.1:0"), None).expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp address");
    let connect = || ServeClient::connect_tcp(addr).expect("connect to the daemon");
    let mut generators: Vec<ServeClient> = (0..GENERATORS).map(|_| connect()).collect();
    let waiters = (0..WAITERS).map(|_| connect()).collect();
    let mismatches: usize = thread::scope(|s| {
        let handles: Vec<_> = generators
            .iter_mut()
            .enumerate()
            .map(|(g, client)| {
                let stream = &stream;
                s.spawn(move || {
                    let mut mismatches = 0;
                    for request in stream.iter().skip(g).step_by(GENERATORS) {
                        let verdict = client
                            .submit(request, Priority::Normal)
                            .and_then(|job| client.wait(job));
                        if !verdict.is_ok_and(|v| expected.get(&request.name) == Some(&v.outcome)) {
                            mismatches += 1;
                        }
                    }
                    mismatches
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .sum()
    });
    let rig = Rig {
        daemon,
        server,
        generators,
        waiters,
        stream,
    };
    (rig, mismatches)
}

/// Accepted jobs waiting for a free waiter connection.
#[derive(Default)]
struct WaitQueue {
    state: Mutex<WaitState>,
    ready: Condvar,
}

#[derive(Default)]
struct WaitState {
    jobs: VecDeque<(usize, u64)>,
    idle: usize,
    closed: bool,
    /// Jobs that found every waiter busy (and so could be held up behind
    /// an older job).
    backlogged: usize,
}

impl WaitQueue {
    fn lock(&self) -> std::sync::MutexGuard<'_, WaitState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, arrival: usize, job: u64) {
        let mut state = self.lock();
        if state.idle <= state.jobs.len() {
            state.backlogged += 1;
        }
        state.jobs.push_back((arrival, job));
        drop(state);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<(usize, u64)> {
        let mut state = self.lock();
        state.idle += 1;
        loop {
            if let Some(item) = state.jobs.pop_front() {
                state.idle -= 1;
                return Some(item);
            }
            if state.closed {
                state.idle -= 1;
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// One arrival as the client saw it (times in ns since the phase epoch).
struct Seen {
    due: u64,
    sent: u64,
    accepted: u64,
    job: Option<u64>,
    done: Option<u64>,
    record: Option<VerdictRecord>,
}

struct Phase {
    epoch: Instant,
    seen: Vec<Seen>,
    backlogged: usize,
}

impl Phase {
    fn arrivals(&self) -> Vec<Arrival> {
        self.seen
            .iter()
            .map(|s| Arrival {
                due: s.due,
                sent: s.sent,
                done: s.done,
            })
            .collect()
    }

    fn completed(&self) -> impl Iterator<Item = (&Seen, &VerdictRecord, u64)> {
        self.seen
            .iter()
            .filter_map(|s| Some((s, s.record.as_ref()?, s.done?)))
    }

    fn wall_ns(&self) -> u64 {
        self.seen.iter().filter_map(|s| s.done).max().unwrap_or(1)
    }
}

/// Sends the schedule open loop and collects every verdict. A verdict that
/// differs from its known answer counts as a failure (`done = None`).
fn timed_phase(rig: &mut Rig, schedule: &[u64], expected: &HashMap<String, String>) -> Phase {
    let epoch = Instant::now() + Duration::from_millis(2);
    let queue = WaitQueue::default();
    let stream = &rig.stream;
    let mut seen: Vec<Seen> = schedule
        .iter()
        .map(|&due| Seen {
            due,
            sent: 0,
            accepted: 0,
            job: None,
            done: None,
            record: None,
        })
        .collect();
    thread::scope(|s| {
        let queue = &queue;
        let waiters: Vec<_> = rig
            .waiters
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut verdicts = Vec::new();
                    while let Some((arrival, job)) = queue.pop() {
                        let verdict = client.wait(job);
                        verdicts.push((arrival, ns_since(epoch, Instant::now()), verdict));
                    }
                    verdicts
                })
            })
            .collect();
        let generators: Vec<_> = rig
            .generators
            .iter_mut()
            .enumerate()
            .map(|(g, client)| {
                s.spawn(move || {
                    let mut sent = Vec::new();
                    for arrival in (g..schedule.len()).step_by(GENERATORS) {
                        let due = epoch + Duration::from_nanos(schedule[arrival]);
                        let now = Instant::now();
                        if due > now {
                            thread::sleep(due - now);
                        }
                        let at = ns_since(epoch, Instant::now());
                        let job = client.submit(&stream[arrival % stream.len()], Priority::Normal);
                        let accepted = ns_since(epoch, Instant::now());
                        if let Ok(job) = job {
                            queue.push(arrival, job);
                        }
                        sent.push((arrival, at, accepted, job.ok()));
                    }
                    sent
                })
            })
            .collect();
        for handle in generators {
            for (arrival, at, accepted, job) in handle.join().expect("generator thread") {
                seen[arrival].sent = at;
                seen[arrival].accepted = accepted;
                seen[arrival].job = job;
            }
        }
        queue.close();
        for handle in waiters {
            for (arrival, done, verdict) in handle.join().expect("waiter thread") {
                let request = &stream[arrival % stream.len()];
                let verdict: Result<VerdictRecord, ServeError> = verdict;
                if let Ok(record) = verdict {
                    if expected.get(&request.name) == Some(&record.outcome) {
                        seen[arrival].done = Some(done);
                    }
                    seen[arrival].record = Some(record);
                }
            }
        }
    });
    let backlogged = queue.lock().backlogged;
    Phase {
        epoch,
        seen,
        backlogged,
    }
}

fn failures(phase: &Phase) -> usize {
    phase.seen.iter().filter(|s| s.done.is_none()).count()
}

pub fn run(args: &Args, durable: bool) -> Measured {
    let expected = expected_railcab();
    let rate = if durable { RATE_DURABLE } else { RATE_PLAIN };
    let horizon = (args.phase_seconds() * 1e9) as u64;
    let schedule = poisson_schedule(&mut Rng::new(args.seed ^ 0xA441), rate, horizon);
    let scratch = args.scratch();
    let mut measured = Measured::new(vec![
        ("rate_per_s".into(), Json::Float(rate)),
        ("cells".into(), Json::from_usize(expected.len())),
        ("arrivals".into(), Json::from_usize(schedule.len())),
        ("generators".into(), Json::from_usize(GENERATORS)),
        ("waiters".into(), Json::from_usize(WAITERS)),
        ("daemon_workers".into(), Json::from_usize(WORKERS)),
        ("store_and_journal".into(), Json::Bool(durable)),
        ("setups".into(), Json::from_usize(SETUPS)),
    ]);

    let mut rig = None;
    for attempt in 0..SETUPS {
        let dir = durable.then(|| scratch.join(format!("daemon-{attempt}")));
        let start = Instant::now();
        let (built, mismatches) = set_up(args.seed, dir.as_deref(), &expected);
        measured.setup_s.push(start.elapsed().as_secs_f64());
        measured.other_mismatches += mismatches;
        if let Some(previous) = rig.replace(built) {
            Rig::stop(previous);
        }
    }
    let mut rig = rig.expect("at least one set-up");

    let phase = timed_phase(&mut rig, &schedule, &expected);
    measured.attempted = phase.seen.len();
    measured.failed = failures(&phase);
    measured.verdict_ms = phase.arrivals().iter().map(Arrival::verdict_ms).collect();
    measured.wall_s = phase.wall_ns() as f64 / 1e9;
    let late: Vec<f64> = phase.arrivals().iter().map(Arrival::late_ms).collect();
    measured.info.extend([
        (
            "gen_late_ms_p50".to_owned(),
            Json::Float(percentile(&late, 50.0).0),
        ),
        (
            "gen_late_ms_p99".to_owned(),
            Json::Float(percentile(&late, 99.0).0),
        ),
        (
            "waiter_backlogged".to_owned(),
            Json::from_usize(phase.backlogged),
        ),
    ]);

    if !args.trace {
        rig.stop();
        return measured;
    }

    // Traced run: the same schedule again, with a subscription stamping
    // every event the daemon broadcasts.
    let events = rig.daemon.subscribe();
    let recorder = thread::spawn(move || {
        let mut stamps = Vec::new();
        while let Ok(response) = events.recv() {
            if let Response::Event { job, payload, .. } = response {
                stamps.push(Stamp {
                    at: Instant::now(),
                    job,
                    payload,
                });
            }
        }
        stamps
    });
    let traced = timed_phase(&mut rig, &schedule, &expected);
    let stream = rig.stream.clone();
    rig.stop();
    let stamps = recorder.join().expect("event recorder");
    measured.other_mismatches += failures(&traced);
    served_layers(
        args,
        durable,
        &mut measured,
        &traced,
        &stamps,
        &stream,
        &expected,
    );
    measured
}

/// Fills in the per-layer figures of the traced phase, the self time per
/// span name, and the known-answer mismatches of the shadow runs.
fn served_layers(
    args: &Args,
    durable: bool,
    measured: &mut Measured,
    traced: &Phase,
    stamps: &[Stamp],
    stream: &[JobRequest],
    expected: &HashMap<String, String>,
) {
    let layers = &mut measured.layers;
    let verdicts = traced.completed().count();
    let traced_ms: Vec<f64> = traced.arrivals().iter().map(Arrival::verdict_ms).collect();
    let untraced_p50 = percentile(&measured.verdict_ms, 50.0).0;
    layers.insert(
        "obs.trace_overhead_frac",
        percentile(&traced_ms, 50.0).0 / untraced_p50 - 1.0,
    );

    // Group the stamps by daemon job id.
    let mut by_job: HashMap<u64, Vec<&Stamp>> = HashMap::new();
    for stamp in stamps {
        by_job.entry(stamp.job).or_default().push(stamp);
    }
    let at_kind = |events: &[&Stamp], kind: &str| {
        events
            .iter()
            .find(|s| s.kind() == kind)
            .map(|s| ns_since(traced.epoch, s.at))
    };
    let mut spans = Spans::default();
    let mut overhead = Vec::new();
    let mut queue_wait = Vec::new();
    let mut busy_ns = 0u64;
    let mut iterations = 0usize;
    for (seen, record, done) in traced.completed() {
        let job = seen.job.expect("completed jobs were accepted");
        busy_ns += record.nanos;
        iterations += record.iterations;
        overhead.push(done.saturating_sub(seen.sent).saturating_sub(record.nanos) as f64 / 1e6);
        let events = by_job.get(&job).map(Vec::as_slice).unwrap_or(&[]);
        let started = at_kind(events, "job_started").unwrap_or(seen.accepted);
        let finished = at_kind(events, "job_finished").unwrap_or(done);
        queue_wait.push(started.saturating_sub(seen.accepted) as f64 / 1e6);
        let root = spans.push("request", job, None, seen.due, done);
        spans.push("gen.late", job, Some(root), seen.due, seen.sent);
        spans.push("serve.submit", job, Some(root), seen.sent, seen.accepted);
        spans.push("serve.queue", job, Some(root), seen.accepted, started);
        let session = spans.push("core.session", job, Some(root), started, finished);
        spans.push_loop_children(traced.epoch, session, events);
        spans.push("serve.reply", job, Some(root), finished, done);
    }
    layers.insert(
        "fleet.busy_frac",
        busy_ns as f64 / (WORKERS as f64 * traced.wall_ns() as f64),
    );
    // Figures only the daemon path has: reported beside the result, since
    // the benchmark's per-layer set holds what every listed workload
    // measures.
    let late: Vec<f64> = traced.arrivals().iter().map(Arrival::late_ms).collect();
    let store_events = |kind: &str| stamps.iter().filter(|s| s.kind() == kind).count() as f64;
    let lookups =
        store_events("store_hit") + store_events("store_miss") + store_events("store_invalidated");
    let served_only = [
        ("serve.overhead_ms_p50", percentile(&overhead, 50.0).0),
        ("serve.queue_wait_ms_p99", percentile(&queue_wait, 99.0).0),
        ("gen.late_ms_p99", percentile(&late, 99.0).0),
        (
            "store.hit_frac",
            if lookups > 0.0 {
                store_events("store_hit") / lookups
            } else {
                0.0
            },
        ),
    ];
    measured.info.push((
        "served_layers".to_owned(),
        Json::Object(
            served_only
                .iter()
                .map(|(name, value)| ((*name).to_owned(), Json::Float(*value)))
                .collect(),
        ),
    ));

    // Shadow runs of the distinct cells, weighted by how often each was
    // served: session statistics the wire verdict does not carry.
    let mut served_count: BTreeMap<&str, f64> = BTreeMap::new();
    for (_, record, _) in traced.completed() {
        *served_count
            .entry(record.request.name.as_str())
            .or_default() += 1.0;
    }
    let registry = railcab_registry();
    let scratch = args.scratch();
    let store = Arc::new(Store::open(scratch.join("shadow-store")));
    let with_store = JobContext {
        store: Some(Arc::clone(&store)),
        ..JobContext::default()
    };
    let plain = shadow_cells(&registry, stream, &JobContext::default());
    let filling = shadow_cells(&registry, stream, &with_store);
    let warm = shadow_cells(&registry, stream, &with_store);
    measured.other_mismatches += plain
        .iter()
        .chain(&filling)
        .chain(&warm)
        .filter(|cell| expected.get(&cell.request.name) != Some(&cell.outcome))
        .count();
    let mut totals = LoopTotals::default();
    for cell in if durable { &warm } else { &plain } {
        let weight = served_count
            .get(cell.request.name.as_str())
            .copied()
            .unwrap_or(0.0);
        totals.add(&cell.stats, cell.job_ns, weight);
    }
    totals.write(layers);
    // The daemon's own figures override the shadow where it reports them.
    layers.insert(
        "core.iterations_per_verdict",
        iterations as f64 / verdicts.max(1) as f64,
    );
    let costs = PhaseCosts::from_stamps(stamps.iter());
    layers.insert(
        "automata.compose_ns_per_state",
        costs.compose_ns_per_state(),
    );
    layers.insert("logic.check_ns_per_state", costs.check_ns_per_state());
    layers.insert(
        "automata.compose_ms_per_verdict",
        costs.compose_ns as f64 / 1e6 / verdicts.max(1) as f64,
    );
    layers.insert(
        "logic.check_ms_per_verdict",
        costs.check_ns as f64 / 1e6 / verdicts.max(1) as f64,
    );

    // Direct calls on the run's own requests, verdicts and snapshots.
    let records: Vec<VerdictRecord> = traced
        .completed()
        .take(stream.len())
        .map(|(_, record, _)| record.clone())
        .collect();
    layers.insert("serve.codec_us", codec_us(stream, &records));
    let signatures: Vec<_> = stream.iter().map(railcab_signature).collect();
    let (lookup, save) = store_us(&store, &scratch.join("probe-store"), &signatures);
    layers.insert("store.lookup_us_p50", lookup);
    layers.insert("store.save_us_p50", save);
    layers.insert(
        "journal.append_us_p50",
        journal_append_us(&scratch.join("probe-journal.log"), &records),
    );

    measured.info.push((
        "self_ms_per_verdict".to_owned(),
        spans.self_ms_per_verdict(verdicts),
    ));
    if let Err(e) = spans.write(&args.spans_path()) {
        eprintln!("perfbench: spans not written: {e}");
    }
}
