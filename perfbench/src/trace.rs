//! The traced run's sinks and span building. Everything is recorded from
//! outside the program: the sinks timestamp events the program already
//! emits, and spans are assembled from those stamps after the run.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use muml_obs::json::Json;
use muml_obs::{EventSink, FleetEvent, FleetSink, LoopEvent};

use crate::stats::{self_times, Span};

/// Nanoseconds from `epoch` to `at` (0 for instants before the epoch).
pub fn ns_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// One event as a sink received it: arrival time, the job it belongs to,
/// and its JSON encoding (the same shape the daemon's subscription uses).
#[derive(Debug, Clone)]
pub struct Stamp {
    pub at: Instant,
    pub job: u64,
    pub payload: Json,
}

impl Stamp {
    pub fn kind(&self) -> &str {
        self.payload
            .get("event")
            .and_then(Json::as_str)
            .unwrap_or("")
    }

    pub fn int(&self, key: &str) -> u64 {
        self.payload
            .get(key)
            .and_then(Json::as_int)
            .map_or(0, |v| v.max(0) as u64)
    }
}

thread_local! {
    static CURRENT_JOB: Cell<u64> = const { Cell::new(0) };
}

/// Tags the loop events this worker thread emits from now on with `job`.
pub fn set_current_job(job: u64) {
    CURRENT_JOB.with(|c| c.set(job));
}

/// A loop-event sink for `FleetConfig::with_loop_sink`: stamps each event
/// on arrival with the job the emitting worker thread is running. Events
/// are kept as values and encoded only after the run.
#[derive(Clone, Default)]
pub struct LoopRecorder {
    events: Arc<Mutex<Vec<(Instant, u64, LoopEvent)>>>,
}

impl LoopRecorder {
    pub fn take(&self) -> Vec<Stamp> {
        let events =
            std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner));
        events
            .into_iter()
            .map(|(at, job, event)| Stamp {
                at,
                job,
                payload: event.to_json(),
            })
            .collect()
    }
}

impl EventSink for LoopRecorder {
    fn emit(&mut self, event: &LoopEvent) {
        let at = Instant::now();
        let job = CURRENT_JOB.with(Cell::get);
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((at, job, event.clone()));
    }
}

/// A fleet sink stamping each event on arrival at the coordinator.
#[derive(Default)]
pub struct FleetRecorder {
    pub events: Vec<(Instant, FleetEvent)>,
}

impl FleetSink for FleetRecorder {
    fn emit(&mut self, event: &FleetEvent) {
        self.events.push((Instant::now(), event.clone()));
    }
}

/// Spans of one traced run, built request by request.
#[derive(Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Adds one child span per timed loop event of a session: the span
    /// ends when the event arrived and starts `nanos` earlier.
    pub fn push_loop_children(&mut self, epoch: Instant, parent: usize, events: &[&Stamp]) {
        let request = self.spans[parent].request;
        for stamp in events {
            let name = match stamp.kind() {
                "composed" => "automata.compose",
                "model_checked" => "logic.check",
                "replay_executed" => "legacy.test",
                "frontier_probed" => "legacy.probe",
                _ => continue,
            };
            let end = ns_since(epoch, stamp.at);
            let start = end.saturating_sub(stamp.int("nanos"));
            self.push(name, request, Some(parent), start, end);
        }
    }

    /// Self time per span name, in milliseconds per verdict.
    pub fn self_ms_per_verdict(&self, verdicts: usize) -> Json {
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *totals.entry(span.name).or_default() += own;
        }
        Json::Object(
            totals
                .into_iter()
                .map(|(name, ns)| {
                    (
                        name.to_owned(),
                        Json::Float(ns as f64 / 1e6 / verdicts.max(1) as f64),
                    )
                })
                .collect(),
        )
    }

    /// Writes the spans out, one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = Json::Object(vec![
                ("name".into(), Json::Str(span.name.into())),
                ("request".into(), Json::from_u64(span.request)),
                (
                    "parent".into(),
                    span.parent.map_or(Json::Null, Json::from_usize),
                ),
                ("start_ns".into(), Json::from_u64(span.start)),
                ("end_ns".into(), Json::from_u64(span.end)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// Compose and check cost per product state and per verdict, from the
/// `composed` / `model_checked` events of a traced run.
pub struct PhaseCosts {
    pub compose_ns: u64,
    pub compose_states: u64,
    pub check_ns: u64,
}

impl PhaseCosts {
    pub fn from_stamps<'a>(stamps: impl IntoIterator<Item = &'a Stamp>) -> PhaseCosts {
        let mut costs = PhaseCosts {
            compose_ns: 0,
            compose_states: 0,
            check_ns: 0,
        };
        for stamp in stamps {
            match stamp.kind() {
                "composed" => {
                    costs.compose_ns += stamp.int("nanos");
                    costs.compose_states += stamp.int("product_states");
                }
                "model_checked" => costs.check_ns += stamp.int("nanos"),
                _ => {}
            }
        }
        costs
    }

    pub fn compose_ns_per_state(&self) -> f64 {
        self.compose_ns as f64 / self.compose_states.max(1) as f64
    }

    pub fn check_ns_per_state(&self) -> f64 {
        self.check_ns as f64 / self.compose_states.max(1) as f64
    }
}
