//! `ticker-verify`: single-thread checks of k = 3 ticker grids through the
//! public `compose` + `check_all_with` calls. Products of 10,648 (m = 22)
//! and 103,823 (m = 47) states; bypasses legacy, learn, serve and store.

use std::time::Instant;

use muml_automata::{compose, Automaton, ComposeOptions, LazyProduct};
use muml_bench::workload::{ticker_workload, TickerWorkload};
use muml_logic::{check_all_with, fused_check_all, parse, Checker, Formula, Verdict};
use muml_obs::json::Json;

use crate::layers::Layers;
use crate::stats::{percentile, Rng};
use crate::trace::{ns_since, Spans};
use crate::{Args, Measured};

const K: usize = 3;
/// Cycle lengths of one round: two small grids, then one large. With
/// two thirds of the verdicts small, the median sits among the small
/// grids and the 99th percentile among the large.
const ROUND: [usize; 3] = [22, 22, 47];
/// The formulas and their closed-form verdicts: deadlock freedom holds on
/// the full product, `AG !bad` is falsified at depth `bad_depth`, and
/// `EF bad` is witnessed.
const FORMULAS: [(&str, bool); 3] = [("AG !deadlock", true), ("AG !bad", false), ("EF bad", true)];
const SETUPS: usize = 5;

struct Cell {
    w: TickerWorkload,
    bad_depth: usize,
    formulas: Vec<Formula>,
}

impl Cell {
    fn new(m: usize, bad_depth: usize) -> Cell {
        let w = ticker_workload(K, m, bad_depth);
        let formulas = FORMULAS
            .iter()
            .map(|(text, _)| parse(&w.universe, text).expect("ticker formulas parse"))
            .collect();
        Cell {
            w,
            bad_depth,
            formulas,
        }
    }

    fn seeded(rng: &mut Rng, m: usize) -> Cell {
        Cell::new(m, rng.range(1, m - 1))
    }

    fn parts(&self) -> Vec<&Automaton> {
        self.w.parts.iter().collect()
    }
}

/// One verdict: compose, then check the three formulas on one checker.
struct Checked {
    compose_ns: u64,
    check_ns: u64,
    states: usize,
    correct: bool,
}

fn verify(cell: &Cell) -> Checked {
    let parts = cell.parts();
    let start = Instant::now();
    let product = compose(&parts, &ComposeOptions::default()).expect("ticker grids compose");
    let composed = Instant::now();
    let mut checker = Checker::with_csr(&product.automaton, &product.csr);
    let verdicts: Vec<Verdict> = cell
        .formulas
        .iter()
        .map(|f| check_all_with(&mut checker, std::slice::from_ref(f)).expect("supported fragment"))
        .collect();
    let checked = Instant::now();
    let states = product.automaton.state_count();
    let answers_hold = verdicts
        .iter()
        .zip(FORMULAS)
        .all(|(v, (_, holds))| v.holds() == holds);
    // The falsifying run of `AG !bad` is the shortest one: bad_depth steps.
    let trace_ok = verdicts[1]
        .counterexample()
        .is_some_and(|c| c.run.states.len() == cell.bad_depth + 1);
    Checked {
        compose_ns: (composed - start).as_nanos() as u64,
        check_ns: (checked - composed).as_nanos() as u64,
        states,
        correct: states == cell.w.product_states && answers_hold && trace_ok,
    }
}

struct Phase {
    checked: Vec<Checked>,
    /// Start and end of each verdict, in ns since `epoch`.
    windows: Vec<(u64, u64)>,
    wall_ns: u64,
}

fn timed_phase(seed: u64, seconds: f64) -> Phase {
    let mut rng = Rng::new(seed ^ 0x71C4);
    let epoch = Instant::now();
    let mut checked = Vec::new();
    let mut windows = Vec::new();
    let mut round = ROUND.iter().cycle();
    while epoch.elapsed().as_secs_f64() < seconds {
        let m = *round.next().expect("cycle");
        let cell = Cell::seeded(&mut rng, m);
        let start = ns_since(epoch, Instant::now());
        let one = verify(&cell);
        windows.push((start, start + one.compose_ns + one.check_ns));
        checked.push(one);
    }
    Phase {
        checked,
        windows,
        wall_ns: ns_since(epoch, Instant::now()),
    }
}

fn verdict_ms(phase: &Phase) -> Vec<f64> {
    phase
        .checked
        .iter()
        .map(|c| {
            if c.correct {
                (c.compose_ns + c.check_ns) as f64 / 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

pub fn run(args: &Args) -> Measured {
    let mut measured = Measured::new(vec![
        ("k".into(), Json::from_usize(K)),
        (
            "round_m".into(),
            Json::Array(ROUND.iter().map(|m| Json::from_usize(*m)).collect()),
        ),
        (
            "formulas".into(),
            Json::Array(
                FORMULAS
                    .iter()
                    .map(|(f, _)| Json::Str((*f).into()))
                    .collect(),
            ),
        ),
        ("setups".into(), Json::from_usize(SETUPS)),
    ]);
    for _ in 0..SETUPS {
        // Build both rungs and warm up on one verdict of each, so the
        // allocator already holds a large product's memory when timing
        // starts.
        let start = Instant::now();
        for m in [ROUND[0], ROUND[2]] {
            if !verify(&Cell::new(m, 1)).correct {
                measured.other_mismatches += 1;
            }
        }
        measured.setup_s.push(start.elapsed().as_secs_f64());
    }

    let phase = timed_phase(args.seed, args.phase_seconds());
    measured.verdict_ms = verdict_ms(&phase);
    measured.attempted = phase.checked.len();
    measured.failed = measured
        .verdict_ms
        .iter()
        .filter(|v| v.is_infinite())
        .count();
    measured.wall_s = phase.wall_ns as f64 / 1e9;
    if !args.trace {
        return measured;
    }

    // The traced run records a verdict span with compose and check
    // children around the same calls.
    let traced = timed_phase(args.seed, args.phase_seconds());
    let traced_ms = verdict_ms(&traced);
    measured.other_mismatches += traced_ms.iter().filter(|v| v.is_infinite()).count();
    let mut spans = Spans::default();
    let (mut compose_ns, mut check_ns, mut states) = (0u64, 0u64, 0usize);
    for (i, (one, &(start, end))) in traced.checked.iter().zip(&traced.windows).enumerate() {
        let id = i as u64;
        let root = spans.push("request", id, None, start, end);
        let split = start + one.compose_ns;
        spans.push("automata.compose", id, Some(root), start, split);
        spans.push("logic.check", id, Some(root), split, end);
        compose_ns += one.compose_ns;
        check_ns += one.check_ns;
        states += one.states;
    }
    let verdicts = traced.checked.len() as f64;
    let mut layers = Layers::new();
    layers.insert(
        "obs.trace_overhead_frac",
        percentile(&traced_ms, 50.0).0 / measured.p50() - 1.0,
    );
    layers.insert(
        "fleet.busy_frac",
        (compose_ns + check_ns) as f64 / traced.wall_ns as f64,
    );
    layers.insert(
        "automata.compose_ns_per_state",
        compose_ns as f64 / states as f64,
    );
    layers.insert(
        "automata.compose_ms_per_verdict",
        compose_ns as f64 / 1e6 / verdicts,
    );
    layers.insert("logic.check_ns_per_state", check_ns as f64 / states as f64);
    layers.insert(
        "logic.check_ms_per_verdict",
        check_ns as f64 / 1e6 / verdicts,
    );

    // Fused on-the-fly checking of one cell per rung, verdicts held
    // against the materialized ones.
    let mut rng = Rng::new(args.seed ^ 0x71C4);
    let (mut fused_ns, mut expanded, mut product) = (0u64, 0usize, 0usize);
    for m in [ROUND[0], ROUND[2]] {
        let cell = Cell::seeded(&mut rng, m);
        let parts = cell.parts();
        for (f, (_, holds)) in cell.formulas.iter().zip(FORMULAS) {
            let start = Instant::now();
            let lazy =
                LazyProduct::new(&parts, &ComposeOptions::default(), false).expect("lazy product");
            let run = fused_check_all(lazy, std::slice::from_ref(f)).expect("fusable fragment");
            fused_ns += start.elapsed().as_nanos() as u64;
            expanded += run.report.states_expanded;
            product += cell.w.product_states;
            if run.verdict.holds() != holds {
                measured.other_mismatches += 1;
            }
        }
    }
    layers.insert("logic.fused_ms", fused_ns as f64 / 1e6 / 2.0);
    layers.insert(
        "logic.fused_expanded_frac",
        expanded as f64 / product as f64,
    );
    measured.layers = layers;
    measured.info.push((
        "self_ms_per_verdict".to_owned(),
        spans.self_ms_per_verdict(traced.checked.len()),
    ));
    if let Err(e) = spans.write(&args.spans_path()) {
        eprintln!("perfbench: spans not written: {e}");
    }
    measured
}
