//! Differential tests for the arena-backed lazy product: [`compose`] (which
//! expands through [`LazyProduct`]) must be **bit-identical** to the classic
//! materializing kernel [`compose_reference`] — same state numbering, names,
//! props, transition rows, origin tuples, and CSR — over a 200-seed random
//! corpus, and regardless of the order rows are expanded in.

use muml_automata::*;
use muml_testkit::{cases, Rng};

/// Pure-data description of a random automaton over a small fixed alphabet
/// (2 inputs, 2 outputs), mirroring `kernel_properties`.
#[derive(Debug, Clone)]
struct Spec {
    n_states: usize,
    transitions: Vec<(usize, u8, u8, usize)>,
    props: Vec<bool>,
}

fn gen_spec(rng: &mut Rng, max_states: usize, max_trans: usize) -> Spec {
    gen_spec_on(rng, max_states, max_trans, 2, 2)
}

/// [`gen_spec`] over `n_ins` inputs and `n_outs` outputs (at most 8 each).
fn gen_spec_on(
    rng: &mut Rng,
    max_states: usize,
    max_trans: usize,
    n_ins: usize,
    n_outs: usize,
) -> Spec {
    let n = rng.range(1..=max_states);
    let n_trans = rng.range(0..=max_trans);
    let transitions = rng.vec(n_trans, |r| {
        (
            r.below(n),
            r.below(1 << n_ins) as u8,
            r.below(1 << n_outs) as u8,
            r.below(n),
        )
    });
    let props = rng.vec(n, |r| r.bool());
    Spec {
        n_states: n,
        transitions,
        props,
    }
}

fn build(u: &Universe, name: &str, ins: &[&str], outs: &[&str], spec: &Spec) -> Automaton {
    let mut b = AutomatonBuilder::new(u, name)
        .inputs(ins.iter().copied())
        .outputs(outs.iter().copied());
    for s in 0..spec.n_states {
        let sn = format!("{name}{s}");
        b = b.state(&sn);
        if spec.props[s] {
            b = b.prop(&sn, "p");
        }
    }
    b = b.initial(&format!("{name}0"));
    for &(f, a, o, t) in &spec.transitions {
        let avec: Vec<&str> = ins
            .iter()
            .enumerate()
            .filter(|(i, _)| a & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        let ovec: Vec<&str> = outs
            .iter()
            .enumerate()
            .filter(|(i, _)| o & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        b = b.transition(&format!("{name}{f}"), avec, ovec, &format!("{name}{t}"));
    }
    b.build().expect("spec builds")
}

/// A random composable pair: one automaton on the `i*/o*` alphabet, one on
/// the cross-wired `o*/i*` alphabet (so outputs feed inputs both ways).
fn gen_pair(rng: &mut Rng, u: &Universe) -> (Automaton, Automaton) {
    let sa = gen_spec(rng, 5, 10);
    let sb = gen_spec(rng, 5, 10);
    let a = build(u, "a", &["i0", "i1"], &["o0", "o1"], &sa);
    let b = build(u, "b", &["o0", "o1"], &["i0", "i1"], &sb);
    (a, b)
}

fn assert_compositions_identical(lhs: &Composition, rhs: &Composition, what: &str) {
    assert_eq!(
        lhs.automaton.state_count(),
        rhs.automaton.state_count(),
        "{what}: state counts differ"
    );
    assert_eq!(lhs.automaton.name(), rhs.automaton.name(), "{what}: names");
    for s in lhs.automaton.state_ids() {
        assert_eq!(
            lhs.automaton.state_name(s),
            rhs.automaton.state_name(s),
            "{what}: state {} name",
            s.0
        );
        assert_eq!(
            lhs.automaton.props_of(s),
            rhs.automaton.props_of(s),
            "{what}: state {} props",
            s.0
        );
        assert_eq!(
            lhs.automaton.transitions_from(s),
            rhs.automaton.transitions_from(s),
            "{what}: row {} ({})",
            s.0,
            lhs.automaton.state_name(s)
        );
    }
    assert_eq!(
        lhs.automaton.initial_states(),
        rhs.automaton.initial_states(),
        "{what}: initials"
    );
    assert_eq!(lhs.origin, rhs.origin, "{what}: origin tuples");
    assert_eq!(lhs.csr, rhs.csr, "{what}: CSR");
    assert_eq!(lhs.stats, rhs.stats, "{what}: compose stats");
}

/// The headline invariant: the lazy-product-backed [`compose`] and the
/// classic [`compose_reference`] agree bit-for-bit — or fail identically —
/// on a 200-seed corpus of random cross-wired pairs.
#[test]
fn lazy_compose_matches_reference_on_corpus() {
    cases(200, |rng| {
        let u = Universe::new();
        let (a, b) = gen_pair(rng, &u);
        let parts = [&a, &b];
        let opts = ComposeOptions::default();
        match (compose(&parts, &opts), compose_reference(&parts, &opts)) {
            (Ok(lazy), Ok(reference)) => {
                assert_compositions_identical(&lazy, &reference, "compose vs reference");
            }
            (Err(el), Err(er)) => {
                assert_eq!(format!("{el}"), format!("{er}"), "errors diverge");
            }
            (l, r) => panic!(
                "one kernel failed where the other succeeded: lazy ok = {}, reference ok = {}",
                l.is_ok(),
                r.is_ok()
            ),
        }
    });
}

/// Expansion order must not leak into the finished composition: expanding
/// rows highest-id-first (the opposite of the classic discovery order) and
/// renumbering via `into_composition` reproduces the reference bit-for-bit.
#[test]
fn out_of_order_lazy_expansion_matches_reference_on_corpus() {
    cases(200, |rng| {
        let u = Universe::new();
        let (a, b) = gen_pair(rng, &u);
        let parts = [&a, &b];
        let opts = ComposeOptions::default();
        let reference = match compose_reference(&parts, &opts) {
            Ok(c) => c,
            // Failure parity is covered by the corpus test above.
            Err(_) => return,
        };
        let mut lp = LazyProduct::new(&parts, &opts, true).expect("lazy product");
        loop {
            let next = (0..lp.state_count() as u32)
                .rev()
                .find(|&s| !lp.is_expanded(s));
            match next {
                Some(s) => lp.expand_row(s).expect("within limits"),
                None => break,
            }
        }
        let lazy = lp.into_composition().expect("renumbers");
        assert_compositions_identical(&lazy, &reference, "out-of-order vs reference");
    });
}

/// Three-way products (two cross-wired parts plus an observer with private
/// outputs) keep the identity as well — exercises tuple widths above 2.
#[test]
fn three_part_lazy_compose_matches_reference() {
    cases(100, |rng| {
        let u = Universe::new();
        let (a, b) = gen_pair(rng, &u);
        let sc = gen_spec(rng, 4, 6);
        let c = build(&u, "c", &["x0", "x1"], &["y0", "y1"], &sc);
        let parts = [&a, &b, &c];
        let opts = ComposeOptions::default();
        match (compose(&parts, &opts), compose_reference(&parts, &opts)) {
            (Ok(lazy), Ok(reference)) => {
                assert_compositions_identical(&lazy, &reference, "3-part compose");
            }
            (Err(el), Err(er)) => {
                assert_eq!(format!("{el}"), format!("{er}"), "errors diverge");
            }
            (l, r) => panic!(
                "one kernel failed where the other succeeded: lazy ok = {}, reference ok = {}",
                l.is_ok(),
                r.is_ok()
            ),
        }
    });
}

/// Random walks: `n_walks` walks of up to `max_len` choice bytes each
/// (the `kernel_properties` pattern).
fn gen_walks(rng: &mut Rng, max_walks: usize, max_len: usize) -> Vec<Vec<u8>> {
    let n_walks = rng.range(0..=max_walks);
    rng.vec(n_walks, |r| {
        let len = r.range(0..=max_len);
        r.vec(len, |r2| r2.below(4) as u8)
    })
}

/// Keeps only the first transition per `(from, label)`, so the learned
/// observations never contradict each other.
fn dedupe(mut spec: Spec) -> Spec {
    let mut seen = std::collections::HashSet::new();
    spec.transitions
        .retain(|&(f, a, o, _)| seen.insert((f, a, o)));
    spec
}

/// Learns the runs `walks` trace through `m` (first-choice resolution; a
/// stuck walk becomes a refusal of the empty interaction) into an
/// incomplete automaton over `m`'s interface.
fn learn_walks(m: &Automaton, walks: &[Vec<u8>]) -> IncompleteAutomaton {
    let init = m.initial_states()[0];
    let mut inc = IncompleteAutomaton::trivial(
        m.universe(),
        m.name(),
        m.inputs(),
        m.outputs(),
        m.state_name(init),
    );
    for walk in walks {
        let mut state = init;
        let mut names = vec![m.state_name(state).to_owned()];
        let mut labels = Vec::new();
        let mut blocked = false;
        for &choice in walk {
            let ts = m.transitions_from(state);
            if ts.is_empty() {
                labels.push(Label::EMPTY);
                blocked = true;
                break;
            }
            let t = &ts[choice as usize % ts.len()];
            labels.push(t.guard.as_exact().expect("specs are concrete"));
            state = t.to;
            names.push(m.state_name(state).to_owned());
        }
        let obs = if blocked {
            Observation::blocked(names, labels)
        } else {
            Observation::regular(names, labels)
        };
        let _ = inc.learn(&obs);
    }
    inc
}

/// The chaotic closure of a random learned abstraction of a random
/// component over `ins`/`outs`: families with free signals on every escape
/// transition and refusal/transition exclusion lists on every learned
/// state.
fn gen_closure(rng: &mut Rng, u: &Universe, name: &str, ins: &[&str], outs: &[&str]) -> Automaton {
    let spec = dedupe(gen_spec_on(rng, 4, 8, ins.len(), outs.len()));
    let walks = gen_walks(rng, 3, 5);
    let chaos_prop = rng.bool().then(|| u.prop("chaos"));
    let m = build(u, name, ins, outs, &spec);
    chaotic_closure(&learn_walks(&m, &walks), chaos_prop)
}

/// `compose` and `compose_reference` agree bit-for-bit on `parts` under
/// `opts`, or fail with the same error. Returns the product on success.
fn assert_same_outcome(
    parts: &[&Automaton],
    opts: &ComposeOptions,
    what: &str,
) -> Option<Composition> {
    match (compose(parts, opts), compose_reference(parts, opts)) {
        (Ok(lazy), Ok(reference)) => {
            assert_compositions_identical(&lazy, &reference, what);
            Some(lazy)
        }
        (Err(el), Err(er)) => {
            assert_eq!(format!("{el}"), format!("{er}"), "{what}: errors diverge");
            None
        }
        (l, r) => panic!(
            "{what}: one kernel failed where the other succeeded: lazy ok = {}, reference ok = {}",
            l.is_ok(),
            r.is_ok()
        ),
    }
}

/// Expansion caps of the family corpora: 0 and 1 force
/// `FreeSignalOverflow` on most products (parity of the error and of the
/// combination it fires at), the default admits them all.
const CAPS: [usize; 3] = [0, 1, 16];

fn with_cap(expand_cap: usize) -> ComposeOptions {
    ComposeOptions {
        expand_cap,
        ..ComposeOptions::default()
    }
}

/// Concrete contexts composed with chaotic closures on cross-wired
/// alphabets. The closure also reads an input nobody drives (`e0`) and
/// writes an output nobody reads (`x0`), so its families keep free
/// signals: symbolic where the guard has no exclusions, enumerated and
/// filtered against the exclusion list where it has. The context's exact
/// labels pin the shared signals, exercising handshake conflicts.
#[test]
fn closure_compose_matches_reference_on_family_corpus() {
    let families = std::cell::Cell::new(0u64);
    let overflows = std::cell::Cell::new(0u64);
    cases(200, |rng| {
        let u = Universe::new();
        let closure = gen_closure(rng, &u, "m", &["i0", "i1", "e0"], &["o0", "o1", "x0"]);
        let ctx_spec = gen_spec(rng, 4, 8);
        let ctx = build(&u, "ctx", &["o0", "o1"], &["i0", "i1"], &ctx_spec);
        let parts = if rng.bool() {
            [&ctx, &closure]
        } else {
            [&closure, &ctx]
        };
        for cap in CAPS {
            match assert_same_outcome(
                &parts,
                &with_cap(cap),
                &format!("closure corpus, cap {cap}"),
            ) {
                Some(comp) => families.set(families.get() + comp.stats.family_guards),
                None => overflows.set(overflows.get() + 1),
            }
        }
    });
    assert!(families.get() > 0, "the corpus never kept a family guard");
    assert!(overflows.get() > 0, "the corpus never overflowed a cap");
}

/// Three parts where two chaotic closures share the internal channel `c0`:
/// both endpoints' escape families leave it free, so every combination
/// between them enumerates it; the context drives the first closure.
#[test]
fn three_part_closure_compose_matches_reference() {
    let coupled = std::cell::Cell::new(0u64);
    cases(100, |rng| {
        let u = Universe::new();
        let left = gen_closure(rng, &u, "l", &["i0", "i1"], &["o0", "c0"]);
        let right = gen_closure(rng, &u, "r", &["c0"], &["y0"]);
        let ctx_spec = gen_spec_on(rng, 4, 8, 1, 2);
        let ctx = build(&u, "ctx", &["o0"], &["i0", "i1"], &ctx_spec);
        let c0 = u.signal("c0");
        for cap in CAPS {
            let opts = with_cap(cap);
            if let Some(comp) = assert_same_outcome(
                &[&ctx, &left, &right],
                &opts,
                &format!("3-part closures, cap {cap}"),
            ) {
                let m = &comp.automaton;
                let both = m.state_ids().flat_map(|s| m.transitions_from(s)).any(|t| {
                    t.guard
                        .as_exact()
                        .is_some_and(|l| l.inputs.contains(c0) && l.outputs.contains(c0))
                });
                coupled.set(coupled.get() + u64::from(both));
            }
        }
    });
    assert!(
        coupled.get() > 0,
        "no product ever sent c0 across the free channel"
    );
}

/// A product too wide for the exact mixed-radix tuple code: 23 components
/// of 7 states give 7²³ > 2⁶⁴ potential tuples, so the interner falls back
/// to hashed codes confirmed against the arena. Each component steps
/// `sⱼ → sⱼ₊₁ (mod 7)` on the empty label, so the components move in
/// lockstep: 7 reachable states, one combination per row.
#[test]
fn hashed_tuple_codes_match_reference() {
    let u = Universe::new();
    let parts: Vec<Automaton> = (0..23)
        .map(|i| {
            let name = format!("c{i}");
            let mut b = AutomatonBuilder::new(&u, &name);
            for j in 0..7 {
                b = b.state(&format!("s{j}"));
            }
            b = b.initial("s0");
            for j in 0..7 {
                b = b.transition(&format!("s{j}"), [], [], &format!("s{}", (j + 1) % 7));
            }
            b.build().expect("ring builds")
        })
        .collect();
    let parts: Vec<&Automaton> = parts.iter().collect();
    let opts = ComposeOptions::default();
    let comp = assert_same_outcome(&parts, &opts, "23-part ring").expect("ring composes");
    assert_eq!(comp.automaton.state_count(), 7);
    assert_eq!(comp.stats.combos, 7);

    let mut targets = LazyProduct::new(&parts, &opts, false).expect("lazy product");
    targets.expand_all().expect("within limits");
    let mut kept = LazyProduct::new(&parts, &opts, true).expect("lazy product");
    kept.expand_all().expect("within limits");
    assert_eq!(targets.state_count(), 7);
    for s in 0..7 {
        assert_eq!(targets.successors(s), kept.successors(s), "row {s}");
        assert_eq!(targets.successors(s), &[(s + 1) % 7]);
    }
}
