//! The compiled composition row kernel.
//!
//! Every product row of Definition 3 is the set of transition combinations
//! `(t₁, …, tₙ)` — one outgoing transition per component — whose guards
//! agree on every shared signal (`A ∩ O′ = B′ ∩ I` for each pair). The
//! kernel solves that constraint system with a handful of `u128` word
//! operations per combination instead of a per-signal walk:
//!
//! * [`RowKernel::compile`] flattens each component's transitions into
//!   per-state runs of [`Step`]s — the guard's `in_must`/`in_free`/
//!   `out_must`/`out_free` masks, each masked to that component's
//!   interface, plus an exclusion flag and the target;
//! * [`RowKernel::load`] positions an odometer on the rows of one product
//!   state's component tuple;
//! * [`RowKernel::walk`] visits every combination (component 0 varying
//!   fastest — the classic order) and emits each composed guard with its
//!   target tuple, reusing the kernel's scratch buffers throughout.
//!
//! [`compose_reference`](crate::compose_reference) keeps the per-signal
//! solver as an independent oracle; the differential suites assert the two
//! agree bit for bit.

use crate::automaton::{Automaton, StateId};
use crate::compose::{ComposeOptions, ComposeStats};
use crate::error::{AutomataError, Result};
use crate::label::{Guard, Label, LabelFamily};
use crate::signal::SignalSet;

/// One component transition compiled to interface-masked guard words.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Inputs the guard forces.
    in_must: u128,
    /// Inputs the guard leaves open (disjoint from `in_must`).
    in_free: u128,
    /// Outputs the guard forces.
    out_must: u128,
    /// Outputs the guard leaves open (disjoint from `out_must`).
    out_free: u128,
    /// Whether the guard carves an exclusion list out of its family.
    excludes: bool,
    /// Target state in the component.
    to: u32,
}

impl Step {
    fn compile(guard: &Guard, to: StateId, inputs: u128, outputs: u128) -> Step {
        match guard {
            Guard::Exact(l) => Step {
                in_must: l.inputs.bits() & inputs,
                in_free: 0,
                out_must: l.outputs.bits() & outputs,
                out_free: 0,
                excludes: false,
                to: to.0,
            },
            Guard::Family(f) => {
                let in_must = f.in_must.bits() & inputs;
                let out_must = f.out_must.bits() & outputs;
                Step {
                    in_must,
                    in_free: f.in_free.bits() & inputs & !in_must,
                    out_must,
                    out_free: f.out_free.bits() & outputs & !out_must,
                    excludes: !f.excluded.is_empty(),
                    to: to.0,
                }
            }
        }
    }
}

/// One component of the product, compiled.
struct Part<'a> {
    automaton: &'a Automaton,
    inputs: u128,
    outputs: u128,
    /// `steps[off[s]..off[s + 1]]` are state `s`'s transitions, in row order.
    off: Vec<u32>,
    steps: Vec<Step>,
}

/// The composition row kernel of one product, compiled once and reused for
/// every row. See the module docs.
pub(crate) struct RowKernel<'a> {
    parts: Vec<Part<'a>>,
    all_inputs: u128,
    all_outputs: u128,
    /// The loaded component tuple.
    source: Vec<u32>,
    /// Odometer: index of each component's current step in its `steps`,
    /// and the bounds of the loaded row.
    cur: Vec<u32>,
    lo: Vec<u32>,
    hi: Vec<u32>,
    /// Target tuple of the current combination.
    target: Vec<u32>,
}

impl<'a> RowKernel<'a> {
    /// Compiles the guards of `parts` (already checked composable).
    pub(crate) fn compile(parts: &[&'a Automaton]) -> RowKernel<'a> {
        let compiled: Vec<Part<'a>> = parts
            .iter()
            .map(|&a| {
                let (inputs, outputs) = (a.inputs().bits(), a.outputs().bits());
                let mut off = Vec::with_capacity(a.state_count() + 1);
                let mut steps = Vec::with_capacity(a.transition_count());
                off.push(0);
                for s in a.state_ids() {
                    steps.extend(
                        a.transitions_from(s)
                            .iter()
                            .map(|t| Step::compile(&t.guard, t.to, inputs, outputs)),
                    );
                    off.push(u32::try_from(steps.len()).expect("component row exceeds u32"));
                }
                Part {
                    automaton: a,
                    inputs,
                    outputs,
                    off,
                    steps,
                }
            })
            .collect();
        let k = parts.len();
        RowKernel {
            all_inputs: compiled.iter().fold(0, |acc, p| acc | p.inputs),
            all_outputs: compiled.iter().fold(0, |acc, p| acc | p.outputs),
            parts: compiled,
            source: vec![0; k],
            cur: vec![0; k],
            lo: vec![0; k],
            hi: vec![0; k],
            target: vec![0; k],
        }
    }

    /// Positions the odometer on the first combination of the product row
    /// at `tuple`. Returns `false` when some component has no outgoing
    /// transition there: the product state deadlocks and the row is empty.
    pub(crate) fn load(&mut self, tuple: &[u32]) -> bool {
        self.source.copy_from_slice(tuple);
        for (i, part) in self.parts.iter().enumerate() {
            let s = tuple[i] as usize;
            let (lo, hi) = (part.off[s], part.off[s + 1]);
            if lo == hi {
                return false;
            }
            self.lo[i] = lo;
            self.hi[i] = hi;
            self.cur[i] = lo;
            self.target[i] = part.steps[lo as usize].to;
        }
        true
    }

    /// Walks every transition combination of the loaded row, component 0
    /// varying fastest, and emits each composed guard with its target
    /// tuple. Call only after [`load`](RowKernel::load) returned `true`.
    ///
    /// # Errors
    ///
    /// [`AutomataError::FreeSignalOverflow`] when a combination leaves more
    /// free signals to expand than `opts.expand_cap`.
    pub(crate) fn walk(
        &mut self,
        opts: &ComposeOptions,
        stats: &mut ComposeStats,
        mut emit: impl FnMut(Guard, &[u32]),
    ) -> Result<()> {
        loop {
            stats.combos += 1;
            self.solve(opts, stats, &mut emit)?;
            let mut i = 0;
            loop {
                if i == self.parts.len() {
                    return Ok(());
                }
                self.cur[i] += 1;
                if self.cur[i] < self.hi[i] {
                    self.target[i] = self.parts[i].steps[self.cur[i] as usize].to;
                    break;
                }
                self.cur[i] = self.lo[i];
                self.target[i] = self.parts[i].steps[self.lo[i] as usize].to;
                i += 1;
            }
        }
    }

    /// Solves the current combination. For a signal with receiver guard
    /// `r` and sender guard `s`, the handshake conflicts iff one side
    /// forces it and the other forbids it; it is jointly true iff either
    /// side forces it, and jointly free iff both leave it open. Signals
    /// with one endpoint take that endpoint's assignment.
    fn solve(
        &self,
        opts: &ComposeOptions,
        stats: &mut ComposeStats,
        emit: &mut impl FnMut(Guard, &[u32]),
    ) -> Result<()> {
        let (ins, outs) = (self.all_inputs, self.all_outputs);
        let (mut r_must, mut r_free, mut s_must, mut s_free) = (0u128, 0u128, 0u128, 0u128);
        // Interface of every component whose chosen guard has exclusions.
        let mut excluding = 0u128;
        for (part, &cur) in self.parts.iter().zip(&self.cur) {
            let step = &part.steps[cur as usize];
            r_must |= step.in_must;
            r_free |= step.in_free;
            s_must |= step.out_must;
            s_free |= step.out_free;
            if step.excludes {
                excluding |= part.inputs | part.outputs;
            }
        }
        let r_false = ins & !(r_must | r_free);
        let s_false = outs & !(s_must | s_free);
        if (r_must & s_false) | (r_false & s_must) != 0 {
            return Ok(()); // handshake conflict: the combination is infeasible
        }
        let must = r_must | s_must;
        let free_in_only = r_free & !outs;
        let free_out_only = s_free & !ins;
        // Free internal signals couple both endpoints and must be
        // enumerated; so must free signals of components with exclusions,
        // whose own labels have to be concrete to be filtered.
        let enumerate = (r_free & s_free) | ((free_in_only | free_out_only) & excluding);
        let sym_in = free_in_only & !enumerate;
        let sym_out = free_out_only & !enumerate;
        let free = enumerate.count_ones() as usize;
        if free > opts.expand_cap {
            return Err(AutomataError::FreeSignalOverflow {
                free,
                cap: opts.expand_cap,
            });
        }
        // Subsets of `enumerate` in increasing numeric order.
        let mut chosen = 0u128;
        loop {
            let a = (must | chosen) & ins;
            let b = (must | chosen) & outs;
            if excluding == 0 || !self.excluded(a, b) {
                let guard = if sym_in == 0 && sym_out == 0 {
                    stats.expanded_labels += 1;
                    Guard::Exact(Label::new(SignalSet(a), SignalSet(b)))
                } else {
                    stats.family_guards += 1;
                    Guard::from(LabelFamily {
                        in_must: SignalSet(a),
                        in_free: SignalSet(sym_in),
                        out_must: SignalSet(b),
                        out_free: SignalSet(sym_out),
                        excluded: Vec::new(),
                    })
                };
                emit(guard, &self.target);
            }
            if chosen == enumerate {
                return Ok(());
            }
            chosen = chosen.wrapping_sub(enumerate) & enumerate;
        }
    }

    /// Whether the concrete joint label `(a, b)` restricted to some
    /// component is on that component's exclusion list.
    fn excluded(&self, a: u128, b: u128) -> bool {
        self.parts.iter().enumerate().any(|(i, part)| {
            let step = &part.steps[self.cur[i] as usize];
            if !step.excludes {
                return false;
            }
            let row = part.automaton.transitions_from(StateId(self.source[i]));
            let Guard::Family(f) = &row[(self.cur[i] - self.lo[i]) as usize].guard else {
                unreachable!("only family guards carry exclusions");
            };
            let own = Label::new(SignalSet(a & part.inputs), SignalSet(b & part.outputs));
            f.excluded.contains(&own)
        })
    }
}

/// The product state name `c0||d1` of a component tuple, built with one
/// allocation.
pub(crate) fn product_state_name(parts: &[&Automaton], tuple: &[u32]) -> String {
    let names = || {
        tuple
            .iter()
            .zip(parts)
            .map(|(&s, p)| p.state_name(StateId(s)))
    };
    let len = names().map(str::len).sum::<usize>() + 2 * tuple.len().saturating_sub(1);
    let mut name = String::with_capacity(len);
    for (i, part) in names().enumerate() {
        if i > 0 {
            name.push_str("||");
        }
        name.push_str(part);
    }
    name
}
