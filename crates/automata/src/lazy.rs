//! On-the-fly product exploration with arena/struct-of-arrays storage.
//!
//! [`LazyProduct`] explores the synchronous product row by row over flat
//! storage, solving each row with the compiled row kernel
//! ([`crate::kernel`]), which it builds once in [`LazyProduct::new`]:
//!
//! * one `u32` arena holds every component-state tuple (stride = number of
//!   components), so a product state is a slice, not a `Vec`;
//! * expanded rows live in CSR-style blocks (`row_off`/`row_len` into one
//!   flat target array), with `u32::MAX` marking rows not yet expanded;
//! * the tuple→id interner keys each tuple by a `u64` code: the exact
//!   mixed-radix number of the tuple when the component sizes allow it
//!   (a code match is a hit, the arena is never read), a multiply-xor hash
//!   confirmed against the arena otherwise. Codes are probed in an
//!   open-addressed, power-of-two table — unless they are exact and a
//!   `u32` per cell of the `∏|Q_i|` grid costs no more bytes than that
//!   table, in which case the grid is direct-mapped and an intern is one
//!   indexed load. No per-key allocation, no `Vec<StateId>` clones;
//! * duplicate row entries are dropped with a generation stamp per product
//!   state instead of a scan of the row built so far.
//!
//! Consumers that only need reachability (the fused checker in
//! `muml-logic`) drive [`LazyProduct::expand_row`] from their own frontier
//! and stop as soon as the verdict is decided — an early-falsified `AG`
//! never expands the cone behind its witness. Consumers that need the full
//! automaton call [`LazyProduct::expand_all`] +
//! [`LazyProduct::into_composition`], which renumbers states into the
//! canonical discovery order and yields a [`Composition`] bit-identical to
//! [`compose_reference`](crate::compose::compose_reference) (this is how
//! [`compose`](crate::compose::compose) itself is implemented).
//!
//! Storage modes: both record each row's deduplicated targets. With
//! `keep_guards` each expanded row is also written into its final
//! `Vec<Transition>`, which
//! [`into_composition`](LazyProduct::into_composition) moves into the
//! product automaton, building the CSR relation from the recorded targets;
//! without it only the targets are stored — an order of magnitude less
//! memory at 10^6 states — and counterexample labels are recovered by
//! re-running the row kernel on the few rows a witness path actually
//! crosses ([`LazyProduct::first_label_to`]).

use crate::automaton::{Automaton, StateData, StateId, Transition};
use crate::compose::{ComposeOptions, ComposeStats, Composition};
use crate::csr::Csr;
use crate::error::{AutomataError, Result};
use crate::kernel::{product_state_name, RowKernel};
use crate::label::Label;
use crate::prop::PropSet;
use crate::signal::SignalSet;

/// Sentinel in `row_off` marking a state whose outgoing row has not been
/// expanded yet.
const UNEXPANDED: u32 = u32::MAX;

/// Sentinel in the canonical order for a state not numbered yet.
const UNNUMBERED: u32 = u32::MAX;

/// Tuple→id interner over the tuple arena.
///
/// Each slot stores a `u64` code of its tuple next to the product-state id;
/// the tuples themselves live in the arena (`arena[id*k .. id*k+k]`), so
/// inserting allocates nothing. The code is the tuple's mixed-radix number
/// `Σ qᵢ·∏_{j<i}|Q_j|` when the product of the component sizes fits in a
/// `u64`: it is then injective, so a code match is a hit without touching
/// the arena. Otherwise the code is [`tuple_hash`] and a match is confirmed
/// against the arena. Capacity is a power of two, doubled before an insert
/// would reach 1/2 load by re-slotting the stored codes.
///
/// Exact codes index a grid of `∏|Q_i|` cells. Once a `u32` per cell takes
/// no more bytes than the slot table would (checked on construction and at
/// every growth against the capacity being allocated), the table is
/// replaced by a direct map `dense[code] = id`: the resident ids move over
/// from their stored codes, and every later intern is one indexed load with
/// no hash, no probe and no further growth. Sparse grids and hashed codes
/// keep the table, so the direct map never costs more memory than it saves.
#[derive(Debug, Clone)]
struct TupleInterner {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: a slot index is the top bits of the
    /// scrambled code.
    shift: u32,
    len: usize,
    /// Mixed-radix place values `∏_{j<i}|Q_j|` when codes are exact, `None`
    /// when they are hashed.
    places: Option<Vec<u64>>,
    /// Number of cells of the exact-code grid, `∏|Q_i|` (unused when codes
    /// are hashed).
    cells: u64,
    /// The direct map, id per exact code with `u32::MAX` for absent, once
    /// it has replaced `slots`.
    dense: Option<Vec<u32>>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    code: u64,
    /// `u32::MAX` marks a free slot.
    id: u32,
}

const EMPTY_SLOT: Slot = Slot {
    code: 0,
    id: u32::MAX,
};

/// Multiply-xor hash of a packed tuple. The per-element fold mixes with a
/// 64-bit odd constant (splitmix64's increment) so that tuples differing in
/// one low coordinate land far apart.
fn tuple_hash(tuple: &[u32]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &x in tuple {
        h ^= u64::from(x).wrapping_add(0x2545_F491_4F6C_DD1D);
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 29;
    }
    h
}

impl TupleInterner {
    /// An interner for tuples whose `i`-th coordinate is below `sizes[i]`,
    /// with room for `cap` tuples before its first growth.
    fn new(sizes: impl IntoIterator<Item = usize>, cap: usize) -> TupleInterner {
        let mut places = Vec::new();
        let mut place = Some(1u64);
        for size in sizes {
            places.push(place.unwrap_or(0));
            place = place.and_then(|p| p.checked_mul(u64::try_from(size).ok()?));
        }
        let cap = cap.next_power_of_two().max(16);
        let mut it = TupleInterner {
            slots: vec![EMPTY_SLOT; cap],
            shift: 64 - cap.trailing_zeros(),
            len: 0,
            places: place.map(|_| places),
            cells: place.unwrap_or(0),
            dense: None,
        };
        it.switch_to_dense(cap);
        it
    }

    /// Replaces the slot table by the direct map if codes are exact and
    /// the map fits in the bytes of a `cap`-slot table, moving the resident
    /// ids over by their stored codes. Returns whether it switched.
    fn switch_to_dense(&mut self, cap: usize) -> bool {
        let fits = self.places.is_some()
            && (std::mem::size_of::<u32>() as u128) * u128::from(self.cells)
                <= (std::mem::size_of::<Slot>() as u128) * cap as u128;
        if fits {
            let mut dense = vec![EMPTY_SLOT.id; self.cells as usize];
            for slot in std::mem::take(&mut self.slots) {
                if slot.id != EMPTY_SLOT.id {
                    dense[slot.code as usize] = slot.id;
                }
            }
            self.dense = Some(dense);
        }
        fits
    }

    fn code(&self, tuple: &[u32]) -> u64 {
        match &self.places {
            Some(places) => tuple
                .iter()
                .zip(places)
                .map(|(&q, &p)| u64::from(q) * p)
                .sum(),
            None => tuple_hash(tuple),
        }
    }

    /// The first slot to probe for `code`: Fibonacci hashing spreads the
    /// consecutive codes of neighbouring tuples across the table.
    fn home(&self, code: u64) -> usize {
        (code.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Looks up `tuple`, inserting `id` if absent. Returns the resident id
    /// and whether it was inserted. `arena` is the packed tuple storage
    /// keyed by stride `k`; `tuple` must not yet be in the arena when
    /// inserting (the caller appends it on miss).
    fn intern(&mut self, tuple: &[u32], id: u32, arena: &[u32], k: usize) -> (u32, bool) {
        if self.dense.is_none() && (self.len + 1) * 2 >= self.slots.len() {
            self.grow();
        }
        let code = self.code(tuple);
        if let Some(dense) = &mut self.dense {
            let resident = &mut dense[code as usize];
            if *resident != EMPTY_SLOT.id {
                return (*resident, false);
            }
            *resident = id;
            self.len += 1;
            return (id, true);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(code);
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY_SLOT.id {
                self.slots[i] = Slot { code, id };
                self.len += 1;
                return (id, true);
            }
            if slot.code == code
                && (self.places.is_some() || {
                    let base = slot.id as usize * k;
                    &arena[base..base + k] == tuple
                })
            {
                return (slot.id, false);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        if self.switch_to_dense(new_cap) {
            return;
        }
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        self.shift -= 1;
        let mask = new_cap - 1;
        for slot in old.into_iter().filter(|s| s.id != EMPTY_SLOT.id) {
            let mut i = self.home(slot.code);
            while self.slots[i].id != EMPTY_SLOT.id {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

/// An on-the-fly synchronous product over flat arena storage. See the
/// module docs for the storage layout and the bit-identity contract with
/// [`compose_reference`](crate::compose::compose_reference).
pub struct LazyProduct<'a> {
    kernel: RowKernel<'a>,
    opts: ComposeOptions,
    all_inputs: SignalSet,
    all_outputs: SignalSet,
    table: StateTable<'a>,
    /// Flat successor targets: each row's first-occurrence-deduplicated
    /// targets in emit order, in both storage modes.
    succ: Vec<u32>,
    /// Scratch row reused across expansions (`keep_guards` only).
    row_buf: Vec<Transition>,
    /// Row generation: `table.stamp[t] == generation` iff the row being
    /// expanded already has an entry to `t`.
    generation: u32,
    initial: Vec<u32>,
    stats: ComposeStats,
    expanded_rows: usize,
}

/// The per-product-state columns, kept apart from the row kernel so the
/// kernel can intern targets into them while it walks a row.
struct StateTable<'a> {
    parts: Vec<&'a Automaton>,
    k: usize,
    keep_guards: bool,
    /// Packed component-state tuples, stride `k`.
    arena: Vec<u32>,
    /// Union of component labellings per product state.
    props: Vec<PropSet>,
    /// Offset of each expanded row in `succ` ([`UNEXPANDED`] otherwise).
    row_off: Vec<u32>,
    /// Length of each expanded row.
    row_len: Vec<u32>,
    /// Each state's composed row in emit order (empty unless
    /// `keep_guards`; empty rows allocate nothing).
    rows: Vec<Vec<Transition>>,
    /// Row generation stamp per product state.
    stamp: Vec<u32>,
    interner: TupleInterner,
    /// Discovery-order worklist: every interned state is pushed once;
    /// [`LazyProduct::expand_all`] drains it LIFO, which is exactly the
    /// classic compose exploration order.
    pending: Vec<u32>,
}

impl StateTable<'_> {
    /// Interns `tuple`, appending a fresh state to every column on first
    /// sight.
    fn intern(&mut self, tuple: &[u32]) -> u32 {
        let candidate = self.props.len() as u32;
        let (id, fresh) = self.interner.intern(tuple, candidate, &self.arena, self.k);
        if fresh {
            self.arena.extend_from_slice(tuple);
            let props = tuple
                .iter()
                .zip(&self.parts)
                .fold(PropSet::EMPTY, |acc, (&s, p)| {
                    acc.union(p.props_of(StateId(s)))
                });
            self.props.push(props);
            self.row_off.push(UNEXPANDED);
            self.row_len.push(0);
            self.stamp.push(0);
            if self.keep_guards {
                self.rows.push(Vec::new());
            }
            self.pending.push(id);
        }
        id
    }
}

impl<'a> LazyProduct<'a> {
    /// Starts a lazy product over `parts`, validating universes and pairwise
    /// composability, compiling the row kernel and interning the cartesian
    /// initial tuples (ids `0..initial_count`, same as the classic path).
    ///
    /// With `keep_guards` the product retains every composed `(guard,
    /// target)` pair and can be materialized via
    /// [`into_composition`](LazyProduct::into_composition); without it only
    /// deduplicated successor targets are stored.
    ///
    /// # Errors
    ///
    /// [`AutomataError::UniverseMismatch`] / [`AutomataError::NotComposable`]
    /// as for [`compose`](crate::compose::compose).
    pub fn new(
        parts: &[&'a Automaton],
        opts: &ComposeOptions,
        keep_guards: bool,
    ) -> Result<LazyProduct<'a>> {
        assert!(!parts.is_empty(), "compose requires at least one automaton");
        let universe = parts[0].universe();
        for p in parts {
            if !p.universe().same_as(universe) {
                return Err(AutomataError::UniverseMismatch);
            }
        }
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                if !a.composable_with(b) {
                    return Err(AutomataError::NotComposable {
                        detail: format!(
                            "`{}` and `{}` share inputs {} / outputs {}",
                            a.name(),
                            b.name(),
                            universe.show_signals(a.inputs().intersection(b.inputs())),
                            universe.show_signals(a.outputs().intersection(b.outputs())),
                        ),
                    });
                }
            }
        }
        let all_inputs = parts
            .iter()
            .fold(SignalSet::EMPTY, |acc, p| acc.union(p.inputs()));
        let all_outputs = parts
            .iter()
            .fold(SignalSet::EMPTY, |acc, p| acc.union(p.outputs()));
        let mut lp = LazyProduct {
            kernel: RowKernel::compile(parts),
            opts: opts.clone(),
            all_inputs,
            all_outputs,
            table: StateTable {
                parts: parts.to_vec(),
                k: parts.len(),
                keep_guards,
                arena: Vec::new(),
                props: Vec::new(),
                row_off: Vec::new(),
                row_len: Vec::new(),
                rows: Vec::new(),
                stamp: Vec::new(),
                interner: TupleInterner::new(parts.iter().map(|p| p.state_count()), 64),
                pending: Vec::new(),
            },
            succ: Vec::new(),
            row_buf: Vec::new(),
            generation: 0,
            initial: Vec::new(),
            stats: ComposeStats::default(),
            expanded_rows: 0,
        };
        // Initial product states: Q'' = Q₁ × … × Qₙ, in cartesian order.
        let mut initial_tuples: Vec<Vec<u32>> = vec![Vec::new()];
        for p in parts {
            let mut next = Vec::new();
            for tuple in &initial_tuples {
                for &q in p.initial_states() {
                    let mut t = tuple.clone();
                    t.push(q.0);
                    next.push(t);
                }
            }
            initial_tuples = next;
        }
        for t in initial_tuples {
            let id = lp.table.intern(&t);
            lp.initial.push(id);
        }
        Ok(lp)
    }

    /// Number of product states discovered so far.
    pub fn state_count(&self) -> usize {
        self.table.props.len()
    }

    /// Number of rows expanded so far (the work the fused checker reports
    /// as `states_expanded`).
    pub fn expanded_rows(&self) -> usize {
        self.expanded_rows
    }

    /// The initial product states (ids `0..n` in cartesian order).
    pub fn initial_states(&self) -> &[u32] {
        &self.initial
    }

    /// Work counters of the exploration so far.
    pub fn stats(&self) -> ComposeStats {
        self.stats
    }

    /// The composed interface and universe carriers.
    pub fn universe(&self) -> &crate::universe::Universe {
        self.table.parts[0].universe()
    }

    /// The product name, `a||b||…` as for the classic path.
    pub fn name(&self) -> String {
        self.table
            .parts
            .iter()
            .map(|p| p.name().to_owned())
            .collect::<Vec<_>>()
            .join("||")
    }

    /// The labelling of product state `s` (union of component labellings).
    pub fn props_of(&self, s: u32) -> PropSet {
        self.table.props[s as usize]
    }

    /// The component-state tuple of product state `s`.
    pub fn tuple_of(&self, s: u32) -> &[u32] {
        let base = s as usize * self.table.k;
        &self.table.arena[base..base + self.table.k]
    }

    /// Renders product state `s` in the classic `c0||d1` name format.
    pub fn state_name(&self, s: u32) -> String {
        product_state_name(&self.table.parts, self.tuple_of(s))
    }

    /// Whether row `s` has been expanded.
    pub fn is_expanded(&self, s: u32) -> bool {
        self.table.row_off[s as usize] != UNEXPANDED
    }

    /// Whether product state `s` deadlocks (no feasible joint transition).
    /// Requires the row to be expanded.
    pub fn is_deadlock(&self, s: u32) -> bool {
        debug_assert!(self.is_expanded(s), "deadlock query on unexpanded row");
        self.table.row_len[s as usize] == 0
    }

    /// The distinct successor targets of `s`, in order of first emission —
    /// the same in both storage modes (with `keep_guards`, the targets of
    /// the stored `(guard, target)` row with repeats dropped). Requires the
    /// row to be expanded.
    pub fn successors(&self, s: u32) -> &[u32] {
        debug_assert!(self.is_expanded(s), "successor query on unexpanded row");
        let off = self.table.row_off[s as usize] as usize;
        &self.succ[off..off + self.table.row_len[s as usize] as usize]
    }

    /// Expands the outgoing row of `s` (no-op when already expanded),
    /// interning newly discovered target states.
    ///
    /// # Errors
    ///
    /// [`AutomataError::FreeSignalOverflow`] from the row kernel;
    /// [`AutomataError::Limit`] when the discovered state count passes
    /// `max_states`.
    pub fn expand_row(&mut self, s: u32) -> Result<()> {
        if self.is_expanded(s) {
            return Ok(());
        }
        if self.state_count() > self.opts.max_states {
            return Err(AutomataError::Limit {
                what: "composed state space".into(),
                max: self.opts.max_states,
            });
        }
        let off = u32::try_from(self.succ.len()).expect("transition arena exceeds u32 range");
        assert!(off != UNEXPANDED, "transition arena exceeds u32 range");
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.table.stamp.fill(0);
            self.generation = 1;
        }
        let LazyProduct {
            kernel,
            opts,
            table,
            succ,
            row_buf,
            generation,
            stats,
            ..
        } = self;
        let (k, keep, generation) = (table.k, table.keep_guards, *generation);
        let base = s as usize * k;
        let walked = if kernel.load(&table.arena[base..base + k]) {
            kernel.walk(opts, stats, |guard, target| {
                let id = table.intern(target);
                let repeat =
                    std::mem::replace(&mut table.stamp[id as usize], generation) == generation;
                if !repeat {
                    succ.push(id);
                }
                // Classic dedup: drop exact (guard, target) repeats.
                if keep && (!repeat || !row_buf.iter().any(|t| t.to.0 == id && t.guard == guard)) {
                    row_buf.push(Transition {
                        guard,
                        to: StateId(id),
                    });
                }
            })
        } else {
            Ok(())
        };
        if let Err(e) = walked {
            self.succ.truncate(off as usize);
            self.row_buf.clear();
            return Err(e);
        }
        self.table.row_off[s as usize] = off;
        self.table.row_len[s as usize] = self.succ.len() as u32 - off;
        if self.table.keep_guards && !self.row_buf.is_empty() {
            let mut row = Vec::with_capacity(self.row_buf.len());
            row.append(&mut self.row_buf);
            self.table.rows[s as usize] = row;
        }
        self.expanded_rows += 1;
        Ok(())
    }

    /// Drains the discovery worklist, expanding every reachable row. When no
    /// row has been expanded out of band, this visits states in exactly the
    /// classic compose order, so ids equal the classic numbering.
    ///
    /// # Errors
    ///
    /// See [`LazyProduct::expand_row`].
    pub fn expand_all(&mut self) -> Result<()> {
        while let Some(s) = self.table.pending.pop() {
            self.expand_row(s)?;
        }
        Ok(())
    }

    /// The sample label of the first composed transition `s → to` in emit
    /// order — the label [`Guard::sample_label`](crate::Guard::sample_label)
    /// would yield on the materialized product's row walk. An expanded row
    /// built with `keep_guards` answers from its stored guards; any other
    /// row re-runs the row kernel for `s` (cheap: a witness path crosses
    /// few rows) without expanding it.
    pub fn first_label_to(&mut self, s: u32, to: u32) -> Option<Label> {
        if self.table.keep_guards && self.is_expanded(s) {
            return self.table.rows[s as usize]
                .iter()
                .find(|t| t.to.0 == to)
                .and_then(|t| t.guard.sample_label());
        }
        let k = self.table.k;
        let (from, want) = (s as usize * k, to as usize * k);
        if !self.kernel.load(&self.table.arena[from..from + k]) {
            return None;
        }
        let want = &self.table.arena[want..want + k];
        let mut found: Option<Label> = None;
        let mut scratch = ComposeStats::default();
        let _ = self.kernel.walk(&self.opts, &mut scratch, |guard, tgt| {
            if found.is_none() && tgt == want {
                found = guard.sample_label();
            }
        });
        found
    }

    /// The canonical discovery-order numbering: initial states first (in
    /// cartesian order), then depth-first off a LIFO stack following each
    /// row in emit order — the numbering the classic compose assigns. The
    /// result maps current ids to canonical ids. Call only once every row
    /// is expanded ([`expand_all`](LazyProduct::expand_all)), so that every
    /// discovered state is reached.
    fn canonical_order(&self) -> Vec<u32> {
        let n = self.state_count();
        let mut order: Vec<u32> = vec![UNNUMBERED; n];
        let mut next = 0u32;
        let mut stack: Vec<u32> = Vec::with_capacity(n);
        for &q in &self.initial {
            if order[q as usize] == UNNUMBERED {
                order[q as usize] = next;
                next += 1;
                stack.push(q);
            }
        }
        while let Some(s) = stack.pop() {
            for &t in self.successors(s) {
                if order[t as usize] == UNNUMBERED {
                    order[t as usize] = next;
                    next += 1;
                    stack.push(t);
                }
            }
        }
        assert_eq!(next as usize, n, "expand_all left no unreachable state");
        order
    }

    /// Materializes the fully expanded product as a [`Composition`]
    /// bit-identical to the classic path: canonical renumbering, per-state
    /// rows, origin tuples, and the CSR relation. Rows are moved, not
    /// cloned; their targets are rewritten only when the canonical order
    /// differs from the discovery order.
    ///
    /// # Errors
    ///
    /// Any pending expansion error from
    /// [`expand_all`](LazyProduct::expand_all); validation errors as for
    /// [`compose`](crate::compose::compose).
    ///
    /// # Panics
    ///
    /// Panics if the product was built without `keep_guards` (targets alone
    /// cannot reconstitute the transition relation).
    pub fn into_composition(mut self) -> Result<Composition> {
        assert!(
            self.table.keep_guards,
            "into_composition requires a LazyProduct built with keep_guards"
        );
        self.expand_all()?;
        let order = self.canonical_order();
        let n = self.state_count();
        let identity = order.iter().enumerate().all(|(i, &o)| o == i as u32);
        // new id -> old id
        let mut back: Vec<u32> = vec![0; n];
        for (old, &o) in order.iter().enumerate() {
            back[o as usize] = old as u32;
        }
        let mut states: Vec<StateData> = Vec::with_capacity(n);
        let mut origin: Vec<Vec<StateId>> = Vec::with_capacity(n);
        for &old in &back {
            states.push(StateData {
                name: self.state_name(old),
                props: self.table.props[old as usize],
            });
            origin.push(self.tuple_of(old).iter().map(|&x| StateId(x)).collect());
        }
        let mut rows = std::mem::take(&mut self.table.rows);
        let adj: Vec<Vec<Transition>> = if identity {
            rows
        } else {
            back.iter()
                .map(|&old| {
                    let mut row = std::mem::take(&mut rows[old as usize]);
                    for t in &mut row {
                        t.to = StateId(order[t.to.index()]);
                    }
                    row
                })
                .collect()
        };
        let initial: Vec<StateId> = self
            .initial
            .iter()
            .map(|&q| StateId(order[q as usize]))
            .collect();
        let automaton = Automaton {
            universe: self.table.parts[0].universe().clone(),
            name: self.name(),
            inputs: self.all_inputs,
            outputs: self.all_outputs,
            states,
            adj,
            initial,
        };
        automaton.validate()?;
        // Every kernel guard admits at least one label, so the deduplicated
        // successor rows are exactly the live targets `Csr::of` would
        // collect from the guards.
        let csr = Csr::build(n, |s, row| {
            row.extend(self.successors(back[s]).iter().map(|&t| order[t as usize]));
        });
        Ok(Composition {
            automaton,
            component_names: self
                .table
                .parts
                .iter()
                .map(|p| p.name().to_owned())
                .collect(),
            interfaces: self
                .table
                .parts
                .iter()
                .map(|p| (p.inputs(), p.outputs()))
                .collect(),
            origin,
            stats: self.stats,
            csr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::universe::Universe;

    fn pair(u: &Universe) -> (Automaton, Automaton) {
        let c = AutomatonBuilder::new(u, "client")
            .output("req")
            .input("rsp")
            .state("idle")
            .initial("idle")
            .state("waiting")
            .transition("idle", [], ["req"], "waiting")
            .transition("waiting", ["rsp"], [], "idle")
            .build()
            .unwrap();
        let s = AutomatonBuilder::new(u, "server")
            .input("req")
            .output("rsp")
            .state("ready")
            .initial("ready")
            .state("busy")
            .transition("ready", ["req"], [], "busy")
            .transition("busy", [], ["rsp"], "ready")
            .build()
            .unwrap();
        (c, s)
    }

    #[test]
    fn interner_interns_both_code_kinds_through_growth() {
        // 200 × 1400 fits a u64, so codes are exact; two coordinates of
        // usize::MAX values do not, so codes are hashed.
        for (sizes, exact) in [([200, 1400], true), ([usize::MAX; 2], false)] {
            let mut it = TupleInterner::new(sizes, 4);
            assert_eq!(it.places.is_some(), exact);
            let mut arena: Vec<u32> = Vec::new();
            for i in 0..200u32 {
                let tuple = [i, i * 7];
                let id = arena.len() as u32 / 2;
                assert_eq!(it.intern(&tuple, id, &arena, 2), (id, true));
                arena.extend_from_slice(&tuple);
            }
            assert_eq!(it.len, 200);
            assert!(it.slots.len() >= 2 * 200, "the table grew past 1/2 load");
            for i in 0..200u32 {
                assert_eq!(it.intern(&[i, i * 7], 999, &arena, 2), (i, false));
            }
            // Swapped coordinates are distinct tuples under both codes.
            assert_eq!(it.intern(&[7, 1], 200, &arena, 2), (200, true));
        }
    }

    /// Interns `[i % 16, i / 16]` for `i` in `0..n` with fresh ids, the
    /// arena kept in step, and returns how many slots the table had after
    /// each insert (0 once direct-mapped).
    fn intern_grid(it: &mut TupleInterner, arena: &mut Vec<u32>, n: u32) -> Vec<usize> {
        (0..n)
            .map(|i| {
                let tuple = [i % 16, i / 16];
                assert_eq!(it.intern(&tuple, i, arena, 2), (i, true));
                arena.extend_from_slice(&tuple);
                it.slots.len()
            })
            .collect()
    }

    #[test]
    fn interner_switches_to_the_direct_map_when_it_is_no_larger() {
        // 16 × 16 = 256 cells of 4 bytes fit 64 slots of 16 bytes exactly:
        // the growth from 32 to 64 slots (at the 16th insert) switches.
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        let mut it = TupleInterner::new([16, 16], 4);
        let mut arena = Vec::new();
        let caps = intern_grid(&mut it, &mut arena, 40);
        assert_eq!(caps[..7], [16; 7]);
        assert_eq!(caps[7..15], [32; 8]);
        assert!(caps[15..].iter().all(|&c| c == 0), "switched at insert 16");
        assert_eq!(it.dense.as_ref().map(Vec::len), Some(256));
        assert_eq!(it.len, 40);
        // Tuples interned before and after the switch keep their ids.
        for i in 0..40 {
            assert_eq!(it.intern(&[i % 16, i / 16], 999, &arena, 2), (i, false));
        }
        assert_eq!(it.intern(&[15, 15], 40, &arena, 2), (40, true));
        // A grid that fits the first table is direct-mapped from the start.
        assert!(TupleInterner::new([4, 4], 4).dense.is_some());
    }

    #[test]
    fn interner_keeps_the_table_while_the_direct_map_is_larger() {
        // 16 × 17 = 272 cells need 1,088 bytes: more than 64 slots (1,024),
        // so the switch waits for the growth to 128 slots.
        let mut it = TupleInterner::new([16, 17], 4);
        let mut arena = Vec::new();
        let caps = intern_grid(&mut it, &mut arena, 40);
        assert_eq!(caps[15..31], [64; 16]);
        assert!(caps[31..].iter().all(|&c| c == 0), "switched at insert 32");
        // A sparse grid (10⁸ cells, 200 tuples) never switches.
        let mut it = TupleInterner::new([10_000, 10_000], 4);
        let mut arena = Vec::new();
        let caps = intern_grid(&mut it, &mut arena, 200);
        assert_eq!(caps.last(), Some(&512));
        assert!(it.dense.is_none());
        assert!(4 * it.cells > 16 * it.slots.len() as u64);
    }

    #[test]
    fn hashed_interner_never_switches() {
        // Three coordinates of 2³² values overflow a u64 code, so codes
        // are hashed and there is no grid to map, however many tuples.
        let mut it = TupleInterner::new([1 << 32; 3], 4);
        assert!(it.places.is_none());
        let mut arena = Vec::new();
        for i in 0..5000u32 {
            let tuple = [i % 16, i / 16, 0];
            assert_eq!(it.intern(&tuple, i, &arena, 3), (i, true));
            arena.extend_from_slice(&tuple);
            assert!(it.dense.is_none());
        }
        assert_eq!(it.slots.len(), 16_384);
        for i in 0..5000 {
            assert_eq!(it.intern(&[i % 16, i / 16, 0], 9999, &arena, 3), (i, false));
        }
    }

    #[test]
    fn lazy_rows_match_compose_rows() {
        let u = Universe::new();
        let (c, s) = pair(&u);
        let classic = crate::compose::compose2(&c, &s).unwrap();
        let mut lp = LazyProduct::new(&[&c, &s], &ComposeOptions::default(), true).unwrap();
        lp.expand_all().unwrap();
        assert_eq!(lp.state_count(), classic.automaton.state_count());
        for st in 0..lp.state_count() as u32 {
            assert_eq!(lp.state_name(st), classic.automaton.state_name(StateId(st)));
            assert_eq!(lp.props_of(st), classic.automaton.props_of(StateId(st)));
        }
    }

    #[test]
    fn out_of_order_expansion_renumbers_to_classic() {
        let u = Universe::new();
        let (c, s) = pair(&u);
        let classic = crate::compose::compose2(&c, &s).unwrap();
        let mut lp = LazyProduct::new(&[&c, &s], &ComposeOptions::default(), true).unwrap();
        // Expand in discovery order (the worklist is LIFO, so touching id 0
        // first is "out of band"), then materialize.
        lp.expand_row(0).unwrap();
        let comp = lp.into_composition().unwrap();
        assert_eq!(
            comp.automaton.state_count(),
            classic.automaton.state_count()
        );
        for st in classic.automaton.state_ids() {
            assert_eq!(
                comp.automaton.state_name(st),
                classic.automaton.state_name(st)
            );
            assert_eq!(
                comp.automaton.transitions_from(st),
                classic.automaton.transitions_from(st)
            );
        }
        assert_eq!(comp.csr, classic.csr);
        assert_eq!(comp.origin, classic.origin);
    }

    #[test]
    fn targets_mode_recovers_labels_by_reexpansion() {
        let u = Universe::new();
        let (c, s) = pair(&u);
        let mut with = LazyProduct::new(&[&c, &s], &ComposeOptions::default(), true).unwrap();
        with.expand_all().unwrap();
        let mut without = LazyProduct::new(&[&c, &s], &ComposeOptions::default(), false).unwrap();
        without.expand_all().unwrap();
        assert_eq!(with.state_count(), without.state_count());
        for st in 0..with.state_count() as u32 {
            let succ = with.successors(st).to_vec();
            assert_eq!(without.successors(st), succ.as_slice());
            for &t in &succ {
                assert_eq!(with.first_label_to(st, t), without.first_label_to(st, t));
            }
        }
    }

    #[test]
    fn first_label_to_reexpands_unexpanded_rows_in_both_modes() {
        let u = Universe::new();
        let (c, s) = pair(&u);
        let rsp = SignalSet::singleton(u.signal("rsp"));
        for keep_guards in [true, false] {
            let mut lp =
                LazyProduct::new(&[&c, &s], &ComposeOptions::default(), keep_guards).unwrap();
            // Expanding the initial row discovers (waiting, busy) but leaves
            // its own row unexpanded.
            lp.expand_row(0).unwrap();
            let next = lp.successors(0)[0];
            assert!(!lp.is_expanded(next));
            let stats = lp.stats();
            assert_eq!(
                lp.first_label_to(next, 0),
                Some(Label::new(rsp, rsp)),
                "keep_guards = {keep_guards}"
            );
            assert_eq!(lp.first_label_to(next, next), None);
            // Answering re-ran the kernel without expanding or counting.
            assert!(!lp.is_expanded(next));
            assert_eq!(lp.stats(), stats);
        }
    }

    #[test]
    fn deadlock_rows_are_empty() {
        let u = Universe::new();
        let c = pair(&u).0;
        // server that never answers
        let s = AutomatonBuilder::new(&u, "server")
            .input("req")
            .output("rsp")
            .state("ready")
            .initial("ready")
            .state("stuck")
            .transition("ready", ["req"], [], "stuck")
            .build()
            .unwrap();
        let mut lp = LazyProduct::new(&[&c, &s], &ComposeOptions::default(), false).unwrap();
        lp.expand_all().unwrap();
        let dead = (0..lp.state_count() as u32)
            .find(|&st| lp.is_deadlock(st))
            .expect("deadlock state exists");
        assert_eq!(lp.successors(dead), &[] as &[u32]);
    }

    #[test]
    fn state_limit_is_enforced() {
        let u = Universe::new();
        let (c, s) = pair(&u);
        let opts = ComposeOptions {
            max_states: 1,
            ..ComposeOptions::default()
        };
        let mut lp = LazyProduct::new(&[&c, &s], &opts, true).unwrap();
        assert!(matches!(lp.expand_all(), Err(AutomataError::Limit { .. })));
    }
}
