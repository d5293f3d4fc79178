//! Allocation budget of [`compose`]: the compiled row kernel walks every
//! transition combination over reusable scratch buffers, so the heap
//! allocations left per product state are the ones the returned
//! [`Composition`](muml_automata::Composition) owns — the state name, the
//! origin tuple and the row's `Vec<Transition>` — plus amortized growth of
//! the flat arrays. The bytes those allocations request are budgeted too,
//! and the row layout they are dominated by is pinned at compile time.
//!
//! A counting global allocator is confined to this test binary, and the
//! binary holds a single `#[test]` so that no concurrently running test
//! adds to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use muml_automata::{
    compose, Automaton, AutomatonBuilder, ComposeOptions, Guard, Transition, Universe,
};

// A product row holds one `Transition` per composed transition: boxing the
// rare family guards keeps an exact guard's row entry at one cache line.
const _: () = assert!(std::mem::size_of::<Guard>() <= 48);
const _: () = assert!(std::mem::size_of::<Transition>() <= 64);

/// Counts every allocation and reallocation and the bytes each requests,
/// then defers to [`System`].
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocation budget per product state (the per-signal solver this
/// kernel replaced made 37).
const MAX_ALLOCATIONS_PER_STATE: f64 = 4.0;

/// The budget of bytes requested per product state (112-byte transitions
/// with an inline `LabelFamily` needed 1,466).
const MAX_BYTES_PER_STATE: f64 = 1250.0;

/// `k` independent tickers of `m` states each: every state either idles or
/// emits its private `tick` and advances, so the product is the full
/// `m^k` grid with `2^k` combinations per row.
fn tickers(u: &Universe, k: usize, m: usize) -> Vec<Automaton> {
    (0..k)
        .map(|i| {
            let tick = format!("tick{i}");
            let mut b = AutomatonBuilder::new(u, &format!("t{i}")).output(&tick);
            for j in 0..m {
                b = b.state(&format!("s{j}"));
            }
            b = b.initial("s0");
            for j in 0..m {
                let here = format!("s{j}");
                let next = format!("s{}", (j + 1) % m);
                b = b.transition(&here, [], [], &here);
                b = b.transition(&here, [], [tick.as_str()], &next);
            }
            b.build().expect("ticker is well-formed")
        })
        .collect()
}

#[test]
fn ticker_product_stays_within_the_allocation_budget() {
    let u = Universe::new();
    let parts = tickers(&u, 3, 22);
    let refs: Vec<&Automaton> = parts.iter().collect();
    let opts = ComposeOptions::default();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes_before = BYTES.load(Ordering::Relaxed);
    let product = compose(&refs, &opts).expect("ticker grid composes");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;

    let states = product.automaton.state_count();
    assert_eq!(states, 22 * 22 * 22);
    let per_state = allocations as f64 / states as f64;
    let bytes_per_state = bytes as f64 / states as f64;
    println!("{allocations} allocations for {states} product states: {per_state:.2} per state");
    println!("{bytes} bytes for {states} product states: {bytes_per_state:.0} per state");
    assert!(
        per_state <= MAX_ALLOCATIONS_PER_STATE,
        "{per_state:.2} allocations per product state exceeds {MAX_ALLOCATIONS_PER_STATE}"
    );
    assert!(
        bytes_per_state <= MAX_BYTES_PER_STATE,
        "{bytes_per_state:.0} bytes per product state exceeds {MAX_BYTES_PER_STATE}"
    );
}
