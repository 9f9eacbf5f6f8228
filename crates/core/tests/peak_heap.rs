//! The placer's memory contract: a run holds at most one incremental
//! objective evaluator at a time (DESIGN.md §11). Global placement prices
//! no moves, so none exists while it runs; the legalization stages share
//! the one built from global's placement.
//!
//! A counting global allocator measures live heap bytes. The file holds
//! a single test so no other test's allocations share the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tvp_bookshelf::synth::{generate, SynthConfig};
use tvp_core::objective::{IncrementalObjective, ObjectiveModel};
use tvp_core::{Chip, Placement, Placer, PlacerConfig};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// On a 1k design at one thread, the heap peak of `Placer::place` above
/// its starting level stays below two evaluators' worth of bytes. A run
/// that kept an idle evaluator through global, or built the next one
/// while the last was alive, peaks above 2E.
#[test]
fn placement_peak_heap_stays_below_two_evaluators() {
    let netlist = generate(&SynthConfig::named("hot", 1000, 1000.0 * 5.0e-12)).expect("synth");
    let config = PlacerConfig::new(4)
        .with_partition_starts(4)
        .with_threads(1);
    let chip = Chip::from_netlist(&netlist, &config).expect("chip fits");
    let model = ObjectiveModel::new(&netlist, &chip, &config).expect("model builds");

    // E: the bytes one evaluator keeps live, its placement included.
    let before = live();
    let objective = IncrementalObjective::new(
        &netlist,
        &model,
        Placement::centered(netlist.num_cells(), &chip),
    );
    let evaluator = live() - before;
    drop(objective);

    let placer = Placer::new(config);
    let base = live();
    PEAK.store(base, Ordering::Relaxed);
    let result = placer.place(&netlist).expect("placement succeeds");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    drop(result);

    eprintln!(
        "evaluator E = {evaluator} B, place peak = {peak} B ({:.2} E)",
        peak as f64 / evaluator as f64
    );
    assert!(evaluator > 0);
    assert!(
        peak < 2 * evaluator,
        "place peaked at {peak} B above its start, not below 2E = {} B",
        2 * evaluator
    );
}
