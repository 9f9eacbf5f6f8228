//! Bitwise placement regression for the hotpaths reference designs.
//!
//! The threading contract says the pipeline's result is a pure function
//! of the input and the seed — never the worker count. These tests pin
//! that promise on the exact designs the hotpaths harness uses: the
//! FNV-1a digest of every cell's `(x, y, layer)` bits, and the bits of
//! the reported objective, must be identical at 1, 2, and 4 threads, in
//! WL+ILV mode and in thermal mode (α_TEMP = 1e-4). Any divergence means
//! a reduction or work-decomposition order leaked thread count into the
//! math.
//!
//! (The digest itself is hardware-run history, not an assertion: pinning
//! the literal would couple the test to one libm/CPU; pinning
//! cross-thread equality catches the bugs this guards against on every
//! machine. On the reference box the 1k value was `ebbdbc0c5bcd4a79`
//! through the serial coarse-pass era and moved to `eb13799fa98c9973`
//! when the coarse global/local passes switched to the batched
//! propose/commit engine — a documented transition with measured quality
//! parity: objective 2.400667e-2 vs 2.340347e-2 (+2.6%, noise-scale at
//! 1k) and at 10k (`91c23d0deb32ba2f`) objective 5.462374e-1 vs
//! 5.460820e-1 (+0.03%) with ILV *improved* 8974 → 8837. The digests
//! moved a second time when cell shifting switched to the row-parallel
//! frozen-pricing engine with stall-detected convergence-adaptive
//! spreads (DESIGN.md §17): 1k `eb13799fa98c9973` → `f82aa0d01e436964`
//! with objective 2.400667e-2 → 2.403208e-2 (+0.11%) and 10k
//! `91c23d0deb32ba2f` → `c71075bc67d2a904` with objective 5.462374e-1 →
//! 5.475507e-1 (+0.24%), ILV 8837 → 8846 — noise-scale both ways. The
//! thermal case read `a16e1be21c8a1f7c` (1k, α_TEMP = 1e-4) when it was
//! added, and `74793f4ccb7b1c37` on the 3k design. It moved once when
//! the probe fold began pricing Eq. 3's thermal term, so thermal moves
//! price through it and thermal shifting runs the row-parallel engine
//! (DESIGN.md §11, §17): 1k `a16e1be21c8a1f7c` → `7b8a205f6e1e0f42` with
//! objective 9.734572e-2 → 9.730764e-2 (−0.04%), 3k `74793f4ccb7b1c37` →
//! `444ea2b68a314424` with objective 3.796973e-1 → 3.806983e-1
//! (+0.26%). Over `tvp synth` seeds 1–8 at 4 layers the median change
//! was +0.34% (1k, better on 3 of 8) and −0.35% (3k, better on 5 of 8)
//! in objective, +0.41% and −0.18% in T_max. The WL+ILV digests did not
//! move. Pricing swaps and move pairs as two probe folds instead of a
//! staged workspace moved no digest in either mode.)

use tvp_bookshelf::synth::{generate, SynthConfig};
use tvp_core::{Placer, PlacerConfig};
use tvp_netlist::hash::fnv1a;
use tvp_netlist::CellId;

/// The hotpaths reference configuration: 4 layers, 4 partition starts.
fn reference_config() -> PlacerConfig {
    PlacerConfig::new(4).with_partition_starts(4)
}

/// The placement digest and the reported objective's bits of one run.
fn placement_outcome(cells: usize, config: &PlacerConfig, threads: usize) -> (u64, u64) {
    let netlist =
        generate(&SynthConfig::named("hot", cells, cells as f64 * 5.0e-12)).expect("synth");
    let placer = Placer::new(config.clone().with_threads(threads));
    let result = placer.place(&netlist).expect("placement succeeds");
    let mut bytes = Vec::with_capacity(netlist.num_cells() * 18);
    for i in 0..netlist.num_cells() {
        let (x, y, layer) = result.placement.position(CellId::new(i));
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        bytes.extend_from_slice(&y.to_bits().to_le_bytes());
        bytes.extend_from_slice(&layer.to_le_bytes());
    }
    (fnv1a(bytes), result.metrics.objective.to_bits())
}

/// Asserts that `config` places the `cells`-cell design bitwise
/// identically, and reports bitwise the same objective, at 1, 2, and 4
/// threads.
fn assert_thread_invariant(cells: usize, config: PlacerConfig) {
    let (digest, objective) = placement_outcome(cells, &config, 1);
    for threads in [2usize, 4] {
        let (d, o) = placement_outcome(cells, &config, threads);
        assert_eq!(digest, d, "placement digest diverged at threads={threads}");
        assert_eq!(
            objective,
            o,
            "objective diverged at threads={threads}: {} vs {}",
            f64::from_bits(objective),
            f64::from_bits(o)
        );
    }
}

#[test]
fn reference_1k_placement_hash_is_identical_across_threads() {
    assert_thread_invariant(1000, reference_config());
}

/// The 10k design drives the batched coarse engine through many more
/// batches (and the parallel phase-A chunking through many more chunk
/// boundaries) than the 1k design does, so it exercises the
/// deterministic-merge contract where it is most likely to break. It is
/// also the one design with more nets than one objective-sum chunk.
#[test]
fn reference_10k_placement_hash_is_identical_across_threads() {
    assert_thread_invariant(10_000, reference_config());
}

/// Thermal mode runs the serial move loop, prices the thermal term in
/// every probe and sums it into the objective, so its cross-thread
/// equality is pinned separately.
#[test]
fn thermal_1k_placement_hash_is_identical_across_threads() {
    assert_thread_invariant(1000, reference_config().with_alpha_temp(1.0e-4));
}
