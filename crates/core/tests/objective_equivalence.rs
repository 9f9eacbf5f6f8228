//! Incremental-vs-from-scratch equivalence properties for the delta
//! engine (DESIGN.md §11).
//!
//! The contract: after an arbitrary sequence of moves and swaps, every
//! incrementally maintained cache — per-net extremes/geometry and, when
//! the thermal term is active, `cell_power` and `cell_resistance` — is
//! *bitwise* equal to what a from-scratch `rebuild()` of the same
//! placement produces, at every thread count. Pricing is read-only, and
//! a probe's delta is bitwise equal to the delta its commit applies, in
//! both objective modes, for single moves and for pairs; with the thermal
//! term the single-move probe also equals the `delta_move_rescan` oracle
//! bit for bit.
//! The probe memo never serves a stale entry: after every commit, the
//! moved cells and their net neighbours price exactly like they do on a
//! freshly built evaluator of the same placement. The commits include
//! bulk sweep commits (`apply_sweep`), and the designs include cells
//! with several pins on one net (the multi-pin pricing path).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use tvp_bookshelf::synth::{generate, SynthConfig};
use tvp_core::objective::{CellMove, IncrementalObjective, ObjectiveModel};
use tvp_core::{Chip, Placement, PlacerConfig};
use tvp_netlist::{CellId, NetId, Netlist, NetlistBuilder, PinDirection};

/// A synthetic design, or (`shared`) a random one where about a fifth of
/// the connections put a second pin of a cell on a net it already
/// touches, at a different offset.
fn random_design(cells: usize, seed: u64, shared: bool) -> Netlist {
    if !shared {
        return generate(&SynthConfig::named("eq", cells, cells as f64 * 5.0e-12).with_seed(seed))
            .expect("synthetic design generates");
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new().allow_shared_net_pins();
    let ids: Vec<CellId> = (0..cells)
        .map(|i| b.add_cell(format!("c{i}"), 2.0e-6, 1.0e-6))
        .collect();
    let offset = |rng: &mut SmallRng| {
        (
            rng.random_range(-1.0e-6..1.0e-6),
            rng.random_range(-5.0e-7..5.0e-7),
        )
    };
    let mut shared_pins = 0;
    for e in 0..cells {
        let net = b.add_net(format!("n{e}"));
        let degree = rng.random_range(2..6);
        let mut pins: Vec<CellId> = Vec::new();
        for k in 0..degree {
            let cell = if k > 0 && rng.random_range(0..5) == 0 {
                pins[rng.random_range(0..pins.len())]
            } else {
                ids[rng.random_range(0..cells)]
            };
            let dir = if k == 0 {
                PinDirection::Output
            } else {
                PinDirection::Input
            };
            let (dx, dy) = offset(&mut rng);
            b.connect_with_offset(net, cell, dir, dx, dy)
                .expect("shared-pin connection");
            shared_pins += pins.contains(&cell) as usize;
            pins.push(cell);
        }
    }
    assert!(
        shared_pins > 0,
        "the design must exercise the multi-pin path"
    );
    b.build().expect("shared-pin design builds")
}

/// Everything the probe memo answers for one cell and candidate
/// position, as raw bits: `delta_move` and the optimal-region exclusion
/// rectangles. The batch fold prices the candidate beside the cell's own
/// position, and each of its sums must equal the single probe of the
/// same target bit for bit.
type ProbeBits = (u64, Vec<[u64; 4]>);

fn probe_bits(
    obj: &IncrementalObjective<'_>,
    cell: CellId,
    (x, y, l): (f64, f64, u16),
) -> ProbeBits {
    let live = obj.delta_move(cell, x, y, l).to_bits();
    let here = obj.placement().position(cell);
    let mut sums = [0.0; 2];
    obj.delta_move_batch(cell, &[(x, y, l), here], &mut sums);
    assert_eq!(sums[0].to_bits(), live, "batch fold == delta_move");
    assert_eq!(
        sums[1].to_bits(),
        obj.delta_move(cell, here.0, here.1, here.2).to_bits(),
        "batch fold of cell {} at its own position",
        cell.index()
    );
    let mut rects = Vec::new();
    obj.exclusion_rects(cell, |x0, x1, y0, y1| {
        rects.push([x0.to_bits(), x1.to_bits(), y0.to_bits(), y1.to_bits()]);
    });
    (live, rects)
}

/// The optimal-region rectangles of `cell` by direct scan, as sorted
/// bits: per own pin, the bounding box of its net's pins on other cells
/// (nets the cell fully owns contribute nothing) — the independent
/// oracle for `exclusion_rects`.
fn scanned_rects(netlist: &Netlist, placement: &Placement, cell: CellId) -> Vec<[u64; 4]> {
    let mut rects = Vec::new();
    for &p in netlist.cell_pins(cell) {
        let e = netlist.pin(p).net();
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        for &q in netlist.net_pins(e) {
            let pin = netlist.pin(q);
            if pin.cell() == cell {
                continue;
            }
            let (x, y, _) = placement.position(pin.cell());
            x0 = x0.min(x + pin.offset_x());
            x1 = x1.max(x + pin.offset_x());
            y0 = y0.min(y + pin.offset_y());
            y1 = y1.max(y + pin.offset_y());
        }
        if x0 != f64::INFINITY {
            rects.push([x0.to_bits(), x1.to_bits(), y0.to_bits(), y1.to_bits()]);
        }
    }
    rects.sort_unstable();
    rects
}

/// The cells whose probe entries committing a move of `moved` can make
/// stale — the moved cells and their net neighbours (capped) — plus one
/// unrelated cell, each paired with a random candidate position.
fn watch_list(
    netlist: &Netlist,
    chip: &Chip,
    moved: &[CellId],
    rng: &mut SmallRng,
) -> Vec<(CellId, (f64, f64, u16))> {
    let mut cells: Vec<CellId> = moved.to_vec();
    for &m in moved {
        for e in netlist.cell_nets(m) {
            for &p in netlist.net_pins(e) {
                let c = netlist.pin(p).cell();
                if cells.len() < 8 && !cells.contains(&c) {
                    cells.push(c);
                }
            }
        }
    }
    cells.push(CellId::new(rng.random_range(0..netlist.num_cells())));
    cells
        .into_iter()
        .map(|c| (c, random_target(chip, rng)))
        .collect()
}

/// A random position on the chip.
fn random_target(chip: &Chip, rng: &mut SmallRng) -> (f64, f64, u16) {
    (
        rng.random_range(0.0..chip.width),
        rng.random_range(0.0..chip.depth),
        rng.random_range(0..chip.num_layers as u16),
    )
}

/// Drives `ops` random commits: per four ops, one swap, one bulk sweep
/// of 2–6 distinct cells, and two moves. Around every commit it probes
/// the watch list — before, so the memo holds entries the commit must
/// drop, and after, asserting bitwise equality with a freshly built
/// evaluator of the committed placement (for a sweep, of `total` too).
fn drive(
    obj: &mut IncrementalObjective<'_>,
    netlist: &Netlist,
    chip: &Chip,
    seed: u64,
    ops: usize,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut probe_rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9);
    for i in 0..ops {
        let c = CellId::new(rng.random_range(0..netlist.num_cells()));
        let watch;
        let sweep = i % 4 == 1;
        if sweep {
            let mut cells = vec![c];
            let size = rng.random_range(2..7).min(netlist.num_cells());
            while cells.len() < size {
                let next = CellId::new(rng.random_range(0..netlist.num_cells()));
                if !cells.contains(&next) {
                    cells.push(next);
                }
            }
            let moves: Vec<CellMove> = cells
                .iter()
                .map(|&cell| {
                    let (x, y, layer) = random_target(chip, &mut rng);
                    CellMove { cell, x, y, layer }
                })
                .collect();
            watch = watch_list(netlist, chip, &cells, &mut probe_rng);
            for &(w, target) in &watch {
                probe_bits(obj, w, target);
            }
            obj.apply_sweep(&moves);
            for m in &moves {
                assert_eq!(obj.placement().position(m.cell), (m.x, m.y, m.layer));
            }
        } else if i % 4 == 0 {
            let mut b = CellId::new(rng.random_range(0..netlist.num_cells()));
            if b == c {
                b = CellId::new((b.index() + 1) % netlist.num_cells());
            }
            watch = watch_list(netlist, chip, &[c, b], &mut probe_rng);
            for &(w, target) in &watch {
                probe_bits(obj, w, target);
            }
            let probe = obj.delta_swap(c, b);
            let applied = obj.apply_swap(c, b);
            assert_eq!(probe, applied, "swap probe == commit");
        } else {
            let (x, y, l) = random_target(chip, &mut rng);
            watch = watch_list(netlist, chip, &[c], &mut probe_rng);
            for &(w, target) in &watch {
                probe_bits(obj, w, target);
            }
            let probe = obj.delta_move(c, x, y, l);
            let applied = obj.apply_move(c, x, y, l);
            assert_eq!(probe, applied, "move probe == commit");
        }
        let fresh = IncrementalObjective::new(netlist, obj.model(), obj.placement().clone());
        if sweep {
            assert_eq!(
                obj.total().to_bits(),
                fresh.total().to_bits(),
                "a sweep commit refolds total like a rebuild (op {i})"
            );
        }
        for &(w, target) in &watch {
            let live = probe_bits(obj, w, target);
            assert_eq!(
                live,
                probe_bits(&fresh, w, target),
                "stale probe of cell {} after op {i}",
                w.index()
            );
            let mut rects = live.1;
            rects.sort_unstable();
            assert_eq!(
                rects,
                scanned_rects(netlist, obj.placement(), w),
                "exclusion rectangles of cell {} differ from a scan after op {i}",
                w.index()
            );
        }
    }
}

/// Drives a centered placement of `netlist` at threads 1, 2 and 4 and
/// checks the incremental caches against a from-scratch rebuild of the
/// final placement, bit for bit.
fn assert_caches_match_rebuild(netlist: &Netlist, seed: u64, thermal: bool) {
    let alpha_temp = if thermal { 1.0e-4 } else { 0.0 };
    let config = PlacerConfig::new(4)
        .with_alpha_ilv(1.0e-5)
        .with_alpha_temp(alpha_temp);
    let chip = Chip::from_netlist(netlist, &config).expect("chip fits");
    let model = ObjectiveModel::new(netlist, &chip, &config).expect("model builds");

    for threads in [1usize, 2, 4] {
        tvp_parallel::with_threads(threads, || {
            let mut obj = IncrementalObjective::new(
                netlist,
                &model,
                Placement::centered(netlist.num_cells(), &chip),
            );
            drive(&mut obj, netlist, &chip, seed ^ 0xA5A5, 300);

            // Rebuild a twin from the *final* placement and compare.
            let mut fresh = IncrementalObjective::new(netlist, &model, obj.placement().clone());
            fresh.rebuild();
            for e in 0..netlist.num_nets() {
                let net = NetId::new(e);
                assert_eq!(
                    obj.net_geometry(net),
                    fresh.net_geometry(net),
                    "net {e} geometry diverged at threads={threads}"
                );
            }
            if alpha_temp > 0.0 {
                for i in 0..netlist.num_cells() {
                    let c = CellId::new(i);
                    assert_eq!(
                        obj.cell_power(c),
                        fresh.cell_power(c),
                        "cell {i} power diverged at threads={threads}"
                    );
                    assert_eq!(
                        obj.cell_resistance(c),
                        fresh.cell_resistance(c),
                        "cell {i} resistance diverged at threads={threads}"
                    );
                }
            }
        });
    }
}

/// Asserts that `obj`'s caches equal those of an evaluator built from
/// scratch over the same placement, bit for bit.
fn assert_caches_equal_rebuild(obj: &IncrementalObjective<'_>, netlist: &Netlist, what: &str) {
    let fresh = IncrementalObjective::new(netlist, obj.model(), obj.placement().clone());
    for e in 0..netlist.num_nets() {
        let net = NetId::new(e);
        assert_eq!(
            obj.net_geometry(net),
            fresh.net_geometry(net),
            "net {e} after {what}"
        );
    }
    for i in 0..netlist.num_cells() {
        let c = CellId::new(i);
        assert_eq!(
            obj.cell_power(c).to_bits(),
            fresh.cell_power(c).to_bits(),
            "power {i} after {what}"
        );
        assert_eq!(
            obj.cell_resistance(c).to_bits(),
            fresh.cell_resistance(c).to_bits(),
            "resistance {i} after {what}"
        );
    }
}

/// A pair of moves: a random cell, and for nine draws in ten a pin cell
/// of one of its nets (else any other cell). Even draws swap the two
/// cells' positions; odd draws send both to random targets. Returns
/// whether the cells share a net.
fn neighbour_pair(
    netlist: &Netlist,
    chip: &Chip,
    obj: &IncrementalObjective<'_>,
    i: usize,
    rng: &mut SmallRng,
) -> (CellMove, CellMove, bool) {
    let n = netlist.num_cells();
    let a = CellId::new(rng.random_range(0..n));
    let neighbours: Vec<CellId> = netlist
        .cell_nets(a)
        .flat_map(|e| netlist.net_pins(e).iter().map(|&p| netlist.pin(p).cell()))
        .filter(|&c| c != a)
        .collect();
    let b = if !neighbours.is_empty() && rng.random_range(0..10) < 9 {
        neighbours[rng.random_range(0..neighbours.len())]
    } else {
        CellId::new((a.index() + rng.random_range(1..n)) % n)
    };
    let shared = netlist
        .cell_nets(a)
        .any(|e| netlist.cell_nets(b).any(|e2| e2 == e));
    let (pa, pb) = if i.is_multiple_of(2) {
        (obj.placement().position(b), obj.placement().position(a))
    } else {
        (random_target(chip, rng), random_target(chip, rng))
    };
    let at = |cell, (x, y, layer): (f64, f64, u16)| CellMove { cell, x, y, layer };
    (at(a, pa), at(b, pb), shared)
}

/// Prices and commits `pairs` neighbour pairs on a scattered placement
/// at threads 1, 2 and 4, checking every commit (module docs). Returns
/// how many of the pairs shared a net.
fn drive_pairs(netlist: &Netlist, seed: u64, thermal: bool, pairs: usize) -> usize {
    let config = PlacerConfig::new(4)
        .with_alpha_ilv(1.0e-5)
        .with_alpha_temp(if thermal { 1.0e-4 } else { 0.0 });
    let chip = Chip::from_netlist(netlist, &config).expect("chip fits");
    let model = ObjectiveModel::new(netlist, &chip, &config).expect("model builds");
    let mut shared_pairs = 0;
    for threads in [1usize, 2, 4] {
        tvp_parallel::with_threads(threads, || {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x9A1E);
            let mut placement = Placement::centered(netlist.num_cells(), &chip);
            for i in 0..netlist.num_cells() {
                let (x, y, l) = random_target(&chip, &mut rng);
                placement.set(CellId::new(i), x, y, l);
            }
            let mut obj = IncrementalObjective::new(netlist, &model, placement);
            shared_pairs = 0;
            for i in 0..pairs {
                let (first, second, shared) = neighbour_pair(netlist, &chip, &obj, i, &mut rng);
                shared_pairs += shared as usize;
                let probe = obj.delta_pair(first, second);
                if i.is_multiple_of(2) {
                    let swap = obj.delta_swap(first.cell, second.cell);
                    assert_eq!(swap.to_bits(), probe.to_bits(), "delta_swap == delta_pair");
                }
                let before = obj.recompute_total();
                let mut sequential = obj.clone();
                let applied = obj.apply_pair(first, second);
                assert_eq!(
                    probe.to_bits(),
                    applied.to_bits(),
                    "pair probe == commit (pair {i})"
                );
                if thermal {
                    let change = obj.recompute_total() - before;
                    assert!(
                        (applied - change).abs() <= 1.0e-9 * before.abs().max(1.0e-12),
                        "pair {i}: delta {applied} vs recomputed change {change}"
                    );
                }
                // The second leg starts from the first leg's caches, which
                // a commit of the first move rebuilds exactly, except for
                // the power of a second cell that drives one of the first
                // cell's nets: there the pair carries a linear update.
                let carried = netlist
                    .cell_nets(first.cell)
                    .any(|e| netlist.net_driver_cell(e) == Some(second.cell));
                if !(thermal && carried) {
                    let mut legs = sequential.apply_move(first.cell, first.x, first.y, first.layer);
                    legs += sequential.apply_move(second.cell, second.x, second.y, second.layer);
                    assert_eq!(
                        applied.to_bits(),
                        legs.to_bits(),
                        "pair == two moves (pair {i})"
                    );
                    assert_eq!(obj.total().to_bits(), sequential.total().to_bits());
                }
                assert_caches_equal_rebuild(
                    &obj,
                    netlist,
                    &format!("pair {i} at threads={threads}"),
                );
            }
        });
    }
    shared_pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// After randomized commit sequences the incremental caches are
    /// bitwise equal to a from-scratch rebuild of the same placement —
    /// at thread counts 1, 2, and 4, on a synthetic and a shared-pin
    /// design.
    #[test]
    fn caches_match_rebuild_bitwise(
        cells in 60usize..160,
        seed in 0u64..1000,
        thermal in any::<bool>(),
    ) {
        for shared in [false, true] {
            assert_caches_match_rebuild(&random_design(cells, seed, shared), seed, thermal);
        }
    }

    /// The same op sequence leaves bitwise-identical caches, total and
    /// placement at every thread count (nothing depends on the
    /// chunking), on a synthetic and a shared-pin design.
    #[test]
    fn op_sequences_are_thread_count_invariant(
        cells in 60usize..160,
        seed in 0u64..1000,
    ) {
        for shared in [false, true] {
            let netlist = random_design(cells, seed, shared);
            let config = PlacerConfig::new(4)
                .with_alpha_ilv(1.0e-5)
                .with_alpha_temp(1.0e-4);
            let chip = Chip::from_netlist(&netlist, &config).expect("chip fits");
            let model = ObjectiveModel::new(&netlist, &chip, &config).expect("model builds");

            let run = |threads: usize| {
                tvp_parallel::with_threads(threads, || {
                    let mut obj = IncrementalObjective::new(
                        &netlist,
                        &model,
                        Placement::centered(netlist.num_cells(), &chip),
                    );
                    drive(&mut obj, &netlist, &chip, seed ^ 0xC3C3, 300);
                    let geometry: Vec<_> = (0..netlist.num_nets())
                        .map(|e| obj.net_geometry(NetId::new(e)))
                        .collect();
                    let power: Vec<_> = (0..netlist.num_cells())
                        .map(|i| obj.cell_power(CellId::new(i)))
                        .collect();
                    let total = obj.total().to_bits();
                    (obj.into_placement(), geometry, power, total)
                })
            };
            let (p1, g1, w1, t1) = run(1);
            for threads in [2usize, 4] {
                let (p, g, w, t) = run(threads);
                for i in 0..netlist.num_cells() {
                    let c = CellId::new(i);
                    prop_assert_eq!(p1.position(c), p.position(c));
                }
                prop_assert_eq!(&g1, &g);
                prop_assert_eq!(&w1, &w);
                prop_assert_eq!(t1, t);
            }
        }
    }

    /// With the thermal term active, the probe fold adds Eq. 3's terms
    /// in `delta_move_rescan`'s order, so on synthetic designs (no cell
    /// puts two pins on one net, where the rescan double-counts) the two
    /// agree bit for bit — between commits, as the caches move.
    #[test]
    fn thermal_probe_matches_rescan_bitwise(
        cells in 60usize..400,
        seed in 0u64..1000,
    ) {
        let netlist = random_design(cells, seed, false);
        let config = PlacerConfig::new(4)
            .with_alpha_ilv(1.0e-5)
            .with_alpha_temp(1.0e-4);
        let chip = Chip::from_netlist(&netlist, &config).expect("chip fits");
        let model = ObjectiveModel::new(&netlist, &chip, &config).expect("model builds");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7E57);
        let mut placement = Placement::centered(netlist.num_cells(), &chip);
        for i in 0..netlist.num_cells() {
            let (x, y, l) = random_target(&chip, &mut rng);
            placement.set(CellId::new(i), x, y, l);
        }
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        for i in 0..750 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            let (x, y, l) = random_target(&chip, &mut rng);
            let probe = obj.delta_move(c, x, y, l);
            prop_assert_eq!(
                probe.to_bits(),
                obj.delta_move_rescan(c, x, y, l).to_bits(),
                "cell {} probe {}", c.index(), i
            );
            if i % 10 == 0 {
                prop_assert_eq!(obj.apply_move(c, x, y, l).to_bits(), probe.to_bits());
            }
        }
    }

    /// Pricing never mutates: a burst of probes leaves the total, every
    /// cache, and the placement bitwise unchanged.
    #[test]
    fn pricing_is_read_only(
        cells in 60usize..160,
        seed in 0u64..1000,
    ) {
        let netlist = random_design(cells, seed, false);
        let config = PlacerConfig::new(4)
            .with_alpha_ilv(1.0e-5)
            .with_alpha_temp(1.0e-4);
        let chip = Chip::from_netlist(&netlist, &config).expect("chip fits");
        let model = ObjectiveModel::new(&netlist, &chip, &config).expect("model builds");
        let mut obj = IncrementalObjective::new(
            &netlist,
            &model,
            Placement::centered(netlist.num_cells(), &chip),
        );
        drive(&mut obj, &netlist, &chip, seed ^ 0x5A5A, 100);

        let total = obj.total();
        let geometry: Vec<_> = (0..netlist.num_nets())
            .map(|e| obj.net_geometry(NetId::new(e)))
            .collect();
        let power: Vec<_> = (0..netlist.num_cells())
            .map(|i| obj.cell_power(CellId::new(i)))
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            let mut b = CellId::new(rng.random_range(0..netlist.num_cells()));
            if b == c {
                b = CellId::new((b.index() + 1) % netlist.num_cells());
            }
            let _ = obj.delta_move(
                c,
                rng.random_range(0.0..chip.width),
                rng.random_range(0.0..chip.depth),
                rng.random_range(0..chip.num_layers as u16),
            );
            let _ = obj.delta_swap(c, b);
        }
        prop_assert_eq!(obj.total(), total);
        for (e, expected) in geometry.iter().enumerate() {
            prop_assert_eq!(&obj.net_geometry(NetId::new(e)), expected);
        }
        for (i, expected) in power.iter().enumerate() {
            prop_assert_eq!(&obj.cell_power(CellId::new(i)), expected);
        }
    }

    /// Pairs whose cells mostly share a net price as two folds: the
    /// probe equals the commit bit for bit; in WL+ILV mode (and in thermal
    /// mode when no power carries over) it also equals two sequential
    /// `apply_move`s bit for bit; with the thermal term it is within 1e-9
    /// of the objective of the recomputed change; and the caches equal a
    /// rebuild after every commit. Both modes, threads 1/2/4, on a
    /// synthetic and a shared-pin design.
    #[test]
    fn pair_fold_prices_net_sharing_pairs_exactly(
        cells in 60usize..160,
        seed in 0u64..1000,
    ) {
        for shared in [false, true] {
            let netlist = random_design(cells, seed, shared);
            for thermal in [false, true] {
                let pairs = 60;
                let sharing = drive_pairs(&netlist, seed, thermal, pairs);
                prop_assert!(
                    sharing * 2 > pairs,
                    "only {sharing} of {pairs} pairs share a net"
                );
            }
        }
    }
}
