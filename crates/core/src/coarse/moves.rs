//! Objective-driven moves and swaps (paper §4.2).
//!
//! Two procedures share one engine:
//!
//! * **local** — candidate targets are the 3×3×3 bin neighborhood of the
//!   cell's current bin;
//! * **global** — candidates form a target region around the cell's
//!   *optimal region* (the \[14\] idea lifted to 3D): laterally the median
//!   interval of the bounding boxes of the cell's nets with the cell
//!   removed, and vertically every layer (the layer dimension is priced
//!   directly by the objective).
//!
//! For every candidate bin, moving to the bin center and swapping with the
//! best-matched resident cell are both priced with the exact objective
//! delta; the best strictly-improving action is executed. Moves into a bin
//! are only considered when the bin has room (its density stays below the
//! allowance), so spreading from cell shifting is not undone.
//!
//! In WL+ILV mode both passes run as a **batched propose/commit engine**
//! (DESIGN.md §16): cells are taken in the same shuffled order as the
//! serial engine, in fixed-size batches. Phase A prices every cell's
//! candidates in parallel against a [`FrozenPricer`] snapshot of the
//! objective; phase B walks the winning proposals serially in batch
//! order, re-prices each against the live objective, and commits only
//! still-improving actions. Proposals depend only on the snapshot and
//! the chunking is a pure function of the batch length, so results are
//! bitwise identical at every thread count. With the thermal term or an
//! armed thermal pricer the passes fall back to the exact serial loop.
//!
//! Every probe — the cell's own candidates, its swap partners' reverse
//! legs (the measured cost center of phase A), and the optimal-region
//! rectangles — reads the objective's shared probe memo, so a hot-bin
//! partner's entries build once and serve every batch until a commit
//! touches one of its nets (DESIGN.md §11, §17).

use super::mesh::DensityMesh;
use crate::engine::StageRun;
use crate::objective::{FrozenPricer, IncrementalObjective};
use crate::thermal_pricer::ThermalMovePricer;
use crate::Chip;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use tvp_netlist::{CellId, Netlist};
use tvp_parallel as parallel;

/// Density a move target may reach before moves into it are rejected.
const MOVE_DENSITY_ALLOWANCE: f64 = 1.0;

/// Improvement threshold shared by proposal and commit pricing.
const EPS: f64 = 1e-18;

/// Cells per propose/commit batch. Bounds how stale phase-A snapshots
/// can get (everything committed in earlier batches is visible) while
/// leaving enough work per batch to parallelize.
const BATCH: usize = 1024;

/// Chunking floor for phase-A proposal generation: each cell prices on
/// the order of a hundred candidates, so modest chunks already amortize
/// pool dispatch.
const PROPOSE_MIN_CHUNK: usize = 32;

/// One pass of local moves/swaps over all movable cells (random order).
/// Returns the number of improving actions executed.
///
/// When `run` carries a pricer (compact tier + `alpha_temp > 0`), every
/// candidate's objective delta additionally carries the frozen-field
/// thermal term and committed actions re-superpose the moved power
/// (DESIGN.md §14). The pass reports no events.
pub fn local_pass(
    objective: &mut IncrementalObjective<'_>,
    mesh: &mut DensityMesh,
    netlist: &Netlist,
    chip: &Chip,
    rng: &mut SmallRng,
    run: &mut StageRun<'_>,
) -> usize {
    let mut pricer = run.pricer.as_deref_mut();
    let mut order = movable_cells(netlist);
    order.shuffle(rng);
    if pricer.is_none() && objective.frozen_pricer().is_some() {
        return batched_pass(objective, mesh, netlist, chip, &order, PassMode::Local);
    }
    let mut improved = 0;
    let mut candidates = Vec::with_capacity(27);
    for cell in order {
        local_candidates(mesh, cell, &mut candidates);
        if try_best_action(
            objective,
            mesh,
            netlist,
            chip,
            cell,
            &candidates,
            pricer.as_deref_mut(),
        ) {
            improved += 1;
        }
    }
    improved
}

/// Fills `out` with the 3×3×3 bin neighborhood of `cell`'s current bin.
fn local_candidates(mesh: &DensityMesh, cell: CellId, out: &mut Vec<usize>) {
    out.clear();
    let current = mesh.bin_of(cell);
    let (ci, cj, ck) = mesh.coords(current);
    let (nx, ny, nz) = mesh.dims();
    for dk in -1i64..=1 {
        for dj in -1i64..=1 {
            for di in -1i64..=1 {
                let i = ci as i64 + di;
                let j = cj as i64 + dj;
                let k = ck as i64 + dk;
                if i >= 0
                    && j >= 0
                    && k >= 0
                    && (i as usize) < nx
                    && (j as usize) < ny
                    && (k as usize) < nz
                {
                    out.push(mesh.index(i as usize, j as usize, k as usize));
                }
            }
        }
    }
}

/// One pass of global moves/swaps toward each cell's optimal region.
/// Returns the number of improving actions executed. `run`'s pricer
/// prices moves as in [`local_pass`].
pub fn global_pass(
    objective: &mut IncrementalObjective<'_>,
    mesh: &mut DensityMesh,
    netlist: &Netlist,
    chip: &Chip,
    region_bins: usize,
    rng: &mut SmallRng,
    run: &mut StageRun<'_>,
) -> usize {
    let mut pricer = run.pricer.as_deref_mut();
    let mut order = movable_cells(netlist);
    order.shuffle(rng);
    if pricer.is_none() && objective.frozen_pricer().is_some() {
        return batched_pass(
            objective,
            mesh,
            netlist,
            chip,
            &order,
            PassMode::Global { region_bins },
        );
    }
    let mut improved = 0;
    let mut opt = OptScratch::default();
    let mut candidates = Vec::new();
    for cell in order {
        let Some((ox, oy)) = optimal_point(&mut opt, |push| objective.exclusion_rects(cell, push))
        else {
            continue;
        };
        let (ox, oy) = chip.clamp(ox, oy);
        global_candidates(mesh, ox, oy, region_bins, &mut candidates);
        if try_best_action(
            objective,
            mesh,
            netlist,
            chip,
            cell,
            &candidates,
            pricer.as_deref_mut(),
        ) {
            improved += 1;
        }
    }
    improved
}

/// Fills `out` with the global target region around `(ox, oy)`: a fixed
/// number of bins laterally and every layer vertically.
fn global_candidates(
    mesh: &DensityMesh,
    ox: f64,
    oy: f64,
    region_bins: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    let (nx, ny, nz) = mesh.dims();
    let target = mesh.bin_at(ox, oy, 0);
    let (ti, tj, _) = mesh.coords(target);
    let half = (region_bins / 2) as i64;
    for k in 0..nz {
        for dj in -half..=half {
            for di in -half..=half {
                let i = ti as i64 + di;
                let j = tj as i64 + dj;
                if i >= 0 && j >= 0 && (i as usize) < nx && (j as usize) < ny {
                    out.push(mesh.index(i as usize, j as usize, k));
                }
            }
        }
    }
}

/// Candidate-generation mode of [`batched_pass`].
#[derive(Clone, Copy)]
enum PassMode {
    Local,
    Global { region_bins: usize },
}

/// Per-bin movable residents sorted by `(area, id)`, so the best-matched
/// swap partner — the resident whose area is closest to the probing
/// cell's — is a binary search instead of a full bin scan. The scan is
/// O(residents) per candidate bin and the early passes run before
/// spreading, when bins hold piles; this index is what keeps the
/// batched passes linear in candidate count. Frozen during phase A
/// (the mesh doesn't change there) and patched per dirty bin after each
/// batch's commits.
struct PartnerIndex {
    by_bin: Vec<Vec<(f64, CellId)>>,
}

impl PartnerIndex {
    fn build(mesh: &DensityMesh, netlist: &Netlist, movable: &[CellId]) -> Self {
        let (nx, ny, nz) = mesh.dims();
        let mut by_bin = vec![Vec::new(); nx * ny * nz];
        for &cell in movable {
            by_bin[mesh.bin_of(cell)].push((netlist.cell(cell).area(), cell));
        }
        for v in &mut by_bin {
            v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        }
        Self { by_bin }
    }

    /// Re-derives one bin's sorted residents from the live mesh.
    fn rebuild_bin(&mut self, mesh: &DensityMesh, netlist: &Netlist, bin: usize) {
        let v = &mut self.by_bin[bin];
        v.clear();
        v.extend(
            mesh.bin_cells(bin)
                .iter()
                .copied()
                .filter(|&c| netlist.cell(c).is_movable())
                .map(|c| (netlist.cell(c).area(), c)),
        );
        v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    }

    /// The movable resident of `bin` whose area is closest to `area`
    /// (ties resolve to the earlier `(area, id)` entry — deterministic
    /// for any build history).
    fn nearest(&self, bin: usize, area: f64) -> Option<CellId> {
        let v = &self.by_bin[bin];
        let idx = v.partition_point(|&(a, _)| a < area);
        let left = idx.checked_sub(1).and_then(|i| v.get(i).copied());
        let right = v.get(idx).copied();
        match (left, right) {
            (Some((la, lc)), Some((ra, rc))) => {
                if (la - area).abs() <= (ra - area).abs() {
                    Some(lc)
                } else {
                    Some(rc)
                }
            }
            (Some((_, c)), None) | (None, Some((_, c))) => Some(c),
            (None, None) => None,
        }
    }
}

/// One phase-A winner: the cell's best snapshot-priced action. `bin` is
/// the candidate bin whose headroom admitted the move (re-checked
/// against the live mesh at commit).
struct Proposal {
    cell: CellId,
    action: ProposedAction,
}

enum ProposedAction {
    Move {
        bin: usize,
        x: f64,
        y: f64,
        layer: u16,
    },
    Swap {
        with: CellId,
    },
}

/// The batched propose/commit engine (see the module docs). Requires
/// WL+ILV mode (`objective.frozen_pricer()` must be `Some`).
fn batched_pass(
    objective: &mut IncrementalObjective<'_>,
    mesh: &mut DensityMesh,
    netlist: &Netlist,
    chip: &Chip,
    order: &[CellId],
    mode: PassMode,
) -> usize {
    let mut improved = 0;
    let mut partners = PartnerIndex::build(mesh, netlist, order);
    let mut dirty_bins: Vec<usize> = Vec::new();
    for batch in order.chunks(BATCH) {
        // Phase A: parallel snapshot pricing. The snapshot, the mesh, and
        // the chunk boundaries are all independent of the thread count, so
        // the proposal list is too.
        let Some(frozen) = objective.frozen_pricer() else {
            // Unreachable: callers route here only when the pricer exists,
            // and committing moves never disarms it. Degrading to "no more
            // improvements" keeps the pass total-correct regardless.
            return improved;
        };
        let mesh_ref: &DensityMesh = mesh;
        let partners_ref: &PartnerIndex = &partners;
        let proposals: Vec<Vec<Proposal>> =
            parallel::map_chunks(batch.len(), PROPOSE_MIN_CHUNK, |range| {
                let mut opt = OptScratch::default();
                let mut candidates = Vec::new();
                let mut out = Vec::new();
                for &cell in &batch[range] {
                    match mode {
                        PassMode::Local => local_candidates(mesh_ref, cell, &mut candidates),
                        PassMode::Global { region_bins } => {
                            // The medians read the same probe entries
                            // `propose_best` is about to price with — one
                            // build serves both, and no net is rescanned.
                            let Some((ox, oy)) =
                                optimal_point(&mut opt, |push| frozen.exclusion_rects(cell, push))
                            else {
                                continue;
                            };
                            let (ox, oy) = chip.clamp(ox, oy);
                            global_candidates(mesh_ref, ox, oy, region_bins, &mut candidates);
                        }
                    }
                    if let Some(p) = propose_best(
                        &frozen,
                        mesh_ref,
                        partners_ref,
                        netlist,
                        chip,
                        cell,
                        &candidates,
                    ) {
                        out.push(p);
                    }
                }
                out
            });
        // Phase B: serial commits in batch order. Every proposal is
        // re-priced against the live objective (earlier commits in this
        // batch may have changed its value) and its target's headroom is
        // re-checked, so only genuinely improving, legal actions land.
        dirty_bins.clear();
        for p in proposals.iter().flat_map(|v| v.iter()) {
            match p.action {
                ProposedAction::Move { bin, x, y, layer } => {
                    let old_bin = mesh.bin_of(p.cell);
                    if bin == old_bin {
                        continue;
                    }
                    let cell_area = netlist.cell(p.cell).area();
                    let headroom =
                        mesh.capacity() * MOVE_DENSITY_ALLOWANCE - mesh.bin_area(bin) - cell_area;
                    if headroom < 0.0 {
                        continue;
                    }
                    if objective.delta_move(p.cell, x, y, layer) < -EPS {
                        objective.apply_move(p.cell, x, y, layer);
                        mesh.relocate(netlist, p.cell, x, y, layer);
                        dirty_bins.push(old_bin);
                        dirty_bins.push(bin);
                        improved += 1;
                    }
                }
                ProposedAction::Swap { with } => {
                    if objective.delta_swap(p.cell, with) < -EPS {
                        let pa = objective.placement().position(p.cell);
                        let pb = objective.placement().position(with);
                        objective.apply_swap(p.cell, with);
                        mesh.relocate(netlist, p.cell, pb.0, pb.1, pb.2);
                        mesh.relocate(netlist, with, pa.0, pa.1, pa.2);
                        dirty_bins.push(mesh.bin_of(p.cell));
                        dirty_bins.push(mesh.bin_of(with));
                        improved += 1;
                    }
                }
            }
        }
        dirty_bins.sort_unstable();
        dirty_bins.dedup();
        for &bin in &dirty_bins {
            partners.rebuild_bin(mesh, netlist, bin);
        }
    }
    improved
}

/// Phase-A analogue of [`try_best_action`]: prices every candidate
/// against the snapshot and returns the best improving action, without
/// executing anything. Swaps are priced as two independent single-move
/// deltas (exact unless the cells share a net — phase B's exact re-price
/// settles those).
fn propose_best(
    frozen: &FrozenPricer<'_>,
    mesh: &DensityMesh,
    partners: &PartnerIndex,
    netlist: &Netlist,
    chip: &Chip,
    cell: CellId,
    candidates: &[usize],
) -> Option<Proposal> {
    let current_bin = mesh.bin_of(cell);
    let cell_area = netlist.cell(cell).area();
    let pa = frozen.placement().position(cell);
    let mut best: Option<(f64, ProposedAction)> = None;
    for &b in candidates {
        if b == current_bin {
            continue;
        }
        let headroom = mesh.capacity() * MOVE_DENSITY_ALLOWANCE - mesh.bin_area(b) - cell_area;
        if headroom >= 0.0 {
            let (bx, by, layer) = mesh.bin_center(b);
            let (bx, by) = chip.clamp(bx, by);
            let delta = frozen.delta_move(cell, bx, by, layer);
            if delta < best.as_ref().map_or(-EPS, |(d, _)| *d) {
                best = Some((
                    delta,
                    ProposedAction::Move {
                        bin: b,
                        x: bx,
                        y: by,
                        layer,
                    },
                ));
            }
        }
        // `cell` never resides in a scanned bin (its own bin is skipped
        // above), so the index lookup needs no self-exclusion.
        if let Some(partner) = partners.nearest(b, cell_area) {
            let pb = frozen.placement().position(partner);
            let mut delta = frozen.delta_move(cell, pb.0, pb.1, pb.2);
            delta += frozen.delta_move(partner, pa.0, pa.1, pa.2);
            if delta < best.as_ref().map_or(-EPS, |(d, _)| *d) {
                best = Some((delta, ProposedAction::Swap { with: partner }));
            }
        }
    }
    best.map(|(_, action)| Proposal { cell, action })
}

fn movable_cells(netlist: &Netlist) -> Vec<CellId> {
    netlist
        .iter_cells()
        .filter(|(_, c)| c.is_movable())
        .map(|(id, _)| id)
        .collect()
}

/// Reusable buffers for [`optimal_point`]: the per-net bounding-box
/// extremes a cell's median interval is computed from.
#[derive(Default)]
struct OptScratch {
    xs_lo: Vec<f64>,
    xs_hi: Vec<f64>,
    ys_lo: Vec<f64>,
    ys_hi: Vec<f64>,
}

/// The lateral objective-minimum point for a cell: the center of its
/// optimal region (median interval of its nets' bounding boxes with the
/// cell excluded). `exclusion_rects` feeds those boxes — from
/// [`IncrementalObjective::exclusion_rects`] or
/// [`FrozenPricer::exclusion_rects`], which read the same probe memo.
/// `None` for unconnected cells.
fn optimal_point(
    s: &mut OptScratch,
    exclusion_rects: impl FnOnce(&mut dyn FnMut(f64, f64, f64, f64)),
) -> Option<(f64, f64)> {
    s.xs_lo.clear();
    s.xs_hi.clear();
    s.ys_lo.clear();
    s.ys_hi.clear();
    exclusion_rects(&mut |x0, x1, y0, y1| {
        s.xs_lo.push(x0);
        s.xs_hi.push(x1);
        s.ys_lo.push(y0);
        s.ys_hi.push(y1);
    });
    if s.xs_lo.is_empty() {
        return None;
    }
    Some((
        (median(&mut s.xs_lo) + median(&mut s.xs_hi)) / 2.0,
        (median(&mut s.ys_lo) + median(&mut s.ys_hi)) / 2.0,
    ))
}

/// The element a full sort would leave at `len / 2` — selected in O(n)
/// instead of O(n log n); the same comparator makes it value-identical
/// to the historical sort-based median.
fn median(values: &mut [f64]) -> f64 {
    let mid = values.len() / 2;
    *values
        .select_nth_unstable_by(mid, |a, b| {
            a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
        })
        .1
}

/// Prices a move to each candidate bin's center and a swap with the
/// closest-area resident of each candidate bin; executes the best
/// improving action. Returns whether anything was executed.
///
/// With an armed pricer, each candidate's delta additionally carries the
/// frozen-field thermal term, and the executed action commits the moved
/// power back into the cached field. Cell powers come from the
/// incremental `cell_power` cache, which is maintained exactly when
/// `alpha_temp > 0` — the condition under which a pricer exists at all.
fn try_best_action(
    objective: &mut IncrementalObjective<'_>,
    mesh: &mut DensityMesh,
    netlist: &Netlist,
    chip: &Chip,
    cell: CellId,
    candidates: &[usize],
    mut pricer: Option<&mut ThermalMovePricer>,
) -> bool {
    let current_bin = mesh.bin_of(cell);
    let cell_area = netlist.cell(cell).area();
    let current_pos = objective.placement().position(cell);

    enum Action {
        Move { x: f64, y: f64, layer: u16 },
        Swap { with: CellId },
    }
    let mut best: Option<(f64, Action)> = None;

    for &b in candidates {
        if b != current_bin {
            // Move into the bin center, if the bin has room.
            let headroom = mesh.capacity() * MOVE_DENSITY_ALLOWANCE - mesh.bin_area(b) - cell_area;
            if headroom >= 0.0 {
                let (bx, by, layer) = mesh.bin_center(b);
                let (bx, by) = chip.clamp(bx, by);
                let mut delta = objective.delta_move(cell, bx, by, layer);
                if let Some(p) = pricer.as_deref_mut() {
                    delta += p.price(objective.cell_power(cell), current_pos, (bx, by, layer));
                }
                if delta < best.as_ref().map_or(-EPS, |(d, _)| *d) {
                    best = Some((
                        delta,
                        Action::Move {
                            x: bx,
                            y: by,
                            layer,
                        },
                    ));
                }
            }
            // Swap with the resident whose area matches best (keeps both
            // bins' densities stable).
            let partner = mesh
                .bin_cells(b)
                .iter()
                .copied()
                .filter(|&other| other != cell && netlist.cell(other).is_movable())
                .min_by(|&a, &c| {
                    let da = (netlist.cell(a).area() - cell_area).abs();
                    let dc = (netlist.cell(c).area() - cell_area).abs();
                    da.partial_cmp(&dc).unwrap_or(std::cmp::Ordering::Equal)
                });
            if let Some(partner) = partner {
                let mut delta = objective.delta_swap(cell, partner);
                if let Some(p) = pricer.as_deref_mut() {
                    delta += p.price_swap(
                        objective.cell_power(cell),
                        current_pos,
                        objective.cell_power(partner),
                        objective.placement().position(partner),
                    );
                }
                if delta < best.as_ref().map_or(-EPS, |(d, _)| *d) {
                    best = Some((delta, Action::Swap { with: partner }));
                }
            }
        }
    }

    match best {
        Some((_, Action::Move { x, y, layer })) => {
            let watts = objective.cell_power(cell);
            objective.apply_move(cell, x, y, layer);
            mesh.relocate(netlist, cell, x, y, layer);
            if let Some(p) = pricer {
                p.commit(watts, current_pos, (x, y, layer));
            }
            true
        }
        Some((_, Action::Swap { with })) => {
            let pa = objective.placement().position(cell);
            let pb = objective.placement().position(with);
            let (wa, wb) = (objective.cell_power(cell), objective.cell_power(with));
            objective.apply_swap(cell, with);
            mesh.relocate(netlist, cell, pb.0, pb.1, pb.2);
            mesh.relocate(netlist, with, pa.0, pa.1, pa.2);
            if let Some(p) = pricer {
                p.commit_swap(wa, pa, wb, pb);
            }
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ObjectiveModel;
    use crate::{Placement, PlacerConfig};
    use rand::SeedableRng;
    use tvp_bookshelf::synth::{generate, SynthConfig};

    fn fixture() -> (tvp_netlist::Netlist, Chip, crate::PlacerConfig) {
        let netlist = generate(&SynthConfig::named("t", 200, 1.0e-9)).unwrap();
        let config = PlacerConfig::new(2);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        (netlist, chip, config)
    }

    fn scattered(netlist: &tvp_netlist::Netlist, chip: &Chip, seed: u64) -> Placement {
        use rand::RngExt;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = Placement::centered(netlist.num_cells(), chip);
        for i in 0..netlist.num_cells() {
            p.set(
                CellId::new(i),
                rng.random_range(0.0..chip.width),
                rng.random_range(0.0..chip.depth),
                rng.random_range(0..chip.num_layers as u16),
            );
        }
        p
    }

    #[test]
    fn passes_strictly_improve_the_objective() {
        let (netlist, chip, config) = fixture();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = scattered(&netlist, &chip, 11);
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);
        let mut mesh = DensityMesh::coarse(&chip);
        mesh.rebuild(&netlist, objective.placement());
        let before = objective.total();
        let mut rng = SmallRng::seed_from_u64(1);
        let run = &mut StageRun::default();
        let improved_global =
            global_pass(&mut objective, &mut mesh, &netlist, &chip, 5, &mut rng, run);
        let improved_local = local_pass(&mut objective, &mut mesh, &netlist, &chip, &mut rng, run);
        assert!(
            improved_global + improved_local > 0,
            "random start must improve"
        );
        assert!(objective.total() < before);
        // Caches stay consistent.
        let scratch = objective.recompute_total();
        assert!((objective.total() - scratch).abs() < 1e-9 * scratch.max(1e-12));
    }

    #[test]
    fn mesh_stays_consistent_with_placement() {
        let (netlist, chip, config) = fixture();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = scattered(&netlist, &chip, 13);
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);
        let mut mesh = DensityMesh::coarse(&chip);
        mesh.rebuild(&netlist, objective.placement());
        let mut rng = SmallRng::seed_from_u64(2);
        let run = &mut StageRun::default();
        local_pass(&mut objective, &mut mesh, &netlist, &chip, &mut rng, run);
        global_pass(&mut objective, &mut mesh, &netlist, &chip, 5, &mut rng, run);
        // Every cell's registered bin matches its actual position.
        for (cell, x, y, layer) in objective.placement().iter() {
            if netlist.cell(cell).is_movable() {
                assert_eq!(mesh.bin_of(cell), mesh.bin_at(x, y, layer));
            }
        }
        // Rebuilding from scratch yields identical areas.
        let mut fresh = DensityMesh::coarse(&chip);
        fresh.rebuild(&netlist, objective.placement());
        let (nx, ny, nz) = mesh.dims();
        for b in 0..nx * ny * nz {
            assert!((mesh.bin_area(b) - fresh.bin_area(b)).abs() < 1e-15);
        }
    }

    #[test]
    fn optimal_point_is_inside_neighbor_bbox() {
        let (netlist, chip, config) = fixture();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = scattered(&netlist, &chip, 17);
        let objective = IncrementalObjective::new(&netlist, &model, placement);
        let connected = (0..netlist.num_cells())
            .map(CellId::new)
            .find(|&c| netlist.cell_nets(c).next().is_some())
            .unwrap();
        let mut scratch = OptScratch::default();
        let (ox, oy) = optimal_point(&mut scratch, |push| {
            objective.exclusion_rects(connected, push)
        })
        .unwrap();
        assert!(ox >= 0.0 && ox <= chip.width);
        assert!(oy >= 0.0 && oy <= chip.depth);
        // Moving the cell to its optimal point must not hurt the lateral
        // objective more than staying put does.
        let (x, y, l) = objective.placement().position(connected);
        let stay = objective.delta_move(connected, x, y, l);
        let go = objective.delta_move(connected, ox, oy, l);
        assert!(go <= stay + 1e-12);
    }

    #[test]
    fn unconnected_cell_has_no_optimal_point() {
        let mut b = tvp_netlist::NetlistBuilder::new();
        b.add_cell("lonely", 1e-6, 1e-6);
        b.add_cell("other", 1e-6, 1e-6);
        let netlist = b.build().unwrap();
        let config = PlacerConfig::new(1);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let objective = IncrementalObjective::new(&netlist, &model, Placement::centered(2, &chip));
        let mut scratch = OptScratch::default();
        assert!(optimal_point(&mut scratch, |push| {
            objective.exclusion_rects(CellId::new(0), push)
        })
        .is_none());
    }
}
