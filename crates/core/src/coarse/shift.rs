//! Cell shifting (paper §4.1), as a row-parallel propose/commit engine.
//!
//! For each row of bins (in x, then in y), new bin boundaries are computed
//! from the whole row's densities at once — over-congested bins expand,
//! sparse bins contract *only as much as the congested bins in the same
//! row need* — and cells are remapped linearly into their bin's new span
//! (Eq. 16–17). Solving the whole row at once is the paper's fix for
//! FastPlace's boundary cross-over problem; conserving total row width by
//! construction means boundaries stay ordered.
//!
//! # Two-phase sweeps
//!
//! Within one sweep a cell's remap only changes its coordinate along the
//! sweep axis, so it never leaves its row: rows are density-disjoint, and
//! the whole sweep can be solved against one frozen snapshot without
//! changing a single remap. That is the shape of the engine (DESIGN.md
//! §17, mirroring the batched coarse passes of §16):
//!
//! * **Phase A** plans every row of the sweep concurrently through
//!   [`tvp_parallel::map_chunks`] — boundary solve, cell remaps, and
//!   Eq. 17 move pricing through a shared borrow of the objective (the
//!   sweep-start snapshot), with no shared mutable state (each chunk
//!   owns its scratch buffers). A cell's full and half remap are priced
//!   in one batch fold of probe entries built on the spot: the sweep's
//!   commit drops every memo slot a fill would create, so planning fills
//!   none. Chunk
//!   boundaries are a pure function of the row count, never the thread
//!   count, so the planned move list is bitwise identical for any
//!   `--threads` setting.
//! * **Phase B** commits the whole sweep at once through
//!   [`IncrementalObjective::apply_sweep`] — positions set, each touched
//!   net rescanned once, `total` refolded — then relocates the moved
//!   cells in the mesh in fixed (k, j) / (k, i) row order.
//!
//! The x sweep, y sweep, and z pass each see the previous one's commits
//! (a fresh snapshot per sweep). Both objective modes run this one
//! engine: with the thermal term active the borrowed objective folds
//! Eq. 3's α_TEMP term too, and the sweep commit refreshes the power and
//! resistance caches the moves reach.

use super::mesh::DensityMesh;
use crate::engine::StageRun;
use crate::objective::{CellMove, IncrementalObjective};
use crate::observer::PassEvent;
use crate::{Chip, ShiftStrategy};
use tvp_netlist::{CellId, Netlist};
use tvp_parallel as parallel;

/// Chunking floor for phase-A row planning: one row costs a boundary
/// solve plus two priced probes per resident cell, so a handful of rows
/// already amortizes pool dispatch.
const PLAN_MIN_ROWS: usize = 4;

/// Convergence: a pass that moved at most this fraction of the movable
/// cells *and* stayed under [`CONVERGED_BOUNDARY_DELTA`] is a
/// noise-scale tail pass — it re-shuffles a handful of cells across
/// near-unchanged boundaries.
const CONVERGED_MOVED_FRACTION: f64 = 1.0e-3;

/// Convergence: largest relative bin-boundary displacement (|new − old|
/// over the bin width) a noise-scale pass may have solved for.
const CONVERGED_BOUNDARY_DELTA: f64 = 5.0e-3;

/// Stall detection: a pass "improves" only when it lowers the best
/// peak density seen this spread by at least this relative margin.
/// Measured trajectories (10k/100k, DESIGN.md §17) plateau hard: tail
/// passes keep moving ~2 remaps per cell while the peak density
/// oscillates within a fraction of a percent, so sub-0.1% progress per
/// pass is the stalled regime, not slow convergence.
const STALL_REL_IMPROVEMENT: f64 = 1.0e-3;

/// Stall detection: consecutive non-improving passes tolerated before
/// the spread stops. Measured 10k/100k trajectories oscillate in a
/// fixed density band once stalled — wider patience only chases the
/// band's noise dips (each undone by the next pass) at full per-pass
/// cost, with no measurable downstream quality gain.
const STALL_PATIENCE: usize = 2;

/// Reusable per-row buffers for row planning: the row's bin ids, their
/// densities, and the solved boundaries. One scratch serves every row a
/// worker plans, so a spread at 100k cells reuses a few buffers per
/// chunk instead of churning millions of short-lived `Vec`s.
#[derive(Default)]
struct RowScratch {
    bins: Vec<usize>,
    densities: Vec<f64>,
    bounds: Vec<f64>,
}

/// What one shifting pass did — the signal the convergence detector and
/// the `ShiftPass` observer event are built from.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ShiftPassStats {
    /// Cells moved (x rows + y rows + z columns).
    pub moved: usize,
    /// Largest relative bin-boundary displacement any row solved for
    /// (|new − old| / old bin width); 0 when every row was left alone.
    pub max_boundary_delta: f64,
}

/// One full cell-shifting pass over every x row and every y row (plus
/// the z columns when a whole layer is overfull).
pub fn shift_pass_stats(
    objective: &mut IncrementalObjective<'_>,
    mesh: &mut DensityMesh,
    netlist: &Netlist,
    chip: &Chip,
    target_density: f64,
    strategy: ShiftStrategy,
) -> ShiftPassStats {
    let (nx, ny, nz) = mesh.dims();
    let mut stats = ShiftPassStats::default();
    for axis in [Axis::X, Axis::Y] {
        let (moved, max_delta) = sweep(
            objective,
            mesh,
            netlist,
            chip,
            axis,
            target_density,
            strategy,
        );
        stats.moved += moved;
        stats.max_boundary_delta = stats.max_boundary_delta.max(max_delta);
    }
    // Columns along z: fixed (i, j). Layers are discrete, so instead of
    // boundary scaling the congested bins hand their objective-cheapest
    // cells to under-full bins of the same column (§4.1's "each
    // direction", adapted to quantized z). Bin-level congestion is x/y
    // shifting's job; the z pass only acts when a *layer as a whole*
    // exceeds capacity — the case lateral spreading cannot fix and
    // detailed legalization would otherwise resolve arbitrarily.
    //
    // This pass stays serial by construction: each bounded greedy step
    // picks its source layer, destination layer, and cheapest cell from
    // the densities and bin contents *after* the previous step's move,
    // so the steps form a dependence chain a frozen snapshot cannot
    // honor. It is also far off the hot path — it runs only in the rare
    // whole-layer-overfull state (balanced bisection keeps layers even),
    // and then touches at most 8 cells per column.
    if nz > 1 {
        let per_layer_bins = (nx * ny) as f64;
        let layer_capacity = per_layer_bins * mesh.capacity() * target_density;
        let overfull: Vec<bool> = (0..nz)
            .map(|k| mesh.layer_area(k) > layer_capacity)
            .collect();
        if overfull.iter().any(|&o| o) {
            for j in 0..ny {
                for i in 0..nx {
                    stats.moved +=
                        shift_column_z(objective, mesh, netlist, i, j, target_density, &overfull);
                }
            }
        }
    }
    stats
}

/// One directional sweep (all x rows or all y rows): row-parallel
/// plan/commit. Returns `(cells moved, max relative boundary delta)`.
fn sweep(
    objective: &mut IncrementalObjective<'_>,
    mesh: &mut DensityMesh,
    netlist: &Netlist,
    chip: &Chip,
    axis: Axis,
    target_density: f64,
    strategy: ShiftStrategy,
) -> (usize, f64) {
    let (nx, ny, nz) = mesh.dims();
    // Row r of the sweep is (k = r / rows_per_layer, j or i = r %
    // rows_per_layer): phase B commits and relocates in this (k, j) /
    // (k, i) order.
    let (rows_per_layer, row_len) = match axis {
        Axis::X => (ny, nx),
        Axis::Y => (nx, ny),
    };
    let num_rows = nz * rows_per_layer;

    // Phase A: plan every row against the sweep-start snapshot. Within a
    // sweep a remap moves cells only along the sweep axis, so no cell
    // changes rows and no row's densities depend on another row's
    // commits — the frozen plan is remap-exact, and only the Eq. 17
    // pricing sees a (deliberately) frozen objective.
    let mesh_ref: &DensityMesh = mesh;
    let snapshot: &IncrementalObjective<'_> = objective;
    let plans: Vec<ChunkPlan> = parallel::map_chunks(num_rows, PLAN_MIN_ROWS, |range| {
        let mut scratch = RowScratch::default();
        let mut plan = ChunkPlan::default();
        for r in range {
            let k = r / rows_per_layer;
            let fixed = r % rows_per_layer;
            scratch.bins.clear();
            match axis {
                Axis::X => scratch.bins.extend(mesh_ref.x_row_range(fixed, k)),
                Axis::Y => scratch
                    .bins
                    .extend((0..row_len).map(|j| mesh_ref.index(fixed, j, k))),
            }
            let delta = plan_row(
                snapshot,
                mesh_ref,
                chip,
                &mut scratch,
                axis,
                target_density,
                strategy,
                &mut plan.moves,
            );
            plan.max_boundary_delta = plan.max_boundary_delta.max(delta);
        }
        plan
    });

    // Phase B: one bulk commit of the whole sweep. Rows hold disjoint
    // cells, so the committed state is the same in any order; the mesh
    // relocates in chunk order = rows in sweep order.
    let max_delta = plans
        .iter()
        .map(|plan| plan.max_boundary_delta)
        .fold(0.0, f64::max);
    let moves: Vec<CellMove> = plans.into_iter().flat_map(|plan| plan.moves).collect();
    objective.apply_sweep(&moves);
    for m in &moves {
        mesh.relocate(netlist, m.cell, m.x, m.y, m.layer);
    }
    (moves.len(), max_delta)
}

/// One chunk's phase-A output: the planned moves of its rows, in row
/// order, plus the chunk's largest relative boundary displacement.
#[derive(Default)]
struct ChunkPlan {
    moves: Vec<CellMove>,
    max_boundary_delta: f64,
}

/// Rebalances one (i, j) column across layers: while some layer's bin is
/// above `target_density` and another is below 1.0, move the cell whose
/// objective delta is smallest. Returns the number of cells moved.
fn shift_column_z(
    objective: &mut IncrementalObjective<'_>,
    mesh: &mut DensityMesh,
    netlist: &Netlist,
    i: usize,
    j: usize,
    target_density: f64,
    layer_overfull: &[bool],
) -> usize {
    let (_, _, nz) = mesh.dims();
    let mut moved = 0;
    // Bounded so one pathological column cannot stall a pass.
    for _ in 0..8 {
        let bins: Vec<usize> = (0..nz).map(|k| mesh.index(i, j, k)).collect();
        let Some(src) = bins
            .iter()
            .enumerate()
            .filter(|&(k, &b)| layer_overfull[k] && mesh.density(b) > target_density)
            .max_by(|&(_, &a), &(_, &b)| {
                mesh.density(a)
                    .partial_cmp(&mesh.density(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(_, &b)| b)
        else {
            break;
        };
        let Some(dst) = bins
            .iter()
            .copied()
            .filter(|&b| b != src && mesh.density(b) < 1.0)
            .min_by(|&a, &b| {
                mesh.density(a)
                    .partial_cmp(&mesh.density(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        else {
            break;
        };
        let (_, _, dst_layer) = mesh.coords(dst);
        // Cheapest cell to re-layer (x/y unchanged → only via and thermal
        // terms move).
        let candidate = mesh
            .bin_cells(src)
            .iter()
            .copied()
            .map(|cell| {
                let (x, y, _) = objective.placement().position(cell);
                (objective.delta_move(cell, x, y, dst_layer as u16), cell)
            })
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let Some((_, cell)) = candidate else { break };
        let (x, y, _) = objective.placement().position(cell);
        objective.apply_move(cell, x, y, dst_layer as u16);
        mesh.relocate(netlist, cell, x, y, dst_layer as u16);
        moved += 1;
    }
    moved
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Axis {
    X,
    Y,
}

/// Computes the Eq. 16 width-scaling factors for one row.
///
/// Over-congested bins (`d > 1`) grow by `1 + a_upper·(1 − 1/d)`; sparse
/// bins shrink by `1 + a_lower·(d − 1)` with `a_lower` chosen so the total
/// row width is conserved (which keeps boundaries ordered). Returns `None`
/// if the row needs no shifting.
fn row_scale_factors(densities: &[f64], target_density: f64) -> Option<Vec<f64>> {
    let max_d = densities.iter().copied().fold(0.0, f64::max);
    if max_d <= target_density {
        return None; // §4.1: leave nearly legal rows alone
    }
    // Unit widths: bins in a row share one width, so work in ratios.
    let mut grow_sum = 0.0; // Σ (1 − 1/d) over congested bins
    let mut shrink_sum = 0.0; // Σ (1 − d) over sparse bins
    for &d in densities {
        if d > 1.0 {
            grow_sum += 1.0 - 1.0 / d;
        } else {
            shrink_sum += 1.0 - d;
        }
    }
    if grow_sum <= 0.0 || shrink_sum <= 0.0 {
        return None; // nothing to expand into (or nothing congested)
    }
    let mut a_upper = 1.0;
    let mut a_lower = a_upper * grow_sum / shrink_sum;
    // A bin must keep positive width: 1 + a_lower·(d − 1) > 0 for the
    // emptiest bin (worst case d = 0 → a_lower < 1).
    const MAX_LOWER: f64 = 0.9;
    if a_lower > MAX_LOWER {
        a_upper *= MAX_LOWER / a_lower;
        a_lower = MAX_LOWER;
    }
    Some(
        densities
            .iter()
            .map(|&d| {
                if d > 1.0 {
                    1.0 + a_upper * (1.0 - 1.0 / d)
                } else {
                    1.0 - a_lower * (1.0 - d)
                }
            })
            .collect(),
    )
}

/// FastPlace-style boundary update (the §4.1 ablation baseline): each
/// interior boundary moves based only on its two adjacent bins' densities.
/// Boundaries may cross over (the defect the paper's whole-row solve
/// fixes); inverted spans are clamped to a sliver so the mapping stays
/// defined, which is exactly where placement quality degrades.
fn adjacent_pair_bounds(densities: &[f64], old_width: f64) -> Option<Vec<f64>> {
    let n = densities.len();
    if n < 2 {
        return None;
    }
    let mut bounds = Vec::with_capacity(n + 1);
    bounds.push(0.0);
    for i in 1..n {
        let d_left = densities[i - 1];
        let d_right = densities[i];
        let shift = 0.5 * old_width * (d_left - d_right) / (d_left + d_right + 1e-12);
        bounds.push(i as f64 * old_width + shift);
    }
    bounds.push(n as f64 * old_width);
    // Clamp inversions to preserve a defined (if degenerate) mapping.
    let mut any_change = false;
    for i in 1..bounds.len() {
        if bounds[i] < bounds[i - 1] {
            bounds[i] = bounds[i - 1];
        }
        if (bounds[i] - i as f64 * old_width).abs() > 1e-15 {
            any_change = true;
        }
    }
    any_change.then_some(bounds)
}

/// Reads the row's densities from the mesh and solves its new boundaries
/// into `scratch.bounds`. Returns the row's largest relative boundary
/// displacement, or `None` when the row is left alone.
fn solve_row_bounds(
    mesh: &DensityMesh,
    scratch: &mut RowScratch,
    old_width: f64,
    target_density: f64,
    strategy: ShiftStrategy,
) -> Option<f64> {
    scratch.densities.clear();
    for &b in &scratch.bins {
        scratch.densities.push(mesh.density(b));
    }
    match strategy {
        ShiftStrategy::WholeRow => {
            let factors = row_scale_factors(&scratch.densities, target_density)?;
            // New boundaries: cumulative sum of scaled widths, anchored at 0.
            scratch.bounds.clear();
            let mut acc = 0.0;
            scratch.bounds.push(acc);
            for &f in &factors {
                acc += f * old_width;
                scratch.bounds.push(acc);
            }
        }
        ShiftStrategy::AdjacentPair => {
            scratch.bounds = adjacent_pair_bounds(&scratch.densities, old_width)?;
        }
    }
    let max_delta = scratch
        .bounds
        .iter()
        .enumerate()
        .map(|(i, &b)| (b - i as f64 * old_width).abs() / old_width)
        .fold(0.0, f64::max);
    Some(max_delta)
}

/// Maps one cell's coordinate through its bin's solved span and picks the
/// Eq. 17 β between a full and a half move, whichever the sweep-start
/// snapshot says degrades the objective less. Both candidates price in one fold of
/// probe entries built on the spot: this sweep's commit drops them, so
/// memoizing would be waste. Returns `None` for sub-epsilon remaps.
#[inline]
fn remap_cell(
    snapshot: &IncrementalObjective<'_>,
    chip: &Chip,
    axis: Axis,
    cell: CellId,
    (old_lo, new_lo, scale): (f64, f64, f64),
) -> Option<CellMove> {
    let (x, y, layer) = snapshot.placement().position(cell);
    let coord = match axis {
        Axis::X => x,
        Axis::Y => y,
    };
    let mapped = scale * (coord - old_lo) + new_lo;
    if (mapped - coord).abs() < 1e-15 {
        return None;
    }
    // Eq. 17 movement retention: β is picked per cell between a full
    // move and a half move, whichever degrades the objective less;
    // spreading still progresses with β = ½.
    let candidate = |c: f64| -> (f64, f64, u16) {
        let (cx, cy) = match axis {
            Axis::X => chip.clamp(c, y),
            Axis::Y => chip.clamp(x, c),
        };
        (cx, cy, layer)
    };
    let [full, half] = [candidate(mapped), candidate(0.5 * mapped + 0.5 * coord)];
    let mut deltas = [0.0; 2];
    snapshot.delta_move_batch_unmemoized(cell, &[full, half], &mut deltas);
    let (x, y, layer) = if deltas[1] < deltas[0] { half } else { full };
    Some(CellMove { cell, x, y, layer })
}

/// Phase-A planner for one row: boundary solve plus snapshot-priced cell
/// remaps, appended to `moves` in bin-then-cell order. Never touches the
/// mesh or the objective, so any number of rows plan concurrently.
/// Returns the row's largest relative boundary displacement.
#[allow(clippy::too_many_arguments)]
fn plan_row(
    snapshot: &IncrementalObjective<'_>,
    mesh: &DensityMesh,
    chip: &Chip,
    scratch: &mut RowScratch,
    axis: Axis,
    target_density: f64,
    strategy: ShiftStrategy,
    moves: &mut Vec<CellMove>,
) -> f64 {
    let (bin_w, bin_h) = mesh.bin_size();
    let old_width = match axis {
        Axis::X => bin_w,
        Axis::Y => bin_h,
    };
    let Some(max_delta) = solve_row_bounds(mesh, scratch, old_width, target_density, strategy)
    else {
        return 0.0;
    };
    for idx in 0..scratch.bins.len() {
        let old_lo = idx as f64 * old_width;
        let new_lo = scratch.bounds[idx];
        let scale = (scratch.bounds[idx + 1] - scratch.bounds[idx]) / old_width;
        // The mesh is frozen during phase A, so the bin's resident list
        // is read in place: no mid-row relocation can double-process a
        // cell.
        moves.extend(
            mesh.bin_cells(scratch.bins[idx])
                .iter()
                .filter_map(|&cell| {
                    remap_cell(snapshot, chip, axis, cell, (old_lo, new_lo, scale))
                }),
        );
    }
    max_delta
}

/// Runs shifting passes until the mesh's maximum density drops below
/// `target`, the passes converge, or `max_iterations` is exhausted. After
/// every pass `run` receives a [`PassEvent::ShiftPass`] and may stop the
/// spread at that boundary.
///
/// Termination is convergence-adaptive rather than a fixed pass count.
/// The loop stops when:
///
/// - the mesh is already at or under `target` (goal reached),
/// - a pass moves nothing (fixed point, possibly above target),
/// - a pass is noise-scale — it moved at most
///   ~`CONVERGED_MOVED_FRACTION` of the movable cells *and* displaced
///   no boundary by more than `CONVERGED_BOUNDARY_DELTA` of a bin
///   width, or
/// - the spread **stalls**: `STALL_PATIENCE` consecutive passes fail
///   to lower the best peak density seen so far by at least
///   `STALL_REL_IMPROVEMENT` (relative). Measured trajectories show
///   this is how real spreads end — peak density plateaus while passes
///   keep shuffling ~2 remaps per cell across near-constant boundaries,
///   so neither of the first two criteria ever fires (DESIGN.md §17).
///
/// `max_iterations` is kept as a hard cap. Returns `(iterations
/// executed, interrupted by run)`.
#[allow(clippy::too_many_arguments)]
pub fn spread(
    objective: &mut IncrementalObjective<'_>,
    mesh: &mut DensityMesh,
    netlist: &Netlist,
    chip: &Chip,
    target: f64,
    max_iterations: usize,
    strategy: ShiftStrategy,
    run: &mut StageRun<'_>,
) -> (usize, bool) {
    let movable = netlist
        .iter_cells()
        .filter(|&(cell, _)| netlist.cell(cell).is_movable())
        .count()
        .max(1);
    // Ceil so tiny designs (where one cell exceeds the fraction) keep
    // the historical moved == 0 stop as their only count criterion.
    let moved_floor = (movable as f64 * CONVERGED_MOVED_FRACTION).ceil();
    let mut best_density = f64::INFINITY;
    let mut stalled_passes = 0usize;
    for iteration in 0..max_iterations {
        if mesh.max_density() <= target {
            return (iteration, false);
        }
        let t = std::time::Instant::now();
        let stats = shift_pass_stats(objective, mesh, netlist, chip, target, strategy);
        let density = mesh.max_density();
        let report = PassEvent::ShiftPass {
            pass: iteration,
            moved: stats.moved,
            max_boundary_delta: stats.max_boundary_delta,
            max_density: density,
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
        };
        if run.pass(report).is_break() {
            return (iteration + 1, true);
        }
        if stats.moved == 0 {
            return (iteration + 1, false); // fixed point (possibly above target)
        }
        if (stats.moved as f64) <= moved_floor
            && stats.max_boundary_delta <= CONVERGED_BOUNDARY_DELTA
        {
            return (iteration + 1, false); // converged: residual motion is noise-scale
        }
        if density < best_density * (1.0 - STALL_REL_IMPROVEMENT) {
            best_density = density;
            stalled_passes = 0;
        } else {
            best_density = best_density.min(density);
            stalled_passes += 1;
            if stalled_passes >= STALL_PATIENCE {
                return (iteration + 1, false); // stalled: peak density has plateaued
            }
        }
    }
    (max_iterations, false)
}

/// Benchmark-only entry points (`crates/bench/benches/kernels.rs`); not
/// a public API.
#[doc(hidden)]
pub mod bench_hooks {
    /// The Eq. 16 whole-row boundary solve on one row of densities.
    pub fn row_scale_factors(densities: &[f64], target_density: f64) -> Option<Vec<f64>> {
        super::row_scale_factors(densities, target_density)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ObjectiveModel;
    use crate::{Placement, PlacerConfig};
    use std::ops::ControlFlow;
    use tvp_bookshelf::synth::{generate, SynthConfig};

    #[test]
    fn scale_factors_conserve_row_width() {
        let densities = vec![0.2, 3.0, 0.5, 1.5, 0.0];
        let f = row_scale_factors(&densities, 1.05).unwrap();
        let total: f64 = f.iter().sum();
        assert!((total - densities.len() as f64).abs() < 1e-9, "Σ = {total}");
        // Congested bins grow, sparse shrink.
        assert!(f[1] > 1.0 && f[3] > 1.0);
        assert!(f[0] < 1.0 && f[2] < 1.0 && f[4] < 1.0);
        // All positive → boundaries stay ordered (no FastPlace cross-over).
        assert!(f.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn legal_rows_are_left_alone() {
        assert!(row_scale_factors(&[0.5, 0.9, 1.0], 1.05).is_none());
        // Congested but nowhere to shrink: also skipped.
        assert!(row_scale_factors(&[2.0, 1.5, 1.2], 1.05).is_none());
    }

    #[test]
    fn extreme_emptiness_keeps_positive_widths() {
        let densities = vec![0.0, 0.0, 0.0, 50.0];
        let f = row_scale_factors(&densities, 1.05).unwrap();
        assert!(f.iter().all(|&x| x > 0.05), "{f:?}");
        let total: f64 = f.iter().sum();
        assert!((total - 4.0).abs() < 1e-9);
    }

    #[test]
    fn adjacent_pair_bounds_move_toward_sparse_bins() {
        let bounds = adjacent_pair_bounds(&[3.0, 0.5, 0.5], 1.0).unwrap();
        // Boundary 1 between the congested bin 0 and sparse bin 1 moves
        // right (bin 0 expands); boundary 2 between two equal bins stays.
        assert!(bounds[1] > 1.0);
        assert!((bounds[2] - 2.0).abs() < 1e-12);
        assert_eq!(bounds[0], 0.0);
        assert_eq!(*bounds.last().unwrap(), 3.0);
    }

    #[test]
    fn adjacent_pair_bounds_can_cross_and_get_clamped() {
        // A sparse bin squeezed between two very dense bins: both of its
        // boundaries move inward past each other — the FastPlace defect.
        let bounds = adjacent_pair_bounds(&[50.0, 0.01, 50.0], 0.1).unwrap();
        assert!(
            bounds[2] >= bounds[1],
            "clamping must keep bounds ordered: {bounds:?}"
        );
        assert!(
            bounds[2] - bounds[1] < 0.05,
            "the squeezed bin should be nearly collapsed: {bounds:?}"
        );
    }

    #[test]
    fn adjacent_pair_no_change_returns_none() {
        assert!(adjacent_pair_bounds(&[1.0, 1.0, 1.0], 1.0).is_none());
        assert!(adjacent_pair_bounds(&[5.0], 1.0).is_none());
    }

    #[test]
    fn both_strategies_spread_but_whole_row_converges() {
        use crate::ShiftStrategy;
        let netlist = generate(&SynthConfig::named("t", 200, 1.0e-9)).unwrap();
        let config = PlacerConfig::new(1);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let spread_with = |strategy: ShiftStrategy| -> (f64, usize) {
            let mut prng = SmallRng::seed_from_u64(3);
            let mut placement = Placement::centered(netlist.num_cells(), &chip);
            for i in 0..netlist.num_cells() {
                placement.set(
                    tvp_netlist::CellId::new(i),
                    chip.width * prng.random_range(0.4..0.6),
                    chip.depth * prng.random_range(0.4..0.6),
                    0,
                );
            }
            let mut objective = IncrementalObjective::new(&netlist, &model, placement);
            let mut mesh = DensityMesh::coarse(&chip);
            mesh.rebuild(&netlist, objective.placement());
            let iters = spread(
                &mut objective,
                &mut mesh,
                &netlist,
                &chip,
                1.10,
                60,
                strategy,
                &mut StageRun::default(),
            )
            .0;
            (mesh.max_density(), iters)
        };
        let (whole_density, _) = spread_with(ShiftStrategy::WholeRow);
        let (pair_density, _) = spread_with(ShiftStrategy::AdjacentPair);
        // Both reduce congestion from the initial pile...
        assert!(whole_density < 3.0, "whole-row stalled at {whole_density}");
        assert!(pair_density < 20.0, "adjacent-pair did nothing");
        // ...and the paper's whole-row solve spreads at least as well.
        assert!(
            whole_density <= pair_density * 1.5,
            "whole-row {whole_density} should not lose badly to {pair_density}"
        );
    }

    #[test]
    fn z_column_rebalancing_drains_overfull_layers() {
        use crate::ShiftStrategy;
        let netlist = generate(&SynthConfig::named("z", 200, 1.0e-9)).unwrap();
        let config = PlacerConfig::new(4);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        // Spread laterally but pile everything on layer 0.
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut prng = SmallRng::seed_from_u64(7);
        let mut placement = Placement::centered(netlist.num_cells(), &chip);
        for i in 0..netlist.num_cells() {
            placement.set(
                tvp_netlist::CellId::new(i),
                prng.random_range(0.0..chip.width),
                prng.random_range(0.0..chip.depth),
                0,
            );
        }
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);
        let mut mesh = DensityMesh::coarse(&chip);
        mesh.rebuild(&netlist, objective.placement());
        let layer0_before = mesh.layer_area(0);
        spread(
            &mut objective,
            &mut mesh,
            &netlist,
            &chip,
            1.10,
            40,
            ShiftStrategy::WholeRow,
            &mut StageRun::default(),
        );
        let layer0_after = mesh.layer_area(0);
        assert!(
            layer0_after < layer0_before * 0.75,
            "z shifting must drain the piled layer: {layer0_before:.3e} → {layer0_after:.3e}"
        );
        // Caches stay consistent through the mixed x/y/z moves.
        let scratch = objective.recompute_total();
        assert!((objective.total() - scratch).abs() < 1e-9 * scratch.max(1e-12));
    }

    #[test]
    fn shifting_spreads_a_centered_pile() {
        let netlist = generate(&SynthConfig::named("t", 300, 1.5e-9)).unwrap();
        let config = PlacerConfig::new(2);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        // Start from a tight pile around the middle (distinct coordinates:
        // shifting maps positions linearly, so exact coincidence can never
        // separate — the coarse stage jitters before shifting for the same
        // reason), split across the two layers.
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut prng = SmallRng::seed_from_u64(99);
        let mut placement = Placement::centered(netlist.num_cells(), &chip);
        for i in 0..netlist.num_cells() {
            let c = tvp_netlist::CellId::new(i);
            let x = chip.width * prng.random_range(0.45..0.55);
            let y = chip.depth * prng.random_range(0.45..0.55);
            placement.set(c, x, y, (i % 2) as u16);
        }
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);
        let mut mesh = DensityMesh::coarse(&chip);
        mesh.rebuild(&netlist, objective.placement());
        let before = mesh.max_density();
        let iterations = spread(
            &mut objective,
            &mut mesh,
            &netlist,
            &chip,
            1.10,
            100,
            ShiftStrategy::WholeRow,
            &mut StageRun::default(),
        )
        .0;
        let after = mesh.max_density();
        assert!(iterations > 0);
        assert!(
            after < before / 4.0,
            "density must drop substantially: {before} → {after}"
        );
        assert!(objective.placement().find_out_of_bounds(&chip).is_none());
        // Incremental objective must still be consistent.
        let scratch = objective.recompute_total();
        assert!((objective.total() - scratch).abs() < 1e-9 * scratch.max(1e-12));
    }

    #[test]
    fn shifting_is_idempotent_once_spread() {
        let netlist = generate(&SynthConfig::named("t", 150, 7.5e-10)).unwrap();
        let config = PlacerConfig::new(1);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        // Uniformly pre-spread placement.
        let n = netlist.num_cells();
        let cols = (n as f64).sqrt().ceil() as usize;
        let mut placement = Placement::centered(n, &chip);
        for i in 0..n {
            let gx = (i % cols) as f64 / cols as f64 * chip.width * 0.98 + 0.01 * chip.width;
            let gy = (i / cols) as f64 / cols as f64 * chip.depth * 0.98 + 0.01 * chip.depth;
            placement.set(tvp_netlist::CellId::new(i), gx, gy, 0);
        }
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);
        let mut mesh = DensityMesh::coarse(&chip);
        mesh.rebuild(&netlist, objective.placement());
        if mesh.max_density() <= 1.10 {
            let stats = shift_pass_stats(
                &mut objective,
                &mut mesh,
                &netlist,
                &chip,
                1.10,
                ShiftStrategy::WholeRow,
            );
            assert_eq!(stats.moved, 0, "a spread placement must not be disturbed");
            assert_eq!(stats.max_boundary_delta, 0.0);
        }
    }

    /// The row-parallel plan/commit engine must produce bitwise-identical
    /// placements and objectives at every thread count, in both objective
    /// modes: chunk boundaries depend only on the row count, and commits
    /// replay in row order.
    #[test]
    fn shift_passes_are_identical_across_thread_counts() {
        let netlist = generate(&SynthConfig::named("p", 400, 2.0e-9)).unwrap();
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        for alpha_temp in [0.0, 1.0e-4] {
            let config = PlacerConfig::new(2).with_alpha_temp(alpha_temp);
            let chip = Chip::from_netlist(&netlist, &config).unwrap();
            let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
            let mut prng = SmallRng::seed_from_u64(11);
            let mut placement = Placement::centered(netlist.num_cells(), &chip);
            for i in 0..netlist.num_cells() {
                placement.set(
                    tvp_netlist::CellId::new(i),
                    chip.width * prng.random_range(0.3..0.7),
                    chip.depth * prng.random_range(0.3..0.7),
                    (i % 2) as u16,
                );
            }
            let run = |threads: usize| -> (Placement, usize, u64) {
                tvp_parallel::with_threads(threads, || {
                    let mut objective =
                        IncrementalObjective::new(&netlist, &model, placement.clone());
                    let mut mesh = DensityMesh::coarse(&chip);
                    mesh.rebuild(&netlist, objective.placement());
                    let iters = spread(
                        &mut objective,
                        &mut mesh,
                        &netlist,
                        &chip,
                        1.10,
                        50,
                        ShiftStrategy::WholeRow,
                        &mut StageRun::default(),
                    )
                    .0;
                    let total = objective.total().to_bits();
                    (objective.into_placement(), iters, total)
                })
            };
            let (serial, serial_iters, serial_total) = run(1);
            assert!(serial_iters > 0, "the pile must need shifting");
            for threads in [2usize, 4] {
                let (parallel_placement, iters, total) = run(threads);
                assert_eq!(serial_iters, iters, "pass count diverged at {threads}");
                assert_eq!(serial_total, total, "objective diverged at {threads}");
                for i in 0..netlist.num_cells() {
                    let cell = tvp_netlist::CellId::new(i);
                    assert_eq!(
                        serial.position(cell),
                        parallel_placement.position(cell),
                        "cell {i} diverged at threads={threads}, alpha_temp={alpha_temp}"
                    );
                }
            }
        }
    }

    /// The convergence detector must report through the observed probe
    /// and stop before the hard cap on a design whose tail is long.
    #[test]
    fn observed_spread_reports_passes_and_converges_under_cap() {
        let netlist = generate(&SynthConfig::named("t", 300, 1.5e-9)).unwrap();
        let config = PlacerConfig::new(2);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut prng = SmallRng::seed_from_u64(5);
        let mut placement = Placement::centered(netlist.num_cells(), &chip);
        for i in 0..netlist.num_cells() {
            placement.set(
                tvp_netlist::CellId::new(i),
                chip.width * prng.random_range(0.45..0.55),
                chip.depth * prng.random_range(0.45..0.55),
                (i % 2) as u16,
            );
        }
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);
        let mut mesh = DensityMesh::coarse(&chip);
        mesh.rebuild(&netlist, objective.placement());
        // (pass, moved, max_boundary_delta, max_density, wall_ms) per
        // reported pass.
        let mut reports = Vec::new();
        let cap = 500;
        let (iterations, interrupted) = spread(
            &mut objective,
            &mut mesh,
            &netlist,
            &chip,
            1.10,
            cap,
            ShiftStrategy::WholeRow,
            &mut StageRun::observed(&mut |event| {
                if let PassEvent::ShiftPass {
                    pass,
                    moved,
                    max_boundary_delta,
                    max_density,
                    wall_ms,
                } = event
                {
                    reports.push((pass, moved, max_boundary_delta, max_density, wall_ms));
                }
                ControlFlow::Continue(())
            }),
        );
        assert!(!interrupted);
        assert!(iterations < cap, "convergence must beat the {cap} cap");
        assert_eq!(reports.len(), iterations);
        for (i, &(pass, _, _, _, wall_ms)) in reports.iter().enumerate() {
            assert_eq!(pass, i);
            assert!(wall_ms >= 0.0);
        }
        // The spread ends for one of its documented reasons: the
        // density target was met, a pass moved nothing, the noise-scale
        // thresholds were crossed, or the peak density stalled for
        // STALL_PATIENCE consecutive passes.
        let &(_, last_moved, last_delta, _, _) = reports.last().expect("at least one pass");
        // Replay the stall detector over the reported densities.
        let mut best = f64::INFINITY;
        let mut run = 0usize;
        let mut stalled = false;
        for &(_, _, _, density, _) in &reports {
            if density < best * (1.0 - STALL_REL_IMPROVEMENT) {
                best = density;
                run = 0;
            } else {
                best = best.min(density);
                run += 1;
                if run >= STALL_PATIENCE {
                    stalled = true;
                }
            }
        }
        assert!(
            mesh.max_density() <= 1.10
                || last_moved == 0
                || last_delta <= CONVERGED_BOUNDARY_DELTA
                || stalled,
            "spread stopped without a reason: moved {last_moved}, boundary delta \
             {last_delta} (max density {})",
            mesh.max_density()
        );
        // Every report carries the post-pass peak density for the
        // stall detector and the observer event.
        for &(_, _, _, density, _) in &reports {
            assert!(density.is_finite() && density > 0.0);
        }
    }

    /// A probe break stops the spread at the pass boundary.
    #[test]
    fn observed_spread_honors_probe_break() {
        let netlist = generate(&SynthConfig::named("t", 200, 1.0e-9)).unwrap();
        let config = PlacerConfig::new(2);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = Placement::centered(netlist.num_cells(), &chip);
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);
        let mut mesh = DensityMesh::coarse(&chip);
        mesh.rebuild(&netlist, objective.placement());
        let (iterations, interrupted) = spread(
            &mut objective,
            &mut mesh,
            &netlist,
            &chip,
            1.10,
            50,
            ShiftStrategy::WholeRow,
            &mut StageRun::observed(&mut |_| ControlFlow::Break(())),
        );
        assert!(interrupted);
        assert_eq!(iterations, 1, "break stops after the first pass");
    }
}
