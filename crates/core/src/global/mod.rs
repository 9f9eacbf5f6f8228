//! Global placement by 3D recursive bisection (paper §3).
//!
//! Regions — a set of cells plus a box of placement volume — are bisected
//! breadth-first. At every bisection:
//!
//! * the **cut direction** is chosen orthogonal to the largest of the
//!   region's width, height, or *weighted depth* (the layer count times
//!   `α_ILV`), so the min-cut objective spends its cut-avoidance where the
//!   objective says connectivity is most expensive;
//! * **terminal propagation** pins nets with pins outside the region to
//!   the side nearest those external pins;
//! * **thermal net weights** (§3.1) scale each net's cut cost, with the
//!   vertical weight used for z cuts and the lateral weight otherwise;
//! * **thermal resistance reduction nets** (§3.2) pull powered cells
//!   toward the heat sink during z cuts;
//! * the **partition tolerance** follows the whitespace available in the
//!   region, and the **cut line** is positioned to split the region's
//!   capacity in proportion to the two sides' cell areas.

mod force;
mod region;

pub use force::force_directed_place;
pub use region::Region;

use crate::netweight::NetWeights;
use crate::objective::{IncrementalObjective, ObjectiveModel};
use crate::trr::TrrNets;
use crate::{Chip, Placement, PlacerConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use tvp_netlist::{CellId, NetId, Netlist};
use tvp_parallel as parallel;
use tvp_partition::{bisect, BisectConfig, FixedSide, Hypergraph, StopFn};

/// How often a bisection may be retried with a relaxed tolerance before
/// its best-effort (out-of-tolerance) assignment is accepted.
const MAX_PARTITION_RETRIES: usize = 3;

/// Robustness record of one global placement.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GlobalStats {
    /// Relaxed-tolerance bisection retries across all regions (0 for a
    /// clean run).
    pub partition_retries: usize,
}

/// Axis a region is cut along.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CutDirection {
    /// Vertical cut line: splits the x extent.
    X,
    /// Horizontal cut line: splits the y extent.
    Y,
    /// Layer cut: splits the device-layer range.
    Z,
}

/// Chooses the cut direction for a region (paper §3): orthogonal to the
/// largest of width, height, and weighted depth `layers · α_ILV`.
///
/// With `weighted = false` (ablation) the raw physical depth
/// `layers · layer_pitch` is compared instead.
pub fn choose_cut_direction(
    region: &Region,
    alpha_ilv: f64,
    weighted: bool,
    layer_pitch: f64,
) -> CutDirection {
    let wx = region.x1 - region.x0;
    let wy = region.y1 - region.y0;
    let layers = region.num_layers();
    let wz = if layers > 1 {
        layers as f64 * if weighted { alpha_ilv } else { layer_pitch }
    } else {
        f64::NEG_INFINITY
    };
    if wz >= wx && wz >= wy {
        CutDirection::Z
    } else if wx >= wy {
        CutDirection::X
    } else {
        CutDirection::Y
    }
}

/// Runs global placement. Returns the placement with every movable cell at
/// the center of its final leaf region.
pub fn global_place(
    netlist: &Netlist,
    chip: &Chip,
    model: &ObjectiveModel,
    config: &PlacerConfig,
) -> Placement {
    global_place_with_fixed(netlist, chip, model, config, &[])
}

/// [`global_place`] with pre-seeded positions for fixed cells (pads,
/// macros). Fixed cells keep these positions; terminal propagation and the
/// thermal state see them from the first bisection level.
pub fn global_place_with_fixed(
    netlist: &Netlist,
    chip: &Chip,
    model: &ObjectiveModel,
    config: &PlacerConfig,
    fixed_positions: &[(CellId, f64, f64, u16)],
) -> Placement {
    global_place_with_fixed_stats(netlist, chip, model, config, fixed_positions, false).0
}

/// [`global_place_with_fixed`] that also reports robustness statistics.
/// When `inject_imbalance` is set, the first (root) bisection is treated
/// as having violated its balance tolerance, exercising the relaxed-retry
/// path deterministically.
pub fn global_place_with_fixed_stats(
    netlist: &Netlist,
    chip: &Chip,
    model: &ObjectiveModel,
    config: &PlacerConfig,
    fixed_positions: &[(CellId, f64, f64, u16)],
    inject_imbalance: bool,
) -> (Placement, GlobalStats) {
    global_place_with_fixed_stats_stop(
        netlist,
        chip,
        model,
        config,
        fixed_positions,
        inject_imbalance,
        None,
    )
}

/// [`global_place_with_fixed_stats`] with a cooperative stop signal.
///
/// `stop` is handed down into every region bisection, where the FM
/// kernels poll it between coarsening levels and every ~1k heap pops
/// *inside* a refinement pass (with best-prefix rollback, so a
/// cancelled pass still yields its best legal assignment). It is also
/// polled between bisection levels here: once it fires, all remaining
/// regions are finalized as leaves at their current extents, so the
/// caller always gets a full (if coarse) placement to legalize —
/// best-so-far, never a partial write. Pass `None` when no stop
/// condition is armed: the hot loops then skip the poll entirely and
/// the result is bitwise identical to the historical entry points.
#[allow(clippy::too_many_arguments)]
pub fn global_place_with_fixed_stats_stop(
    netlist: &Netlist,
    chip: &Chip,
    model: &ObjectiveModel,
    config: &PlacerConfig,
    fixed_positions: &[(CellId, f64, f64, u16)],
    inject_imbalance: bool,
    stop: Option<&StopFn>,
) -> (Placement, GlobalStats) {
    let mut placement = Placement::centered(netlist.num_cells(), chip);
    for &(cell, x, y, layer) in fixed_positions {
        let (x, y) = chip.clamp(x, y);
        placement.set(cell, x, y, layer.min((chip.num_layers - 1) as u16));
    }
    // Seed the layer at the middle of the stack so z terminal propagation
    // starts unbiased.
    let mid_layer = (chip.num_layers / 2) as u16;
    let movable: Vec<CellId> = netlist
        .iter_cells()
        .filter(|(_, c)| c.is_movable())
        .map(|(id, _)| id)
        .collect();
    for &c in &movable {
        placement.set(c, chip.width / 2.0, chip.depth / 2.0, mid_layer);
    }

    let root = Region {
        cells: movable,
        x0: 0.0,
        x1: chip.width,
        y0: 0.0,
        y1: chip.depth,
        l0: 0,
        l1: (chip.num_layers - 1) as u16,
    };

    let mut splitter = Splitter {
        netlist,
        chip,
        model,
        config,
        net_weights: NetWeights::unit(netlist.num_nets()),
        trr: TrrNets::none(),
        trr_weight_of: vec![0.0; netlist.num_cells()],
        level_seed: config.seed,
        inject_imbalance: AtomicBool::new(inject_imbalance),
        partition_retries: AtomicUsize::new(0),
        stop,
    };
    let mut scratch = SplitScratch::new(netlist.num_cells(), netlist.num_nets());

    let mut active = vec![root];
    let mut level = 0usize;
    const MAX_LEVELS: usize = 64;
    while !active.is_empty() && level < MAX_LEVELS {
        // Cancelled: stop recursing and let the safety net below place
        // every remaining region's cells at its current extents — a
        // complete best-so-far placement, never a partial write.
        if stop.is_some_and(|s| s()) {
            break;
        }
        splitter.refresh_thermal_state(&placement);
        splitter.level_seed = config
            .seed
            .wrapping_add(level as u64)
            .wrapping_mul(0x9E37_79B9);
        // Every bisection at this level reads cell positions as of the
        // level start (a Jacobi-style sweep): terminal propagation sees
        // the same world no matter which order — or on which thread —
        // the regions are processed, and each region's bisection seed
        // depends only on the level and the region's cells. The region
        // outcomes are therefore order-independent, and the placement
        // writes below touch disjoint cells (regions partition the
        // movable cells), so parallel execution is bitwise identical to
        // serial.
        let snapshot = placement.clone();
        let outcomes = splitter.process_level(&active, &snapshot, &mut scratch);
        let mut next = Vec::with_capacity(active.len() * 2);
        for outcome in outcomes {
            match outcome {
                RegionOutcome::Leaf(writes) => {
                    for (c, x, y, l) in writes {
                        placement.set(c, x, y, l);
                    }
                }
                RegionOutcome::Split(a, b) => {
                    // Move cells to their new region centers for the next
                    // level's terminal propagation.
                    let (ax, ay, al) = a.center();
                    for &c in &a.cells {
                        placement.set(c, ax, ay, al);
                    }
                    let (bx, by, bl) = b.center();
                    for &c in &b.cells {
                        placement.set(c, bx, by, bl);
                    }
                    next.push(a);
                    next.push(b);
                }
            }
        }
        active = next;
        level += 1;
    }
    // Safety net: finalize anything left if MAX_LEVELS was hit.
    for region in active {
        for (c, x, y, l) in splitter.finalize_leaf(&region) {
            placement.set(c, x, y, l);
        }
    }
    let stats = GlobalStats {
        partition_retries: splitter.partition_retries.load(Ordering::Relaxed),
    };
    (placement, stats)
}

/// Scratch buffers for building one region's hypergraph. Stamps avoid an
/// O(cells + nets) clear between regions. Each worker chunk owns one
/// scratch, so regions never contend on these.
struct SplitScratch {
    /// Cell → vertex index in the current region hypergraph.
    vertex_of: Vec<u32>,
    vertex_stamp: Vec<u32>,
    net_stamp: Vec<u32>,
    stamp: u32,
}

impl SplitScratch {
    fn new(num_cells: usize, num_nets: usize) -> Self {
        Self {
            vertex_of: vec![u32::MAX; num_cells],
            vertex_stamp: vec![0u32; num_cells],
            net_stamp: vec![0u32; num_nets],
            stamp: 0,
        }
    }
}

/// Result of processing one region at a level.
enum RegionOutcome {
    /// Final positions for a leaf region's cells.
    Leaf(Vec<(CellId, f64, f64, u16)>),
    /// The two children of a bisected region.
    Split(Region, Region),
}

struct Splitter<'a> {
    netlist: &'a Netlist,
    chip: &'a Chip,
    model: &'a ObjectiveModel,
    config: &'a PlacerConfig,
    net_weights: NetWeights,
    trr: TrrNets,
    trr_weight_of: Vec<f64>,
    level_seed: u64,
    /// One-shot fault switch: the next bisection to consume it behaves as
    /// if its first attempt violated the balance tolerance. Only armed at
    /// the root level (a single region, processed serially), so injection
    /// never perturbs thread-count determinism.
    inject_imbalance: AtomicBool,
    /// Total relaxed-tolerance retries across all regions. Atomics because
    /// `process_level` shares `&self` across the worker pool; the sum is
    /// order-independent, so the count stays deterministic.
    partition_retries: AtomicUsize,
    /// Cooperative stop signal, polled inside every region's FM kernels
    /// (between passes and every ~1k heap pops). `None` for unarmed runs.
    stop: Option<&'a StopFn>,
}

impl<'a> Splitter<'a> {
    /// Re-derives the thermal net weights and TRR nets at the current
    /// positions (§6: updated as the placement is recursively partitioned).
    fn refresh_thermal_state(&mut self, placement: &Placement) {
        if self.model.alpha_temp == 0.0 {
            return;
        }
        if self.config.thermal_net_weights {
            self.net_weights = NetWeights::thermal(self.netlist, self.model, placement);
        }
        if !self.config.trr_nets {
            return;
        }
        let objective = IncrementalObjective::new(self.netlist, self.model, placement.clone());
        let profile = self
            .model
            .resistance()
            .vertical_profile(self.chip.avg_cell_area);
        self.trr = TrrNets::build(
            self.netlist,
            self.model,
            &objective,
            &profile,
            self.config.peko_floors,
        );
        self.trr_weight_of.fill(0.0);
        for t in self.trr.nets() {
            self.trr_weight_of[t.cell.index()] = t.weight;
        }
    }

    /// Processes every region of one level against the level-start
    /// `snapshot`. Regions are independent given the snapshot, so they
    /// are chunked across the worker pool; outcomes come back in region
    /// order and each worker chunk allocates its own scratch.
    fn process_level(
        &self,
        regions: &[Region],
        snapshot: &Placement,
        scratch: &mut SplitScratch,
    ) -> Vec<RegionOutcome> {
        let workers = parallel::threads().min(regions.len());
        if workers <= 1 {
            return regions
                .iter()
                .map(|r| self.process_region(r, snapshot, scratch))
                .collect();
        }
        let per_chunk = regions.len().div_ceil(workers);
        let nested = parallel::map_chunks(regions.len(), per_chunk, |range| {
            let mut scratch = SplitScratch::new(self.netlist.num_cells(), self.netlist.num_nets());
            regions[range]
                .iter()
                .map(|r| self.process_region(r, snapshot, &mut scratch))
                .collect::<Vec<_>>()
        });
        nested.into_iter().flatten().collect()
    }

    fn process_region(
        &self,
        region: &Region,
        snapshot: &Placement,
        scratch: &mut SplitScratch,
    ) -> RegionOutcome {
        if self.is_leaf(region) {
            RegionOutcome::Leaf(self.finalize_leaf(region))
        } else {
            let (a, b) = self.split(region, snapshot, scratch);
            RegionOutcome::Split(a, b)
        }
    }

    fn is_leaf(&self, region: &Region) -> bool {
        region.cells.len() <= 1
            || region.cells.len() <= self.config.leaf_cells.max(region.num_layers())
    }

    /// Places the leaf's cells at its center. A leaf that still spans
    /// several layers means the objective never made a z cut worthwhile
    /// (α_ILV is small relative to lateral extents); its cells are
    /// area-balanced across the layers, which is where the high via counts
    /// at low α_ILV come from.
    fn finalize_leaf(&self, region: &Region) -> Vec<(CellId, f64, f64, u16)> {
        let (cx, cy, _) = region.center();
        if region.num_layers() == 1 {
            return region
                .cells
                .iter()
                .map(|&c| (c, cx, cy, region.l0))
                .collect();
        }
        let mut fill = vec![0.0f64; region.num_layers()];
        let mut cells: Vec<CellId> = region.cells.clone();
        cells.sort_by(|&a, &b| {
            self.netlist
                .cell(b)
                .area()
                .partial_cmp(&self.netlist.cell(a).area())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut writes = Vec::with_capacity(cells.len());
        for c in cells {
            let best = fill
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map_or(0, |(i, _)| i);
            fill[best] += self.netlist.cell(c).area();
            writes.push((c, cx, cy, region.l0 + best as u16));
        }
        writes
    }

    /// Whitespace-derived partition tolerance for a region.
    fn tolerance(&self, region: &Region) -> f64 {
        let usable =
            region.area() * region.num_layers() as f64 * self.chip.row_height / self.chip.row_pitch;
        let cell_area: f64 = region
            .cells
            .iter()
            .map(|&c| self.netlist.cell(c).area())
            .sum();
        let whitespace = if usable > 0.0 {
            1.0 - cell_area / usable
        } else {
            self.config.whitespace
        };
        whitespace.clamp(0.02, 0.45) / 2.0
    }

    fn split(
        &self,
        region: &Region,
        snapshot: &Placement,
        scratch: &mut SplitScratch,
    ) -> (Region, Region) {
        let direction = choose_cut_direction(
            region,
            self.model.alpha_ilv,
            self.config.weighted_depth_cut,
            self.chip.stack.layer_pitch(),
        );
        let n = region.cells.len();

        // Build the region hypergraph: vertices = region cells (+ two
        // zero-weight terminals on demand).
        scratch.stamp += 1;
        let stamp = scratch.stamp;
        let mut weights: Vec<f64> = Vec::with_capacity(n + 2);
        for (v, &c) in region.cells.iter().enumerate() {
            scratch.vertex_of[c.index()] = v as u32;
            scratch.vertex_stamp[c.index()] = stamp;
            weights.push(self.netlist.cell(c).area());
        }
        // Terminal vertices for propagated connectivity.
        let t0 = n as u32;
        let t1 = n as u32 + 1;
        weights.push(0.0);
        weights.push(0.0);
        let mut hg = Hypergraph::with_vertex_weights(weights);
        let mut fixed = vec![FixedSide::Free; n + 2];
        fixed[t0 as usize] = FixedSide::Side0;
        fixed[t1 as usize] = FixedSide::Side1;

        let mid = region.mid(direction);
        let mut pins: Vec<u32> = Vec::new();
        for &c in &region.cells {
            for &p in self.netlist.cell_pins(c) {
                let e = self.netlist.pin(p).net();
                if scratch.net_stamp[e.index()] == stamp {
                    continue; // net already processed this region
                }
                scratch.net_stamp[e.index()] = stamp;
                self.add_net_to_hypergraph(
                    e, snapshot, scratch, direction, mid, t0, t1, stamp, &mut hg, &mut pins,
                );
            }
        }
        // TRR nets pull toward the heat sink: only meaningful for z cuts,
        // where side 0 is the lower layer range.
        if direction == CutDirection::Z && self.config.trr_nets && !self.trr.is_empty() {
            for (v, &c) in region.cells.iter().enumerate() {
                let w = self.trr_weight_of[c.index()];
                if w > 0.0 {
                    hg.add_net(&[v as u32, t0], w);
                }
            }
        }
        hg.finalize();

        let layers = region.num_layers();
        let target_fraction = if direction == CutDirection::Z {
            // Side 0 (lower layers) gets the ceiling half of the layers.
            layers.div_ceil(2) as f64 / layers as f64
        } else {
            0.5
        };
        let bisect_config = BisectConfig {
            target_fraction,
            tolerance: self.tolerance(region),
            num_starts: self.config.partition_starts,
            seed: self.level_seed.wrapping_add(region.cells[0].index() as u64),
            ..BisectConfig::default()
        };
        // Balance-checked bisection with graceful degradation: a cut
        // that misses the tolerance by more than one-cell granularity
        // (moving any single cell cannot fix it) is retried with a
        // doubled tolerance, and after `MAX_PARTITION_RETRIES` the
        // best-effort assignment is accepted rather than failing the run.
        let total_weight = hg.total_vertex_weight();
        let granularity = if total_weight > 0.0 {
            (0..hg.num_vertices())
                .map(|v| hg.vertex_weight(v as u32))
                .fold(0.0f64, f64::max)
                / total_weight
        } else {
            0.0
        };
        let injected = self.inject_imbalance.swap(false, Ordering::Relaxed);
        let mut attempt_config = bisect_config;
        let mut retries = 0usize;
        let result = loop {
            if injected && retries == 0 {
                retries += 1;
                attempt_config = attempt_config.relaxed();
                continue;
            }
            match bisect(&hg, &fixed, &attempt_config, self.stop).check_balance(&attempt_config) {
                Ok(bisection) => break bisection,
                Err(err) => {
                    let miss = (err.fraction - err.target_fraction).abs();
                    if miss <= err.tolerance + granularity || retries >= MAX_PARTITION_RETRIES {
                        // Within discrete-area granularity (or out of
                        // retries): accept the best-effort cut.
                        break err.bisection;
                    }
                    retries += 1;
                    attempt_config = attempt_config.relaxed();
                }
            }
        };
        if retries > 0 {
            self.partition_retries.fetch_add(retries, Ordering::Relaxed);
        }

        let mut side0: Vec<CellId> = Vec::new();
        let mut side1: Vec<CellId> = Vec::new();
        for (v, &c) in region.cells.iter().enumerate() {
            if result.side(v as u32) == 0 {
                side0.push(c);
            } else {
                side1.push(c);
            }
        }
        // Degenerate partitions (possible on pathological graphs): fall
        // back to an even index split so recursion always terminates.
        if side0.is_empty() || side1.is_empty() {
            let mut all = std::mem::take(&mut side0);
            all.append(&mut side1);
            let half = all.len() / 2;
            side1 = all.split_off(half);
            side0 = all;
        }

        let area0: f64 = side0.iter().map(|&c| self.netlist.cell(c).area()).sum();
        let area1: f64 = side1.iter().map(|&c| self.netlist.cell(c).area()).sum();
        region.split(direction, side0, side1, area0, area1)
    }

    #[allow(clippy::too_many_arguments)]
    fn add_net_to_hypergraph(
        &self,
        e: NetId,
        snapshot: &Placement,
        scratch: &SplitScratch,
        direction: CutDirection,
        mid: f64,
        t0: u32,
        t1: u32,
        stamp: u32,
        hg: &mut Hypergraph,
        pins: &mut Vec<u32>,
    ) {
        pins.clear();
        let mut ext0 = false;
        let mut ext1 = false;
        for &p in self.netlist.net_pins(e) {
            let c = self.netlist.pin(p).cell();
            if scratch.vertex_stamp[c.index()] == stamp {
                // A cell's stamp matches iff it belongs to this region,
                // because regions partition the cells at every level.
                pins.push(scratch.vertex_of[c.index()]);
            } else {
                if !self.config.terminal_propagation {
                    continue;
                }
                // External pin: propagate to the nearer side (Dunlop–
                // Kernighan terminal propagation) using its level-start
                // position along the cut axis.
                let coord = match direction {
                    CutDirection::X => snapshot.x(c),
                    CutDirection::Y => snapshot.y(c),
                    CutDirection::Z => snapshot.layer(c) as f64,
                };
                if coord < mid {
                    ext0 = true;
                } else {
                    ext1 = true;
                }
            }
        }
        if pins.is_empty() {
            return;
        }
        if ext0 {
            pins.push(t0);
        }
        if ext1 {
            pins.push(t1);
        }
        if pins.len() < 2 {
            return;
        }
        let weight = match direction {
            CutDirection::Z => self.net_weights.vertical(e),
            _ => self.net_weights.lateral(e),
        };
        hg.add_net(pins, weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_bookshelf::synth::{generate, SynthConfig};

    fn run(alpha_ilv: f64, alpha_temp: f64, layers: usize) -> (Netlist, Chip, Placement, f64, f64) {
        let netlist = generate(&SynthConfig::named("t", 300, 1.5e-9)).unwrap();
        let config = PlacerConfig::new(layers)
            .with_alpha_ilv(alpha_ilv)
            .with_alpha_temp(alpha_temp);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = global_place(&netlist, &chip, &model, &config);
        let obj = IncrementalObjective::new(&netlist, &model, placement.clone());
        let (wl, ilv) = (obj.total_wirelength(), obj.total_ilv());
        (netlist, chip, placement, wl, ilv)
    }

    #[test]
    fn cut_direction_follows_weighted_depth() {
        let region = Region {
            cells: vec![],
            x0: 0.0,
            x1: 1.0e-4,
            y0: 0.0,
            y1: 0.5e-4,
            l0: 0,
            l1: 3,
        };
        const PITCH: f64 = 6.4e-6;
        // 4 layers × 1e-5 = 4e-5 < width 1e-4 → lateral X cut.
        assert_eq!(
            choose_cut_direction(&region, 1.0e-5, true, PITCH),
            CutDirection::X
        );
        // Expensive vias: 4 × 1e-3 dominates → Z cut.
        assert_eq!(
            choose_cut_direction(&region, 1.0e-3, true, PITCH),
            CutDirection::Z
        );
        // Ablation: unweighted depth compares the physical extent
        // (4 × 6.4 µm = 2.56e-5 < width), so the same region cuts in X no
        // matter how expensive vias are.
        assert_eq!(
            choose_cut_direction(&region, 1.0e-3, false, PITCH),
            CutDirection::X
        );
        // Single-layer regions never z-cut.
        let flat = Region { l1: 0, ..region };
        assert_eq!(
            choose_cut_direction(&flat, 1.0, true, PITCH),
            CutDirection::X
        );
        // Taller than wide → Y cut.
        let tall = Region {
            x1: 0.5e-4,
            y1: 1.0e-4,
            ..flat
        };
        assert_eq!(
            choose_cut_direction(&tall, 1.0e-9, true, PITCH),
            CutDirection::Y
        );
    }

    #[test]
    fn places_all_cells_in_bounds() {
        let (netlist, chip, placement, wl, _) = run(1.0e-5, 0.0, 4);
        assert!(placement.find_out_of_bounds(&chip).is_none());
        assert!(wl > 0.0, "cells must have spread out");
        // Every layer should be populated for a 4-layer run.
        let mut per_layer = [0usize; 4];
        for (_, _, _, l) in placement.iter() {
            per_layer[l as usize] += 1;
        }
        for (l, &count) in per_layer.iter().enumerate() {
            assert!(
                count > netlist.num_cells() / 20,
                "layer {l} has only {count} cells"
            );
        }
    }

    #[test]
    fn higher_alpha_ilv_trades_vias_for_wirelength() {
        let (_, _, _, wl_cheap, ilv_cheap) = run(5.0e-8, 0.0, 4);
        let (_, _, _, wl_dear, ilv_dear) = run(2.0e-4, 0.0, 4);
        assert!(
            ilv_dear < ilv_cheap,
            "expensive vias must reduce ILV count: {ilv_dear} vs {ilv_cheap}"
        );
        assert!(
            wl_dear > wl_cheap * 0.9,
            "via avoidance should not shorten wirelength: {wl_dear} vs {wl_cheap}"
        );
    }

    #[test]
    fn single_layer_placement_has_no_vias() {
        let (_, _, placement, _, ilv) = run(1.0e-5, 0.0, 1);
        assert_eq!(ilv, 0.0);
        assert!(placement.iter().all(|(_, _, _, l)| l == 0));
    }

    #[test]
    fn thermal_placement_moves_power_down() {
        let netlist = generate(&SynthConfig::named("t", 300, 1.5e-9)).unwrap();
        let layers = 4;
        let base_config = PlacerConfig::new(layers).with_alpha_ilv(1.0e-5);
        let chip = Chip::from_netlist(&netlist, &base_config).unwrap();

        let power_depth = |alpha_temp: f64| -> f64 {
            let config = base_config.clone().with_alpha_temp(alpha_temp);
            let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
            let placement = global_place(&netlist, &chip, &model, &config);
            let obj = IncrementalObjective::new(&netlist, &model, placement);
            // Power-weighted mean layer: lower is better for heat.
            let mut num = 0.0;
            let mut den = 0.0;
            for (c, _) in netlist.iter_cells() {
                let p = model.power().cell_power(&netlist, c, |e| {
                    let g = obj.net_geometry(e);
                    (g.wirelength(), g.ilv)
                });
                num += p * obj.placement().layer(c) as f64;
                den += p;
            }
            num / den
        };

        let without = power_depth(0.0);
        let with = power_depth(2.0e-4);
        assert!(
            with < without - 0.05,
            "thermal placement must lower the power centroid: {with} vs {without}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (_, _, a, _, _) = run(1.0e-5, 0.0, 2);
        let (_, _, b, _, _) = run(1.0e-5, 0.0, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_levels_match_serial_bitwise() {
        // Thermal weighting on, so the snapshot path is exercised with
        // net weights and TRR state in play.
        let netlist = generate(&SynthConfig::named("t", 300, 1.5e-9)).unwrap();
        let config = PlacerConfig::new(4)
            .with_alpha_ilv(1.0e-5)
            .with_alpha_temp(1.0e-4);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let serial =
            tvp_parallel::with_threads(1, || global_place(&netlist, &chip, &model, &config));
        for threads in [2, 4] {
            let par = tvp_parallel::with_threads(threads, || {
                global_place(&netlist, &chip, &model, &config)
            });
            assert_eq!(serial, par, "threads = {threads}");
        }
    }
}
