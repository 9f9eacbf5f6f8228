//! Detailed legalization (paper §5).
//!
//! Cells are snapped into standard-cell rows with zero overlap. Per layer,
//! cells are processed in increasing x (so every row insertion happens at
//! the right end of its row packer); for each cell the candidate rows
//! inside a window around its current y are priced by the exact objective
//! delta of the snapped position plus the disruption inflicted on
//! already-placed cells (the §5 cost for shifting processed cells aside).
//! The window expands until a row with room is found; if a layer is
//! genuinely full the search continues on the nearest other layers, so
//! legalization always completes while the chip has capacity.
//!
//! Deviation from the paper, documented in DESIGN.md: the processing order
//! is x-sorted per layer (a requirement of the right-append row packer)
//! rather than derived from a surplus DAG; the bin-surplus information is
//! instead reflected in the expanding candidate window.

mod refine;
mod row;

pub use refine::{refine, refine_legal, RefineStats};
pub use row::{InsertionQuote, RowPacker};

use crate::engine::StageRun;
use crate::objective::IncrementalObjective;
use crate::observer::PassEvent;
use crate::Chip;
use tvp_netlist::{CellId, Netlist};

/// Outcome statistics of detailed legalization.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LegalizeStats {
    /// Cells legalized.
    pub placed: usize,
    /// Total displacement applied while snapping, meters.
    pub total_displacement: f64,
    /// Largest single-cell displacement, meters.
    pub max_displacement: f64,
    /// Cells that had to change layer to find space.
    pub layer_changes: usize,
}

/// perfbench's replay surface (`perfbench/src/place.rs` calls it by
/// name, so its name and signature stay): [`legalize`] with an
/// unobserved run. Library code calls [`legalize`].
pub fn detail_legalize(
    objective: &mut IncrementalObjective<'_>,
    netlist: &Netlist,
    chip: &Chip,
    row_window: usize,
) -> LegalizeStats {
    legalize(
        objective,
        netlist,
        chip,
        row_window,
        &mut StageRun::default(),
    )
}

/// Legalizes the placement into rows. All movable cells end on row
/// centers with no overlaps; fixed cells are left untouched.
///
/// `row_window` is the number of rows above/below the target row tried
/// before the window expands. `run` receives one
/// [`PassEvent::DetailRows`] per packed layer, but unlike the coarse and
/// refinement passes it cannot interrupt this stage: a partially
/// legalized placement is worse than useless, so legalization always
/// runs to completion and `Break` is ignored.
pub fn legalize(
    objective: &mut IncrementalObjective<'_>,
    netlist: &Netlist,
    chip: &Chip,
    row_window: usize,
    run: &mut StageRun<'_>,
) -> LegalizeStats {
    let num_layers = chip.num_layers;
    let num_rows = chip.num_rows;

    let mut stats = LegalizeStats::default();
    // The effective width a cell occupies in a row: its area spread over
    // one row height, so multi-row-height cells still reserve their area.
    let effective_width = |cell: CellId| -> f64 { netlist.cell(cell).area() / chip.row_height };

    // --- Phase A: assign every cell to a (layer, row) with free capacity.
    //
    // Processing order implements §5's objective-sensitivity ordering:
    // cells whose placement matters most thermally (high power) go first
    // so they can claim the low-resistance layers before capacity runs
    // out. Within a sensitivity bucket, widest-first (first-fit-
    // decreasing) keeps the row bin-packing robust: when the chip is
    // nearly full, wide cells must claim rows while contiguous room still
    // exists and narrow cells fill the fragments.
    let mut order: Vec<CellId> = netlist
        .iter_cells()
        .filter(|(_, c)| c.is_movable())
        .map(|(id, _)| id)
        .collect();
    // Rank-based buckets: power is heavy-tailed, so normalizing by the
    // maximum would lump nearly everything into one bucket. Sixteen rank
    // buckets give hot cells strict priority while widths stay mostly
    // sorted within each bucket (preserving the first-fit-decreasing
    // robustness).
    let sensitivity_bucket: Vec<u32> = {
        // The objective's sensitivity to moving a cell one layer, in
        // objective meters: the thermal term changes by α_TEMP·P·slope per
        // meter of height (× one layer pitch), and each of the cell's pins
        // can gain or lose one α_ILV via. Both terms share units, so the
        // score degrades gracefully to pure via sensitivity as α_TEMP → 0.
        let model = objective.model();
        let slope = model
            .resistance()
            .vertical_profile(chip.avg_cell_area)
            .slope;
        let pitch = chip.stack.layer_pitch();
        let score = |i: usize| -> f64 {
            let cell = CellId::new(i);
            model.alpha_temp * objective.cell_power(cell) * slope * pitch
                + model.alpha_ilv * netlist.cell_pins(cell).len() as f64
        };
        let mut by_score: Vec<usize> = (0..netlist.num_cells()).collect();
        by_score.sort_by(|&a, &b| {
            score(b)
                .partial_cmp(&score(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let n = by_score.len().max(1);
        let mut bucket = vec![0u32; netlist.num_cells()];
        for (rank, &i) in by_score.iter().enumerate() {
            bucket[i] = 15 - (rank * 16 / n) as u32; // most sensitive = 15
        }
        bucket
    };
    order.sort_by(|&a, &b| {
        sensitivity_bucket[b.index()]
            .cmp(&sensitivity_bucket[a.index()])
            .then(
                effective_width(b)
                    .partial_cmp(&effective_width(a))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.cmp(&b))
    });

    let mut used = vec![vec![0.0f64; num_rows]; num_layers];
    let mut assigned: Vec<Vec<Vec<CellId>>> = vec![vec![Vec::new(); num_rows]; num_layers];

    let mut queue: std::collections::VecDeque<CellId> = order.into();
    let mut rescues = 0usize;
    let rescue_limit = 16 * netlist.num_cells() + 64;

    while let Some(cell) = queue.pop_front() {
        let (x, y, layer) = objective.placement().position(cell);
        let layer = (layer as usize).min(num_layers - 1);
        let width = effective_width(cell);
        let target_row = chip.nearest_row(y);

        // Every layer is priced through the objective (layer changes cost
        // α_ILV vias and, with thermal placement on, α_TEMP·ΔR·P — so hot
        // cells gravitate down and cold cells fill the upper layers when
        // the lower ones run out of room). Each layer's row window expands
        // *independently* until that layer produces a candidate: a hot
        // cell must see "layer 0, a few rows away" even when a wrong-layer
        // spot exists right next to it.
        let mut best: Option<(f64, usize, usize)> = None; // (cost, layer, row)
        #[allow(clippy::needless_range_loop)]
        for cand_layer in 0..num_layers {
            let mut layer_best: Option<(f64, usize)> = None; // (cost, row)
            let mut window = row_window.max(1);
            loop {
                let lo = target_row.saturating_sub(window);
                let hi = (target_row + window).min(num_rows - 1);
                for r in lo..=hi {
                    if used[cand_layer][r] + width > chip.width + 1e-12 {
                        continue;
                    }
                    let snap_y = chip.row_center(r);
                    let delta = objective.delta_move(cell, x, snap_y, cand_layer as u16);
                    if layer_best.is_none_or(|(c, _)| delta < c) {
                        layer_best = Some((delta, r));
                    }
                }
                if layer_best.is_some() || (lo == 0 && hi == num_rows - 1) {
                    break;
                }
                window *= 2;
            }
            if let Some((cost, r)) = layer_best {
                if best.is_none_or(|(c, ..)| cost < c) {
                    best = Some((cost, cand_layer, r));
                }
            }
        }
        let (bl, br) = match best {
            Some((_, bl, br)) => (bl, br),
            None => {
                // Rescue: every row is too full for this cell, which can
                // happen when fragmentation spreads the whitespace thinly
                // across rows. Evict the narrowest residents of the row
                // with the most free width until the cell fits; evicted
                // cells are strictly narrower, so requeueing them
                // terminates.
                rescues += 1;
                assert!(
                    rescues <= rescue_limit,
                    "legalization livelock: cell area must exceed chip capacity"
                );
                let (bl, br) = (0..num_layers)
                    .flat_map(|l| (0..num_rows).map(move |r| (l, r)))
                    .min_by(|&(l1, r1), &(l2, r2)| {
                        used[l1][r1]
                            .partial_cmp(&used[l2][r2])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .unwrap_or((0, 0));
                // Evict narrowest-first: each evicted cell is strictly
                // narrower than the incoming one, so rescue chains shrink
                // monotonically and terminate.
                let residents = &mut assigned[bl][br];
                residents.sort_by(|&a, &b| {
                    effective_width(b)
                        .partial_cmp(&effective_width(a))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                while used[bl][br] + width > chip.width + 1e-12 {
                    // An empty row that still can't take the cell means the
                    // cell is wider than the row itself (preflight flags
                    // this as an error); place it anyway and let the legal
                    // check report the overlap.
                    let Some(evicted) = residents.pop() else {
                        break;
                    };
                    used[bl][br] -= effective_width(evicted);
                    stats.placed -= 1;
                    queue.push_back(evicted);
                }
                (bl, br)
            }
        };
        used[bl][br] += width;
        assigned[bl][br].push(cell);
        if bl != layer {
            stats.layer_changes += 1;
        }
        stats.placed += 1;
    }

    // --- Phase B: pack each row with the Abacus-style packer, inserting
    // in increasing desired-x order (the packer's invariant), then apply
    // the final positions through the objective.
    for (layer, layer_rows) in assigned.iter_mut().enumerate() {
        let mut layer_rows_used = 0usize;
        let mut layer_cells = 0usize;
        for (r, cells) in layer_rows.iter_mut().enumerate() {
            if cells.is_empty() {
                continue;
            }
            layer_rows_used += 1;
            layer_cells += cells.len();
            cells.sort_by(|&a, &b| {
                objective
                    .placement()
                    .x(a)
                    .partial_cmp(&objective.placement().x(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let mut packer = RowPacker::new();
            for &cell in cells.iter() {
                let width = effective_width(cell);
                let desired_left = objective.placement().x(cell) - width / 2.0;
                packer.insert(cell, width, desired_left, chip.width);
            }
            let yc = chip.row_center(r);
            for (cell, x_left) in packer.final_positions(chip.width) {
                let width = effective_width(cell);
                let (ox, oy, _) = objective.placement().position(cell);
                let nx = x_left + width / 2.0;
                objective.apply_move(cell, nx, yc, layer as u16);
                let d = ((nx - ox).powi(2) + (yc - oy).powi(2)).sqrt();
                stats.total_displacement += d;
                stats.max_displacement = stats.max_displacement.max(d);
            }
        }
        // Legalization must complete whatever the probe answers; a `Break`
        // here is simply noticed later at the stage boundary.
        let _ = run.pass(PassEvent::DetailRows {
            layer,
            rows: layer_rows_used,
            cells: layer_cells,
        });
    }
    stats
}

/// Checks full legality: every movable cell at a finite position on a
/// row center, inside the chip, with no same-layer overlaps. Returns a
/// human-readable violation description, or `None` when legal.
pub fn check_legal(netlist: &Netlist, chip: &Chip, placement: &crate::Placement) -> Option<String> {
    const EPS: f64 = 1e-9;
    for (cell, x, y, layer) in placement.iter() {
        if !netlist.cell(cell).is_movable() {
            continue;
        }
        // Every comparison below is false for NaN, so a non-finite
        // coordinate would pass them all.
        if !x.is_finite() || !y.is_finite() {
            return Some(format!("cell {cell} at a non-finite position ({x}, {y})"));
        }
        if (layer as usize) >= chip.num_layers {
            return Some(format!("cell {cell} on nonexistent layer {layer}"));
        }
        let row = chip.nearest_row(y);
        if (chip.row_center(row) - y).abs() > EPS {
            return Some(format!("cell {cell} not on a row center (y = {y})"));
        }
        let half = netlist.cell(cell).area() / chip.row_height / 2.0;
        if x - half < -EPS || x + half > chip.width + EPS {
            return Some(format!("cell {cell} outside the chip (x = {x})"));
        }
    }
    // Overlaps per (layer, row).
    type RowContents = Vec<(f64, f64, CellId)>;
    let mut per_row: std::collections::HashMap<(u16, usize), RowContents> =
        std::collections::HashMap::new();
    for (cell, x, y, layer) in placement.iter() {
        if !netlist.cell(cell).is_movable() {
            continue;
        }
        let w = netlist.cell(cell).area() / chip.row_height;
        per_row
            .entry((layer, chip.nearest_row(y)))
            .or_default()
            .push((x - w / 2.0, w, cell));
    }
    for ((layer, row), mut cells) in per_row {
        cells.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for pair in cells.windows(2) {
            let (x0, w0, c0) = pair[0];
            let (x1, _, c1) = pair[1];
            if x0 + w0 > x1 + EPS {
                return Some(format!(
                    "cells {c0} and {c1} overlap on layer {layer} row {row}"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ObjectiveModel;
    use crate::{Placement, PlacerConfig};
    use tvp_bookshelf::synth::{generate, SynthConfig};

    fn legalized_fixture(
        cells: usize,
        layers: usize,
    ) -> (
        tvp_netlist::Netlist,
        Chip,
        PlacerConfig,
        f64,
        LegalizeStats,
        Placement,
    ) {
        let netlist = generate(&SynthConfig::named("t", cells, cells as f64 * 5.0e-12)).unwrap();
        let config = PlacerConfig::new(layers);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let run = &mut StageRun::default();
        let (placement, _) =
            crate::global::place(&netlist, &chip, &model, &config, &[], false, run);
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);
        crate::coarse::legalize(&mut objective, &netlist, &chip, &config, run);
        let before = objective.total();
        let stats = legalize(
            &mut objective,
            &netlist,
            &chip,
            config.detail_row_window,
            run,
        );
        let placement = objective.placement().clone();
        (netlist, chip, config, before, stats, placement)
    }

    #[test]
    fn produces_fully_legal_placement() {
        let (netlist, chip, _, _, stats, placement) = legalized_fixture(300, 2);
        assert_eq!(stats.placed, 300);
        assert_eq!(
            check_legal(&netlist, &chip, &placement),
            None,
            "placement must be legal"
        );
        assert_eq!(placement.find_out_of_bounds(&chip), None);
    }

    #[test]
    fn displacement_is_modest() {
        let (_, chip, _, _, stats, _) = legalized_fixture(300, 2);
        // Snapping after coarse legalization should move cells by bins,
        // not by chip widths.
        let avg = stats.total_displacement / stats.placed as f64;
        assert!(
            avg < chip.width / 4.0,
            "avg displacement {avg} vs chip width {}",
            chip.width
        );
    }

    #[test]
    fn single_layer_designs_legalize() {
        let (netlist, chip, _, _, stats, placement) = legalized_fixture(200, 1);
        assert_eq!(check_legal(&netlist, &chip, &placement), None);
        assert_eq!(stats.layer_changes, 0, "nowhere to change to");
    }

    #[test]
    fn four_layer_designs_legalize() {
        let (netlist, chip, _, _, _, placement) = legalized_fixture(400, 4);
        assert_eq!(check_legal(&netlist, &chip, &placement), None);
    }

    #[test]
    fn check_legal_catches_violations() {
        let (netlist, chip, _, _, _, mut placement) = legalized_fixture(100, 2);
        assert_eq!(check_legal(&netlist, &chip, &placement), None);
        // Push one cell off its row center.
        let c = CellId::new(0);
        let (x, y, l) = placement.position(c);
        placement.set(c, x, y + chip.row_height / 3.0, l);
        assert!(check_legal(&netlist, &chip, &placement).is_some());
        // Restore and create an overlap instead.
        placement.set(c, x, y, l);
        let d = CellId::new(1);
        placement.set(d, x, y, l);
        assert!(check_legal(&netlist, &chip, &placement).is_some());
    }

    #[test]
    fn check_legal_rejects_non_finite_positions() {
        let (netlist, chip, _, _, _, mut placement) = legalized_fixture(100, 2);
        let c = CellId::new(0);
        let (x, y, l) = placement.position(c);
        for (bad_x, bad_y) in [(f64::NAN, y), (x, f64::NAN), (f64::INFINITY, y)] {
            placement.set(c, bad_x, bad_y, l);
            let violation = check_legal(&netlist, &chip, &placement).expect("violation");
            assert!(violation.contains("non-finite"), "{violation}");
        }
    }
}
