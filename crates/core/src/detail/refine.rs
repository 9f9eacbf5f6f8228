//! Legality-preserving refinement of a placed design (paper §6: the
//! coarse/detailed machinery "can be repeated during a post-optimization
//! phase"; this pass keeps the placement legal the whole time).
//!
//! Two local move kinds, each priced with the exact objective delta and
//! executed only when strictly improving:
//!
//! 1. **Slide** — move a cell within the free gap between its row
//!    neighbors toward its optimal x.
//! 2. **Adjacent swap** — exchange two neighboring cells in a row (always
//!    legal: the pair re-packs inside its own span).

use crate::engine::StageRun;
use crate::objective::{CellMove, IncrementalObjective};
use crate::observer::PassEvent;
use crate::Chip;
use tvp_netlist::{CellId, Netlist};

/// Row occupancy built from a legal placement: cells sorted by x per
/// (layer, row).
struct Rows {
    /// `(x_left, width, cell)` per (layer, row), sorted by `x_left`.
    cells: Vec<Vec<Vec<(f64, f64, CellId)>>>,
}

impl Rows {
    fn build(objective: &IncrementalObjective<'_>, netlist: &Netlist, chip: &Chip) -> Self {
        let mut cells = vec![vec![Vec::new(); chip.num_rows]; chip.num_layers];
        for (cell, x, y, layer) in objective.placement().iter() {
            if !netlist.cell(cell).is_movable() {
                continue;
            }
            let w = netlist.cell(cell).area() / chip.row_height;
            let row = chip.nearest_row(y);
            cells[(layer as usize).min(chip.num_layers - 1)][row].push((x - w / 2.0, w, cell));
        }
        for layer in &mut cells {
            for row in layer {
                row.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            }
        }
        Self { cells }
    }

    /// The free interval around entry `i` of a row: `(gap_left, gap_right)`
    /// bounds for the cell's left edge.
    fn slack(&self, layer: usize, row: usize, i: usize, chip: &Chip) -> (f64, f64) {
        let entries = &self.cells[layer][row];
        let (_, w, _) = entries[i];
        let lo = if i == 0 {
            0.0
        } else {
            entries[i - 1].0 + entries[i - 1].1
        };
        let hi = if i + 1 < entries.len() {
            entries[i + 1].0
        } else {
            chip.width
        } - w;
        (lo, hi)
    }
}

/// Statistics of one refinement run.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct RefineStats {
    /// Slides executed.
    pub slides: usize,
    /// Adjacent swaps executed.
    pub swaps: usize,
    /// Total objective improvement (positive = better).
    pub improvement: f64,
}

/// perfbench's replay surface (`perfbench/src/place.rs` calls it by
/// name, so its name and signature stay): [`refine`] with an unobserved
/// run. Library code calls [`refine`].
pub fn refine_legal(
    objective: &mut IncrementalObjective<'_>,
    netlist: &Netlist,
    chip: &Chip,
    passes: usize,
) -> RefineStats {
    refine(objective, netlist, chip, passes, &mut StageRun::default()).0
}

/// Runs `passes` rounds of legality-preserving refinement. The placement
/// stays fully legal after every individual move.
///
/// After every pass `run` receives a [`PassEvent::RefinePass`] and may
/// stop refinement there; every move preserves legality, so stopping
/// between passes is always safe. Returns the stats plus whether
/// refinement was interrupted.
pub fn refine(
    objective: &mut IncrementalObjective<'_>,
    netlist: &Netlist,
    chip: &Chip,
    passes: usize,
    run: &mut StageRun<'_>,
) -> (RefineStats, bool) {
    const EPS: f64 = 1e-18;
    let mut stats = RefineStats::default();
    for pass in 0..passes {
        let before_pass = objective.total();
        let mut rows = Rows::build(objective, netlist, chip);
        let round_improved = refine_round(objective, chip, &mut rows, &mut stats);
        stats.improvement += before_pass - objective.total();
        let converged = !round_improved || stats.improvement < EPS;
        if run
            .pass(PassEvent::RefinePass {
                pass,
                improvement: stats.improvement,
            })
            .is_break()
        {
            // Interruption at convergence is indistinguishable from a
            // natural finish; only report it when work remained.
            return (stats, !converged && pass + 1 < passes);
        }
        if converged {
            break;
        }
    }
    (stats, false)
}

fn refine_round(
    objective: &mut IncrementalObjective<'_>,
    chip: &Chip,
    rows: &mut Rows,
    stats: &mut RefineStats,
) -> bool {
    const EPS: f64 = 1e-18;
    let mut improved = false;
    for layer in 0..chip.num_layers {
        for row in 0..chip.num_rows {
            let yc = chip.row_center(row);
            let mut i = 0;
            while i < rows.cells[layer][row].len() {
                let (x_left, w, cell) = rows.cells[layer][row][i];
                let center = |left: f64| left + w / 2.0;

                // 1. Slide inside the free interval: probe the interval
                //    endpoints and the current spot; HPWL is piecewise
                //    linear in x, so an endpoint (or staying put) is
                //    optimal.
                let (lo, hi) = rows.slack(layer, row, i, chip);
                let mut best: Option<(f64, f64)> = None; // (delta, new_left)
                for cand in [lo, hi] {
                    if (cand - x_left).abs() > 1e-15 && cand >= -1e-12 {
                        let delta = objective.delta_move(cell, center(cand), yc, layer as u16);
                        if delta < best.map_or(-EPS, |(d, _)| d) {
                            best = Some((delta, cand));
                        }
                    }
                }
                if let Some((_, new_left)) = best {
                    objective.apply_move(cell, center(new_left), yc, layer as u16);
                    rows.cells[layer][row][i].0 = new_left;
                    stats.slides += 1;
                    improved = true;
                }

                // 2. Adjacent swap with the right neighbor: re-pack the
                //    pair inside its combined span, order exchanged. The
                //    pair is priced read-only (`delta_pair`) and committed
                //    only when it improves — no apply-and-revert round
                //    trip perturbing `total`.
                if i + 1 < rows.cells[layer][row].len() {
                    let (ax, aw, a) = rows.cells[layer][row][i];
                    let (_bx, bw, b) = rows.cells[layer][row][i + 1];
                    let span_left = ax;
                    // After the swap: b sits at span_left, a right after b.
                    let first = CellMove {
                        cell: b,
                        x: span_left + bw / 2.0,
                        y: yc,
                        layer: layer as u16,
                    };
                    let second = CellMove {
                        cell: a,
                        x: span_left + bw + aw / 2.0,
                        y: yc,
                        layer: layer as u16,
                    };
                    if objective.delta_pair(first, second) < -EPS {
                        objective.apply_pair(first, second);
                        rows.cells[layer][row][i] = (span_left, bw, b);
                        rows.cells[layer][row][i + 1] = (span_left + bw, aw, a);
                        stats.swaps += 1;
                        improved = true;
                    }
                }
                i += 1;
            }
        }
    }
    improved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detail::{check_legal, legalize};
    use crate::objective::ObjectiveModel;
    use crate::{Placer, PlacerConfig};
    use tvp_bookshelf::synth::{generate, SynthConfig};

    #[test]
    fn refinement_improves_and_stays_legal() {
        let netlist = generate(&SynthConfig::named("r", 300, 1.5e-9)).unwrap();
        let config = PlacerConfig::new(2);
        let chip = crate::Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let run = &mut StageRun::default();
        let (placement, _) =
            crate::global::place(&netlist, &chip, &model, &config, &[], false, run);
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);
        crate::coarse::legalize(&mut objective, &netlist, &chip, &config, run);
        legalize(
            &mut objective,
            &netlist,
            &chip,
            config.detail_row_window,
            run,
        );
        assert_eq!(check_legal(&netlist, &chip, objective.placement()), None);

        let before = objective.total();
        let (stats, _) = refine(&mut objective, &netlist, &chip, 3, run);
        let after = objective.total();

        assert!(after <= before + 1e-12, "refinement must not regress");
        assert!(
            stats.slides + stats.swaps > 0,
            "a fresh legalization always leaves local slack"
        );
        assert!((before - after - stats.improvement).abs() < 1e-9 * before.max(1e-12));
        assert_eq!(
            check_legal(&netlist, &chip, objective.placement()),
            None,
            "legality preserved through every move"
        );
        // Objective caches stay consistent.
        let scratch = objective.recompute_total();
        assert!((objective.total() - scratch).abs() < 1e-9 * scratch.max(1e-12));
    }

    #[test]
    fn refinement_is_a_fixed_point_eventually() {
        let netlist = generate(&SynthConfig::named("r", 150, 7.5e-10)).unwrap();
        let result = Placer::new(PlacerConfig::new(2)).place(&netlist).unwrap();
        let config = PlacerConfig::new(2);
        let chip = result.chip.clone();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let mut objective = IncrementalObjective::new(&netlist, &model, result.placement.clone());
        // Run to convergence, then one more round must do ~nothing.
        let run = &mut StageRun::default();
        refine(&mut objective, &netlist, &chip, 20, run);
        let settled = objective.total();
        let (stats, _) = refine(&mut objective, &netlist, &chip, 1, run);
        assert!(
            (objective.total() - settled).abs() <= 1e-9 * settled.max(1e-12),
            "converged placement must be stable (extra improvement {})",
            stats.improvement
        );
    }
}
