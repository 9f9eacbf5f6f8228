//! Coarse legalization (paper §4): cell shifting for spreading plus
//! objective-driven moves and swaps, interleaved per §6.

pub mod mesh;
pub mod moves;
pub mod shift;

pub use mesh::DensityMesh;

use crate::engine::StageRun;
use crate::objective::IncrementalObjective;
use crate::observer::PassEvent;
use crate::{Chip, PlacerConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::ops::ControlFlow;
use tvp_netlist::Netlist;

/// perfbench's replay surface (`perfbench/src/place.rs` calls it by
/// name, so its name and signature stay): [`legalize`] with a run that
/// reports to `probe` and stops where it breaks. Library code calls
/// [`legalize`].
pub fn coarse_legalize_observed(
    objective: &mut IncrementalObjective<'_>,
    netlist: &Netlist,
    chip: &Chip,
    config: &PlacerConfig,
    probe: &mut dyn FnMut(PassEvent) -> ControlFlow<()>,
) -> (DensityMesh, bool) {
    legalize(
        objective,
        netlist,
        chip,
        config,
        &mut StageRun::observed(probe),
    )
}

/// Runs the full coarse-legalization stage (§6 ordering): global
/// moves/swaps, local moves/swaps, then cell shifting until the maximum
/// bin density falls below the configured target.
///
/// After every moves pass and every shifting pass and phase, `run`
/// receives a [`PassEvent`] and may stop the stage at that boundary; an
/// armed pricer adds the frozen-field thermal term to every move/swap
/// candidate's delta (DESIGN.md §14). Returns the mesh in its final state
/// (so detailed legalization can reuse the density information) plus
/// whether the stage was interrupted.
pub fn legalize(
    objective: &mut IncrementalObjective<'_>,
    netlist: &Netlist,
    chip: &Chip,
    config: &PlacerConfig,
    run: &mut StageRun<'_>,
) -> (DensityMesh, bool) {
    let mut mesh = DensityMesh::coarse(chip);
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xC0A5_E5EE);

    // Global placement leaves each leaf region's cells stacked on one
    // point. Cell shifting maps coordinates linearly, so exactly coincident
    // cells could never separate; a deterministic sub-bin jitter breaks the
    // ties (and perturbs the objective by at most a bin diagonal per cell).
    jitter(objective, netlist, chip, &mut rng);
    mesh.rebuild(netlist, objective.placement());

    for pass in 0..config.coarse_move_passes {
        let mut improved = moves::global_pass(
            objective,
            &mut mesh,
            netlist,
            chip,
            config.coarse_target_region_bins,
            &mut rng,
            run,
        );
        improved += moves::local_pass(objective, &mut mesh, netlist, chip, &mut rng, run);
        if run
            .pass(PassEvent::CoarseMoves {
                pass,
                improved,
                objective: objective.total(),
            })
            .is_break()
        {
            return (mesh, true);
        }
    }

    if shift_phase(objective, &mut mesh, netlist, chip, config, run)
        != Some(ControlFlow::Continue(()))
    {
        return (mesh, true);
    }

    // One final local cleanup now that densities are even.
    let improved = moves::local_pass(objective, &mut mesh, netlist, chip, &mut rng, run);
    if run
        .pass(PassEvent::CoarseMoves {
            pass: config.coarse_move_passes,
            improved,
            objective: objective.total(),
        })
        .is_break()
    {
        return (mesh, true);
    }
    // Moves may have re-congested isolated bins; restore the density
    // guarantee detailed legalization relies on. The stage ends with this
    // phase, so only a stop inside the spread counts as an interruption.
    let interrupted = shift_phase(objective, &mut mesh, netlist, chip, config, run).is_none();
    (mesh, interrupted)
}

/// One shifting phase: spreads toward the configured target, then
/// reports a [`PassEvent::CoarseShift`]. Returns `None` when `run`
/// stopped the spread itself, else the report's cancellation answer.
fn shift_phase(
    objective: &mut IncrementalObjective<'_>,
    mesh: &mut DensityMesh,
    netlist: &Netlist,
    chip: &Chip,
    config: &PlacerConfig,
    run: &mut StageRun<'_>,
) -> Option<ControlFlow<()>> {
    let (iterations, interrupted) = shift::spread(
        objective,
        mesh,
        netlist,
        chip,
        config.coarse_max_density,
        config.coarse_shift_iterations,
        config.shift_strategy,
        run,
    );
    (!interrupted).then(|| {
        run.pass(PassEvent::CoarseShift {
            iterations,
            max_density: mesh.max_density(),
            objective: objective.total(),
        })
    })
}

/// Displaces every movable cell by a small random offset (within one bin)
/// so no two cells share an exact position.
fn jitter(
    objective: &mut IncrementalObjective<'_>,
    netlist: &Netlist,
    chip: &Chip,
    rng: &mut SmallRng,
) {
    use rand::RngExt;
    let dx_max = chip.avg_cell_width;
    let dy_max = chip.row_pitch;
    for (cell, _) in netlist.iter_cells() {
        if !netlist.cell(cell).is_movable() {
            continue;
        }
        let (x, y, layer) = objective.placement().position(cell);
        let nx = x + rng.random_range(-dx_max..dx_max);
        let ny = y + rng.random_range(-dy_max..dy_max);
        let (nx, ny) = chip.clamp(nx, ny);
        objective.apply_move(cell, nx, ny, layer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ObjectiveModel;
    use tvp_bookshelf::synth::{generate, SynthConfig};

    #[test]
    fn coarse_stage_spreads_global_placement() {
        let netlist = generate(&SynthConfig::named("t", 400, 2.0e-9)).unwrap();
        let config = PlacerConfig::new(2);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let mut run = StageRun::default();
        let (placement, _) =
            crate::global::place(&netlist, &chip, &model, &config, &[], false, &mut run);
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);

        let mut initial_mesh = DensityMesh::coarse(&chip);
        initial_mesh.rebuild(&netlist, objective.placement());
        let density_before = initial_mesh.max_density();

        let (mesh, _) = legalize(&mut objective, &netlist, &chip, &config, &mut run);

        assert!(
            mesh.max_density() < density_before,
            "coarse legalization must reduce congestion: {} → {}",
            density_before,
            mesh.max_density()
        );
        assert!(
            mesh.max_density() <= config.coarse_max_density * 2.0,
            "max density {} far above target",
            mesh.max_density()
        );
        assert!(objective.placement().find_out_of_bounds(&chip).is_none());
        let scratch = objective.recompute_total();
        assert!((objective.total() - scratch).abs() < 1e-9 * scratch.max(1e-12));
    }
}
