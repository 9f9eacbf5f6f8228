//! Placement quality metrics: the quantities every figure of the paper's
//! evaluation reports.

use crate::objective::{IncrementalObjective, ObjectiveModel};
use crate::{Chip, PlaceError};
use std::fmt;
use tvp_netlist::Netlist;
use tvp_thermal::{
    CgStats, FallbackStats, GridOracle, PowerMap, Preconditioner, TemperatureField,
    ThermalSimulator,
};

/// Quality metrics of one placement.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PlacementMetrics {
    /// Total half-perimeter wirelength, meters.
    pub wirelength: f64,
    /// Total interlayer via count (sum of net layer spans).
    pub ilv_count: f64,
    /// Via count per interlayer boundary per unit footprint area, m⁻²
    /// (the Fig. 3 y-axis). Zero for single-layer chips.
    pub ilv_density_per_interlayer: f64,
    /// Total dynamic power, watts (Eq. 4–5 summed over nets).
    pub total_power: f64,
    /// Mean cell temperature from the finite-volume simulation, °C.
    pub avg_temperature: f64,
    /// Maximum device temperature, °C.
    pub max_temperature: f64,
    /// Objective value (Eq. 3) the placer was minimizing.
    pub objective: f64,
}

impl fmt::Display for PlacementMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WL = {:.4e} m, ILV = {:.0}, power = {:.4e} W, T_avg = {:.2} °C, T_max = {:.2} °C",
            self.wirelength,
            self.ilv_count,
            self.total_power,
            self.avg_temperature,
            self.max_temperature
        )
    }
}

/// Computes all metrics for the placement held by `objective`.
///
/// Temperatures come from the finite-volume simulator on a
/// `thermal_grid.0 × thermal_grid.1` lateral grid; the power map deposits
/// each cell's Eq. 10 power at its placed position. The average
/// temperature is the mean over *cells* (cell temperatures are what the
/// Eq. 1 objective weighs), the maximum over all device nodes.
///
/// # Errors
///
/// Propagates thermal simulator construction/solve failures.
pub fn compute(
    netlist: &Netlist,
    chip: &Chip,
    model: &ObjectiveModel,
    objective: &IncrementalObjective<'_>,
    thermal_grid: (usize, usize),
) -> Result<PlacementMetrics, PlaceError> {
    let (nx, ny) = thermal_grid;
    let sim = ThermalSimulator::new(chip.stack, chip.width, chip.depth, nx, ny)?;
    let mut oracle = GridOracle::full_grid(sim, Preconditioner::default());
    compute_with(netlist, chip, model, objective, &mut oracle)
}

/// [`compute`] through a caller-owned [`GridOracle`], so a placement
/// loop that evaluates temperature repeatedly reuses the oracle's cached
/// state (preconditioner setup and CG warm starts).
///
/// # Errors
///
/// Propagates thermal solve failures.
pub fn compute_with(
    netlist: &Netlist,
    chip: &Chip,
    model: &ObjectiveModel,
    objective: &IncrementalObjective<'_>,
    oracle: &mut GridOracle,
) -> Result<PlacementMetrics, PlaceError> {
    compute_with_guarded(
        netlist,
        chip,
        model,
        objective,
        oracle,
        ThermalGuard::default(),
    )
    .map(|(metrics, _)| metrics)
}

/// [`compute_with`] plus the [`ThermalOutcome`], so the engine can
/// inject faults and record degradations.
pub(crate) fn compute_with_guarded(
    netlist: &Netlist,
    chip: &Chip,
    model: &ObjectiveModel,
    objective: &IncrementalObjective<'_>,
    oracle: &mut GridOracle,
    guard: ThermalGuard,
) -> Result<(PlacementMetrics, ThermalOutcome), PlaceError> {
    let wirelength = objective.total_wirelength();
    let ilv_count = objective.total_ilv();
    let total_power = objective.total_power();

    let interlayers = chip.num_layers.saturating_sub(1);
    let ilv_density_per_interlayer = if interlayers == 0 {
        0.0
    } else {
        ilv_count / interlayers as f64 / chip.layer_area()
    };

    let (field, outcome) = solve_field(netlist, chip, model, objective, oracle, guard)?;
    let (avg_temperature, max_temperature) = sample_cells(chip, objective, &field);

    Ok((
        PlacementMetrics {
            wirelength,
            ilv_count,
            ilv_density_per_interlayer,
            total_power,
            avg_temperature,
            max_temperature,
            objective: objective.total(),
        },
        outcome,
    ))
}

/// Fault injections for one guarded thermal solve (all off in normal
/// operation).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct ThermalGuard {
    /// Poison one power-map deposit with NaN before the solve.
    pub inject_nan: bool,
    /// Pretend CG reported non-convergence, forcing the fallback.
    pub inject_cg_failure: bool,
}

/// What a guarded thermal solve actually did. Anything non-default means
/// the result is approximate and the run should flag
/// [`Degradation::ThermalDegraded`](crate::Degradation).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub(crate) struct ThermalOutcome {
    /// Non-finite power deposits zeroed before the solve.
    pub sanitized: usize,
    /// CG convergence record when the normal path ran.
    pub cg: Option<CgStats>,
    /// Damped-Jacobi record when CG was bypassed or diverged.
    pub fallback: Option<FallbackStats>,
}

impl ThermalOutcome {
    /// Whether anything other than the normal clean CG solve happened.
    pub fn degraded(&self) -> bool {
        self.sanitized > 0 || self.fallback.is_some()
    }

    /// Iterations the solve (CG or fallback) consumed.
    pub fn iterations(&self) -> usize {
        match (self.cg, self.fallback) {
            (Some(cg), _) => cg.iterations,
            (None, Some(fb)) => fb.iterations,
            (None, None) => 0,
        }
    }

    /// Whether the solve warm-started (the fallback never does).
    pub fn warm_started(&self) -> bool {
        self.cg.is_some_and(|s| s.warm_started)
    }

    /// Stable name of the preconditioner (or fallback solver) that
    /// produced the field.
    pub fn preconditioner(&self) -> &'static str {
        match (self.cg, self.fallback) {
            (Some(cg), _) => cg.preconditioner.as_str(),
            (None, Some(_)) => "damped-jacobi",
            (None, None) => "none",
        }
    }

    /// Relative residual before the first iteration (1.0 when the solve
    /// ran cold or through the fallback).
    pub fn initial_residual(&self) -> f64 {
        self.cg.map_or(1.0, |s| s.initial_residual)
    }

    /// Human-readable summary of the degradations, for the event stream.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.sanitized > 0 {
            parts.push(format!(
                "{} non-finite power deposit(s) zeroed",
                self.sanitized
            ));
        }
        if let Some(fb) = self.fallback {
            parts.push(format!(
                "CG gave way to damped Jacobi ({} sweeps, residual {:.3e})",
                fb.iterations, fb.residual
            ));
        }
        parts.join("; ")
    }
}

/// Deposits each placed cell's Eq. 10 power into a power map matching
/// `oracle`'s evaluation grid.
fn build_power_map(
    netlist: &Netlist,
    chip: &Chip,
    model: &ObjectiveModel,
    objective: &IncrementalObjective<'_>,
    oracle: &GridOracle,
) -> PowerMap {
    let (nx, ny, _) = oracle.grid_dims();
    let mut power_map = PowerMap::new(nx, ny, chip.num_layers);
    for (cell, x, y, layer) in objective.placement().iter() {
        let p = model.power().cell_power(netlist, cell, |e| {
            let g = objective.net_geometry(e);
            (g.wirelength(), g.ilv)
        });
        if p > 0.0 {
            power_map.deposit(
                x,
                y,
                (layer as usize).min(chip.num_layers - 1),
                p,
                chip.width,
                chip.depth,
            );
        }
    }
    power_map
}

/// Solves the thermal field of the current placement through `oracle`
/// (warm-starting from its previous solution) and returns the field plus
/// the solve's [`ThermalOutcome`].
///
/// This is the hardened path every stage boundary uses: non-finite power
/// deposits (injected or genuine) are zeroed before the solve, and a CG
/// breakdown (injected via `guard.inject_cg_failure`, or a genuine
/// divergence inside the oracle) falls back to the
/// unconditionally-convergent damped-Jacobi solver instead of failing
/// the run.
pub(crate) fn solve_field(
    netlist: &Netlist,
    chip: &Chip,
    model: &ObjectiveModel,
    objective: &IncrementalObjective<'_>,
    oracle: &mut GridOracle,
    guard: ThermalGuard,
) -> Result<(TemperatureField, ThermalOutcome), PlaceError> {
    let mut power_map = build_power_map(netlist, chip, model, objective, oracle);
    if guard.inject_nan {
        if let Some(v) = power_map.values_mut().first_mut() {
            *v = f64::NAN;
        }
    }

    let sanitized = power_map.sanitize();
    let (field, stats) = oracle.solve(&power_map, guard.inject_cg_failure)?;
    Ok((
        field,
        ThermalOutcome {
            sanitized,
            cg: stats.cg,
            fallback: stats.fallback,
        },
    ))
}

/// Samples `field` at every placed cell and returns the
/// `(cell-average, max)` temperatures: the average is over *cells* (cell
/// temperatures are what the Eq. 1 objective weighs), the maximum over
/// all device nodes.
pub(crate) fn sample_cells(
    chip: &Chip,
    objective: &IncrementalObjective<'_>,
    field: &TemperatureField,
) -> (f64, f64) {
    let mut t_sum = 0.0;
    let mut n_cells = 0usize;
    for (_, x, y, layer) in objective.placement().iter() {
        t_sum += field.sample(x, y, layer as usize, chip.width, chip.depth);
        n_cells += 1;
    }
    let avg_temperature = if n_cells == 0 {
        field.ambient()
    } else {
        t_sum / n_cells as f64
    };
    (avg_temperature, field.max_temperature())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Placement, PlacerConfig};
    use tvp_bookshelf::synth::{generate, SynthConfig};
    use tvp_netlist::CellId;

    fn fixture() -> (Netlist, Chip, PlacerConfig) {
        let netlist = generate(&SynthConfig::named("t", 150, 7.5e-10)).unwrap();
        let config = PlacerConfig::new(4);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        (netlist, chip, config)
    }

    #[test]
    fn metrics_are_consistent_with_objective() {
        let (netlist, chip, config) = fixture();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let mut placement = Placement::centered(netlist.num_cells(), &chip);
        for i in 0..netlist.num_cells() {
            placement.set(
                CellId::new(i),
                (i as f64 / netlist.num_cells() as f64) * chip.width,
                chip.depth / 2.0,
                (i % 4) as u16,
            );
        }
        let objective = IncrementalObjective::new(&netlist, &model, placement);
        let metrics = compute(&netlist, &chip, &model, &objective, (8, 8)).unwrap();
        assert!((metrics.wirelength - objective.total_wirelength()).abs() < 1e-15);
        assert!((metrics.ilv_count - objective.total_ilv()).abs() < 1e-15);
        assert!(metrics.total_power > 0.0);
        assert!(
            metrics.avg_temperature > 0.0,
            "powered chip is above ambient"
        );
        assert!(metrics.max_temperature >= metrics.avg_temperature);
        let expected_density = metrics.ilv_count / 3.0 / chip.layer_area();
        assert!((metrics.ilv_density_per_interlayer - expected_density).abs() < 1e-6);
        assert!(!metrics.to_string().is_empty());
    }

    #[test]
    fn single_layer_has_zero_ilv_density() {
        let netlist = generate(&SynthConfig::named("t", 80, 4.0e-10)).unwrap();
        let config = PlacerConfig::new(1);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let objective = IncrementalObjective::new(
            &netlist,
            &model,
            Placement::centered(netlist.num_cells(), &chip),
        );
        let metrics = compute(&netlist, &chip, &model, &objective, (4, 4)).unwrap();
        assert_eq!(metrics.ilv_count, 0.0);
        assert_eq!(metrics.ilv_density_per_interlayer, 0.0);
    }

    #[test]
    fn guarded_solve_survives_injected_nan_and_cg_breakdown() {
        let (netlist, chip, config) = fixture();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let objective = IncrementalObjective::new(
            &netlist,
            &model,
            Placement::centered(netlist.num_cells(), &chip),
        );
        let sim = ThermalSimulator::new(chip.stack, chip.width, chip.depth, 8, 8).unwrap();
        let mut oracle = GridOracle::full_grid(sim.clone(), Preconditioner::default());
        let clean = compute_with(&netlist, &chip, &model, &objective, &mut oracle).unwrap();

        for guard in [
            ThermalGuard {
                inject_nan: true,
                inject_cg_failure: false,
            },
            ThermalGuard {
                inject_nan: false,
                inject_cg_failure: true,
            },
            ThermalGuard {
                inject_nan: true,
                inject_cg_failure: true,
            },
        ] {
            let mut oracle = GridOracle::full_grid(sim.clone(), Preconditioner::default());
            let (metrics, outcome) =
                compute_with_guarded(&netlist, &chip, &model, &objective, &mut oracle, guard)
                    .unwrap();
            assert!(outcome.degraded(), "{guard:?}");
            assert_eq!(outcome.sanitized > 0, guard.inject_nan);
            assert_eq!(outcome.fallback.is_some(), guard.inject_cg_failure);
            assert!(!outcome.describe().is_empty());
            assert!(
                metrics.avg_temperature.is_finite() && metrics.avg_temperature > 0.0,
                "degraded solve still produces a usable field"
            );
            // The degraded answer is approximate (damped Jacobi stops on
            // an iteration cap; a zeroed deposit removes some power) but
            // must stay the same order of magnitude as the clean solve.
            let rel =
                (metrics.avg_temperature - clean.avg_temperature).abs() / clean.avg_temperature;
            assert!(rel < 0.75, "guard {guard:?} drifted {rel}");
        }
    }

    #[test]
    fn concentrating_power_on_top_layer_heats_the_chip() {
        let (netlist, chip, config) = fixture();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let temp_with_all_on = |layer: u16| -> f64 {
            let mut placement = Placement::centered(netlist.num_cells(), &chip);
            for i in 0..netlist.num_cells() {
                let (x, y, _) = placement.position(CellId::new(i));
                placement.set(CellId::new(i), x, y, layer);
            }
            let objective = IncrementalObjective::new(&netlist, &model, placement);
            compute(&netlist, &chip, &model, &objective, (8, 8))
                .unwrap()
                .avg_temperature
        };
        let bottom = temp_with_all_on(0);
        let top = temp_with_all_on(3);
        assert!(
            top > bottom,
            "top-layer power ({top}) must run hotter than bottom ({bottom})"
        );
    }
}
