//! The placer's one temperature model: the finite-volume multigrid-CG
//! solver at the evaluation resolution ([`GridOracle`] wrapping
//! [`ThermalSimulator`] + [`ThermalSolveContext`]).
//!
//! The oracle owns its warm-start state; [`GridOracle::solve`] runs the
//! solve sequence every stage boundary uses (CG → damped-Jacobi fallback
//! on divergence, context reset after a fallback).

use crate::{
    CgStats, FallbackStats, PowerMap, Preconditioner, TemperatureField, ThermalError,
    ThermalSimulator, ThermalSolveContext,
};

/// Solver-side statistics of one oracle solve: `cg` when conjugate
/// gradients converged, `fallback` after a CG breakdown.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct OracleStats {
    /// CG convergence record, when conjugate gradients ran.
    pub cg: Option<CgStats>,
    /// Damped-Jacobi fallback record, when CG broke down (or was forced
    /// to).
    pub fallback: Option<FallbackStats>,
}

/// The finite-volume solver plus its reusable solve context:
/// warm-started preconditioned CG, with the damped-Jacobi fallback (and
/// a context reset) on breakdown.
#[derive(Clone, PartialEq, Debug)]
pub struct GridOracle {
    sim: ThermalSimulator,
    context: ThermalSolveContext,
}

impl GridOracle {
    /// Wraps `sim` with a cold solve context preconditioned by `precond`.
    pub fn full_grid(sim: ThermalSimulator, precond: Preconditioner) -> Self {
        let context = sim.context_with(precond);
        Self { sim, context }
    }

    /// The wrapped simulator.
    pub fn simulator(&self) -> &ThermalSimulator {
        &self.sim
    }

    /// The wrapped solve context (warm-start state, preconditioner).
    pub fn context(&self) -> &ThermalSolveContext {
        &self.context
    }

    /// Power-map dimensions `(nx, ny, num_device_layers)` this oracle
    /// evaluates at; the power map handed to [`solve`](Self::solve) must
    /// be built at these dimensions.
    pub fn grid_dims(&self) -> (usize, usize, usize) {
        self.sim.grid_dims()
    }

    /// Chip footprint `(width, depth)`, meters.
    pub fn footprint(&self) -> (f64, f64) {
        self.sim.footprint()
    }

    /// Computes the steady-state temperature field for `power`,
    /// warm-starting from the previous solve.
    ///
    /// `force_fallback` forces the degraded damped-Jacobi path (fault
    /// injection).
    ///
    /// # Errors
    ///
    /// [`ThermalError::GridMismatch`] when `power` does not match
    /// [`grid_dims`](Self::grid_dims), and unrecoverable solver errors.
    pub fn solve(
        &mut self,
        power: &PowerMap,
        force_fallback: bool,
    ) -> crate::Result<(TemperatureField, OracleStats)> {
        if force_fallback {
            return self.fallback(power);
        }
        match self.sim.solve_with(power, &mut self.context) {
            Ok(field) => Ok((
                field,
                OracleStats {
                    cg: self.context.last_stats(),
                    fallback: None,
                },
            )),
            Err(ThermalError::SolverDiverged { .. }) => self.fallback(power),
            Err(e) => Err(e),
        }
    }

    /// The damped-Jacobi solve; drops the warm start, since the CG
    /// context no longer matches the field.
    fn fallback(&mut self, power: &PowerMap) -> crate::Result<(TemperatureField, OracleStats)> {
        let (field, stats) = self.sim.solve_fallback(power)?;
        self.context.reset();
        Ok((
            field,
            OracleStats {
                cg: None,
                fallback: Some(stats),
            },
        ))
    }

    /// Drops any warm-start state (the next solve runs cold).
    pub fn reset(&mut self) {
        self.context.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerStack;

    fn power(nx: usize, ny: usize, layers: usize) -> PowerMap {
        let mut p = PowerMap::new(nx, ny, layers);
        for k in 0..layers {
            for j in 0..ny {
                for i in 0..nx {
                    p.add(
                        i,
                        j,
                        k,
                        1.0e-3 * (1.0 + i as f64 * 0.3 + j as f64 * 0.2 + k as f64),
                    );
                }
            }
        }
        p
    }

    #[test]
    fn grid_oracle_matches_direct_solver_bit_for_bit() {
        let stack = LayerStack::mitll_0_18um(4);
        let sim = ThermalSimulator::new(stack, 1.0e-3, 1.0e-3, 8, 8).unwrap();
        let p = power(8, 8, 4);

        let mut context = sim.context_with(Preconditioner::default());
        let direct0 = sim.solve_with(&p, &mut context).unwrap();
        let direct1 = sim.solve_with(&p, &mut context).unwrap();

        let mut oracle = GridOracle::full_grid(sim, Preconditioner::default());
        let (o0, s0) = oracle.solve(&p, false).unwrap();
        let (o1, s1) = oracle.solve(&p, false).unwrap();
        assert_eq!(direct0, o0, "cold solve must be the historical path");
        assert_eq!(direct1, o1, "warm solve must be the historical path");
        assert!(!s0.cg.unwrap().warm_started);
        assert!(s1.cg.unwrap().warm_started);
    }

    #[test]
    fn forced_fallback_resets_warm_start() {
        let stack = LayerStack::mitll_0_18um(2);
        let sim = ThermalSimulator::new(stack, 1.0e-3, 1.0e-3, 4, 4).unwrap();
        let p = power(4, 4, 2);
        let mut oracle = GridOracle::full_grid(sim, Preconditioner::default());
        let (_, stats) = oracle.solve(&p, true).unwrap();
        assert!(stats.fallback.is_some());
        assert!(stats.cg.is_none());
        let (_, stats) = oracle.solve(&p, false).unwrap();
        assert!(
            !stats.cg.unwrap().warm_started,
            "fallback must drop the warm start"
        );
    }
}
