//! Tiered thermal oracles: one trait, two fidelities.
//!
//! The placer needs temperature estimates at wildly different price
//! points: microseconds per query inside legalization move loops,
//! milliseconds at stage boundaries, and full fidelity for the final
//! score. [`ThermalOracle`] abstracts over the implementations so every
//! call site in the placer dispatches through one interface and a
//! per-stage policy picks the model:
//!
//! * [`ThermalTier::FullGrid`] — the finite-volume multigrid-CG solver at
//!   the evaluation resolution ([`GridOracle`] wrapping
//!   [`ThermalSimulator`] + [`ThermalSolveContext`]). Ground truth.
//! * [`ThermalTier::Compact`] — the analytical superposition model
//!   ([`CompactModel`](crate::CompactModel)): closed-form per-source
//!   heat-spread kernel with amplitudes fitted against the full-grid
//!   solver. Microseconds per field, O(1) per cached-field probe — cheap
//!   enough to price individual moves.
//!
//! Oracles own their warm-start/context state; `solve` reproduces the
//! historical solve sequence of the grid-backed path bit for bit
//! (CG → damped-Jacobi fallback on divergence, context reset after a
//! fallback), so routing the default full-grid configuration through the
//! trait changes nothing observable.

use crate::{
    CgStats, FallbackStats, PowerMap, Preconditioner, TemperatureField, ThermalError,
    ThermalSimulator, ThermalSolveContext,
};

/// Accuracy/speed tier of a thermal oracle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ThermalTier {
    /// Closed-form superposition model, fitted against the full-grid
    /// solver. Microseconds per evaluation.
    Compact,
    /// Finite-volume multigrid-CG solve at full evaluation resolution
    /// (the default, and the ground truth the other tiers are measured
    /// against).
    FullGrid,
}

impl ThermalTier {
    /// Stable lowercase identifier used in config, CLI flags, trace
    /// events, and benchmark artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            ThermalTier::Compact => "compact",
            ThermalTier::FullGrid => "full-grid",
        }
    }

    /// Parses an identifier (accepts the short alias `full`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "compact" => Some(ThermalTier::Compact),
            "full-grid" | "full" => Some(ThermalTier::FullGrid),
            _ => None,
        }
    }
}

impl std::fmt::Display for ThermalTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Solver-side statistics of one oracle solve. Grid-backed tiers fill
/// `cg` (or `fallback` after a CG breakdown); the compact tier reports
/// neither — its evaluation is direct arithmetic.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct OracleStats {
    /// CG convergence record, when conjugate gradients ran.
    pub cg: Option<CgStats>,
    /// Damped-Jacobi fallback record, when CG broke down (or was forced
    /// to).
    pub fallback: Option<FallbackStats>,
}

/// A temperature model the placer can query at its tier's price point.
///
/// The power map handed to [`solve`](Self::solve) must be built at
/// [`grid_dims`](Self::grid_dims) — callers deposit cell powers at
/// whatever resolution the oracle evaluates, which
/// [`PowerMap::deposit`]'s physical-coordinate addressing makes
/// resolution-agnostic.
pub trait ThermalOracle {
    /// Which tier this oracle implements.
    fn tier(&self) -> ThermalTier;

    /// Power-map dimensions `(nx, ny, num_device_layers)` this oracle
    /// evaluates at.
    fn grid_dims(&self) -> (usize, usize, usize);

    /// Chip footprint `(width, depth)`, meters.
    fn footprint(&self) -> (f64, f64);

    /// Computes the steady-state temperature field for `power`.
    ///
    /// `force_fallback` forces the degraded damped-Jacobi path on
    /// grid-backed tiers (fault injection); the compact tier has no
    /// iterative solver and ignores it.
    ///
    /// # Errors
    ///
    /// [`ThermalError::GridMismatch`] when `power` does not match
    /// [`grid_dims`](Self::grid_dims); grid-backed tiers additionally
    /// propagate unrecoverable solver errors.
    fn solve(
        &mut self,
        power: &PowerMap,
        force_fallback: bool,
    ) -> crate::Result<(TemperatureField, OracleStats)>;

    /// Drops any warm-start state (the next solve runs cold).
    fn reset(&mut self);
}

/// Grid-backed oracle: the finite-volume solver plus its reusable solve
/// context. This is the historical stage-boundary path, verbatim:
/// warm-started preconditioned CG, with the damped-Jacobi fallback (and
/// a context reset) on breakdown.
#[derive(Clone, PartialEq, Debug)]
pub struct GridOracle {
    sim: ThermalSimulator,
    context: ThermalSolveContext,
}

impl GridOracle {
    /// Wraps `sim` as the full-resolution ground-truth tier.
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
}

impl ThermalOracle for GridOracle {
    fn tier(&self) -> ThermalTier {
        ThermalTier::FullGrid
    }

    fn grid_dims(&self) -> (usize, usize, usize) {
        self.sim.grid_dims()
    }

    fn footprint(&self) -> (f64, f64) {
        self.sim.footprint()
    }

    fn solve(
        &mut self,
        power: &PowerMap,
        force_fallback: bool,
    ) -> crate::Result<(TemperatureField, OracleStats)> {
        if force_fallback {
            let (field, stats) = self.sim.solve_fallback(power)?;
            self.context.reset();
            return Ok((
                field,
                OracleStats {
                    cg: None,
                    fallback: Some(stats),
                },
            ));
        }
        match self.sim.solve_with(power, &mut self.context) {
            Ok(field) => Ok((
                field,
                OracleStats {
                    cg: self.context.last_stats(),
                    fallback: None,
                },
            )),
            Err(ThermalError::SolverDiverged { .. }) => {
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
            Err(e) => Err(e),
        }
    }

    fn reset(&mut self) {
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
    fn tier_identifiers_round_trip() {
        for tier in [ThermalTier::Compact, ThermalTier::FullGrid] {
            assert_eq!(ThermalTier::parse(tier.as_str()), Some(tier));
        }
        assert_eq!(ThermalTier::parse("full"), Some(ThermalTier::FullGrid));
        assert_eq!(ThermalTier::parse("fv"), None);
        assert_eq!(ThermalTier::parse("coarse-grid"), None);
        assert_eq!(ThermalTier::parse("coarse"), None);
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
        assert_eq!(oracle.tier(), ThermalTier::FullGrid);
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
