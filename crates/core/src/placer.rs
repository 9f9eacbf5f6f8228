//! The complete placement pipeline (paper §6), run by the stage engine.
//!
//! [`Placer::place`] executes the default plan (global → coarse → detail
//! → post-opt rounds) with nothing attached. [`Placer::place_with_options`]
//! is the full entry point: attach a [`PlacerObserver`] for structured
//! progress events, a [`CancelToken`] and/or wall-clock time budget for
//! graceful early stops, and a checkpoint directory for stage-boundary
//! snapshots and resume (DESIGN.md §9).

use crate::control::CancelToken;
use crate::detail::LegalizeStats;
use crate::engine;
use crate::faults::{Degradation, FaultPlan};
use crate::metrics::PlacementMetrics;
use crate::observer::PlacerObserver;
use crate::{Chip, PlaceError, Placement, PlacerConfig};
use std::path::PathBuf;
use std::time::Duration;

/// Wall-clock timing of one coarse+detail optimization round.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RoundTiming {
    /// Coarse legalization (moves/swaps + cell shifting) of this round.
    pub coarse: Duration,
    /// Detailed legalization + refinement of this round.
    pub detail: Duration,
}

/// Wall-clock duration of each pipeline stage.
///
/// `coarse` and `detail` are totals across every optimization round;
/// `rounds` breaks the same time down per round (round 0 is the first
/// legalization, rounds 1.. the post-opt rounds; an interrupted run
/// reports only the rounds that executed).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StageTimings {
    /// Recursive-bisection global placement.
    pub global: Duration,
    /// Coarse legalization (moves/swaps + cell shifting), all rounds.
    pub coarse: Duration,
    /// Detailed legalization, all rounds.
    pub detail: Duration,
    /// Per-round breakdown of `coarse`/`detail`.
    pub rounds: Vec<RoundTiming>,
    /// Whole pipeline including metric evaluation.
    pub total: Duration,
}

/// Temperatures and thermal-solver effort at one pipeline stage boundary.
///
/// Each snapshot records which oracle tier answered (DESIGN.md §14).
/// Grid tiers solve through one shared CG context per oracle, so each
/// snapshot after the first warm-starts from the previous stage's field;
/// `cg_iterations` records what that saved. When a cheaper tier than the
/// full grid answered, `cross_model_max_error`/`cross_model_avg_error`
/// hold its per-cell deviation from a fresh full-grid reference solve
/// (NaN — rendered `null` in trace events — when the full grid itself
/// answered and there is nothing to compare).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ThermalSnapshot {
    /// Pipeline stage this snapshot was taken after.
    pub stage: &'static str,
    /// Oracle tier that produced the field (`"full-grid"` or
    /// `"compact"`).
    pub tier: &'static str,
    /// Mean cell temperature, °C.
    pub avg_temperature: f64,
    /// Maximum device temperature, °C.
    pub max_temperature: f64,
    /// CG iterations the solve consumed (0 for the compact tier — it
    /// never iterates).
    pub cg_iterations: usize,
    /// Whether the solve warm-started from the previous stage's field.
    pub warm_started: bool,
    /// Preconditioner that drove the solve (`"multigrid"`, `"jacobi"`,
    /// `"damped-jacobi"` when CG gave way to the fallback, or `"none"`
    /// for the compact tier).
    pub preconditioner: &'static str,
    /// Relative residual of the starting vector (1 for a cold start;
    /// small values mean the warm start was already close).
    pub initial_residual: f64,
    /// Maximum per-cell |ΔT| against the full-grid reference, K. NaN on
    /// full-grid snapshots.
    pub cross_model_max_error: f64,
    /// Mean per-cell |ΔT| against the full-grid reference, K. NaN on
    /// full-grid snapshots.
    pub cross_model_avg_error: f64,
}

/// Everything the pipeline produces.
#[derive(Clone, PartialEq, Debug)]
pub struct PlacementResult {
    /// The final legal placement.
    pub placement: Placement,
    /// Quality metrics (wirelength, vias, power, temperatures).
    pub metrics: PlacementMetrics,
    /// Detailed-legalization statistics of the final round.
    pub legalize: LegalizeStats,
    /// Per-stage wall-clock timings (Fig. 10 material), including the
    /// per-round breakdown.
    pub timings: StageTimings,
    /// Thermal field after each pipeline stage, all solved through one
    /// warm-started CG context (the last entry matches `metrics`).
    pub thermal_trajectory: Vec<ThermalSnapshot>,
    /// The chip geometry the netlist was placed on.
    pub chip: Chip,
    /// Whether cancellation or the time budget stopped the pipeline
    /// before every planned stage ran. The placement is still legal.
    pub stopped_early: bool,
    /// Name of the checkpointed stage this run resumed from, if any.
    pub resumed_from: Option<String>,
    /// Every graceful degradation the run performed instead of failing
    /// (thermal fallback, partition retries, checkpoint quarantine).
    /// Empty for a clean run; the placement is legal either way.
    pub degradations: Vec<Degradation>,
}

/// Per-run options for [`Placer::place_with_options`]: everything that
/// controls *how* a run executes without changing *what* it computes.
///
/// The default options attach nothing; the run then behaves exactly like
/// [`Placer::place`].
#[derive(Default)]
pub struct PlaceOptions<'o> {
    /// Event sink for structured progress (stage/pass boundaries,
    /// objective values, CG stats). `None` uses the zero-overhead no-op.
    pub observer: Option<&'o mut dyn PlacerObserver>,
    /// Cooperative cancellation token, checked at stage/pass boundaries.
    pub cancel: Option<CancelToken>,
    /// Wall-clock budget for the run; when exceeded the pipeline stops at
    /// the next boundary and returns the legal best-so-far placement.
    pub time_budget: Option<Duration>,
    /// Directory for stage-boundary checkpoints. When it already holds a
    /// compatible manifest, the run resumes from the newest checkpoint,
    /// skipping completed stages.
    pub checkpoint_dir: Option<PathBuf>,
    /// Deterministic fault plan for robustness testing: the listed faults
    /// fire at their stage-boundary sites and the pipeline must degrade
    /// gracefully instead of failing. `None` (the default) injects
    /// nothing.
    pub faults: Option<FaultPlan>,
    /// Fair-share thread grant from a [`tvp_parallel::ThreadBudget`].
    /// When set, the run's `with_threads` scope uses the granted count
    /// instead of `config.threads`, so concurrent placements (e.g. jobs
    /// in the `tvp serve` daemon) share the global pool fairly instead of
    /// each claiming one-run ownership. The lease is held for the whole
    /// run and released when placement returns. Checkpoint fingerprints
    /// zero the thread count, so a job may resume under a different grant
    /// and still reproduce bitwise.
    pub thread_lease: Option<tvp_parallel::ThreadLease>,
}

impl std::fmt::Debug for PlaceOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlaceOptions")
            .field("observer", &self.observer.as_ref().map(|_| "..."))
            .field("cancel", &self.cancel)
            .field("time_budget", &self.time_budget)
            .field("checkpoint_dir", &self.checkpoint_dir)
            .field("faults", &self.faults)
            .field("thread_lease", &self.thread_lease)
            .finish()
    }
}

/// The thermal/via-aware 3D placer.
///
/// # Example
///
/// ```
/// use tvp_core::{Placer, PlacerConfig};
/// use tvp_bookshelf::synth::{SynthConfig, generate};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let netlist = generate(&SynthConfig::named("demo", 150, 0.75e-9))?;
/// let result = Placer::new(PlacerConfig::new(2)).place(&netlist)?;
/// assert!(result.metrics.wirelength > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Placer {
    config: PlacerConfig,
}

impl Placer {
    /// Creates a placer with the given configuration.
    pub fn new(config: PlacerConfig) -> Self {
        Self { config }
    }

    /// The placer's configuration.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Runs the full §6 pipeline: TRR-net-aware global placement, coarse
    /// legalization, detailed legalization, and optional post-optimization
    /// rounds; then evaluates metrics (including the thermal simulation).
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] for an invalid configuration, an empty
    /// netlist, a thermal-model failure, or (never expected in practice)
    /// an internal legalization failure.
    pub fn place(&self, netlist: &tvp_netlist::Netlist) -> Result<PlacementResult, PlaceError> {
        self.place_with_fixed(netlist, &[])
    }

    /// Like [`place`](Self::place), but seeds positions for fixed cells
    /// (pads, pre-placed macros) before placement. Fixed cells never move;
    /// their positions steer terminal propagation and the objective.
    /// Positions are clamped to the derived chip footprint.
    ///
    /// # Errors
    ///
    /// Same conditions as [`place`](Self::place).
    pub fn place_with_fixed(
        &self,
        netlist: &tvp_netlist::Netlist,
        fixed_positions: &[(tvp_netlist::CellId, f64, f64, u16)],
    ) -> Result<PlacementResult, PlaceError> {
        self.place_with_options(netlist, fixed_positions, PlaceOptions::default())
    }

    /// The full-control entry point: [`place_with_fixed`] plus per-run
    /// [`PlaceOptions`] — observer, cancellation, time budget, and
    /// checkpoint/resume.
    ///
    /// Cancellation and budget exhaustion are *not* errors: the run
    /// returns `Ok` with a legal placement and
    /// [`stopped_early`](PlacementResult::stopped_early) set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`place`](Self::place), plus
    /// [`PlaceError::Checkpoint`] for checkpoint I/O or compatibility
    /// failures.
    ///
    /// [`place_with_fixed`]: Self::place_with_fixed
    pub fn place_with_options(
        &self,
        netlist: &tvp_netlist::Netlist,
        fixed_positions: &[(tvp_netlist::CellId, f64, f64, u16)],
        mut options: PlaceOptions<'_>,
    ) -> Result<PlacementResult, PlaceError> {
        // All parallel hot paths (thermal CG, objective rebuilds,
        // recursive bisection) read the effective thread count from this
        // scope; `config.threads == 0` means all hardware threads. A
        // thread lease, when attached, overrides the configured count so
        // concurrent runs share the pool fairly; it stays held (and its
        // grant reserved) until the run returns.
        let lease = options.thread_lease.take();
        let threads = lease
            .as_ref()
            .map(tvp_parallel::ThreadLease::granted)
            .unwrap_or(self.config.threads);
        tvp_parallel::with_threads(threads, || {
            engine::run_pipeline(&self.config, netlist, fixed_positions, &mut options)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_bookshelf::synth::{generate, SynthConfig};

    #[test]
    fn end_to_end_pipeline_is_legal_and_reports_metrics() {
        let netlist = generate(&SynthConfig::named("t", 250, 1.25e-9)).unwrap();
        let result = Placer::new(PlacerConfig::new(4)).place(&netlist).unwrap();
        assert_eq!(result.legalize.placed, 250);
        assert!(result.metrics.wirelength > 0.0);
        assert!(result.metrics.avg_temperature > 0.0);
        assert!(result.timings.total >= result.timings.global);
        assert!(!result.stopped_early);
        assert_eq!(result.resumed_from, None);
        // check_legal ran inside place(); re-verify from the outside.
        assert_eq!(
            crate::detail::check_legal(&netlist, &result.chip, &result.placement),
            None
        );
    }

    #[test]
    fn timings_report_one_round_by_default() {
        let netlist = generate(&SynthConfig::named("t", 150, 7.5e-10)).unwrap();
        let result = Placer::new(PlacerConfig::new(2)).place(&netlist).unwrap();
        assert_eq!(result.timings.rounds.len(), 1);
        let r = &result.timings.rounds[0];
        assert_eq!(r.coarse, result.timings.coarse);
        assert_eq!(r.detail, result.timings.detail);
    }

    #[test]
    fn timings_report_per_round_breakdown_with_post_opt() {
        let netlist = generate(&SynthConfig::named("t", 150, 7.5e-10)).unwrap();
        let mut config = PlacerConfig::new(2);
        config.post_opt_rounds = 2;
        let result = Placer::new(config).place(&netlist).unwrap();
        assert_eq!(result.timings.rounds.len(), 3);
        let coarse_sum: Duration = result.timings.rounds.iter().map(|r| r.coarse).sum();
        let detail_sum: Duration = result.timings.rounds.iter().map(|r| r.detail).sum();
        assert_eq!(coarse_sum, result.timings.coarse);
        assert_eq!(detail_sum, result.timings.detail);
    }

    #[test]
    fn empty_netlist_is_an_error() {
        let netlist = tvp_netlist::NetlistBuilder::new().build().unwrap();
        let err = Placer::new(PlacerConfig::new(2))
            .place(&netlist)
            .unwrap_err();
        assert!(matches!(err, PlaceError::EmptyNetlist));
    }

    #[test]
    fn invalid_config_is_an_error() {
        let netlist = generate(&SynthConfig::named("t", 50, 2.5e-10)).unwrap();
        let config = PlacerConfig::new(2).with_alpha_ilv(0.0);
        let err = Placer::new(config).place(&netlist).unwrap_err();
        assert!(matches!(err, PlaceError::InvalidConfig { .. }));
    }

    #[test]
    fn post_opt_rounds_do_not_break_legality() {
        let netlist = generate(&SynthConfig::named("t", 150, 7.5e-10)).unwrap();
        let mut config = PlacerConfig::new(2);
        config.post_opt_rounds = 1;
        let result = Placer::new(config).place(&netlist).unwrap();
        assert_eq!(
            crate::detail::check_legal(&netlist, &result.chip, &result.placement),
            None
        );
    }

    #[test]
    fn fixed_pads_pull_connected_cells() {
        // A pad fixed at the left edge should attract its sinks compared
        // to one fixed at the right edge.
        use tvp_netlist::{CellKind, NetlistBuilder, PinDirection};
        let mut b = NetlistBuilder::new();
        let pad = b.add_cell_with_kind("pad", 1.0e-6, 1.58e-6, CellKind::Pad);
        let mut sinks = Vec::new();
        for i in 0..240 {
            sinks.push(b.add_cell(format!("c{i}"), 2.0e-6, 1.58e-6));
        }
        // The pad drives several bus nets; the rest form a background mesh.
        for chunk in sinks.chunks(4) {
            let n = b.add_net(format!("bg{}", chunk[0].index()));
            b.connect(n, chunk[0], PinDirection::Output).unwrap();
            for &c in &chunk[1..] {
                b.connect(n, c, PinDirection::Input).unwrap();
            }
        }
        // Bus sinks spread across the index space so clustering doesn't
        // bind them to one background region.
        let bus_sinks: Vec<_> = sinks.iter().step_by(8).copied().collect();
        for (i, chunk) in bus_sinks.chunks(6).enumerate() {
            let bus = b.add_net(format!("bus{i}"));
            if i == 0 {
                b.connect(bus, pad, PinDirection::Output).unwrap();
            } else {
                b.connect(bus, pad, PinDirection::Input).unwrap();
            }
            for &c in chunk {
                b.connect(
                    bus,
                    c,
                    if i == 0 {
                        PinDirection::Input
                    } else if c == chunk[0] {
                        PinDirection::Output
                    } else {
                        PinDirection::Input
                    },
                )
                .unwrap();
            }
        }
        let netlist = b.build().unwrap();
        let placer = Placer::new(PlacerConfig::new(1));
        let left = placer
            .place_with_fixed(&netlist, &[(pad, 0.0, 0.0, 0)])
            .unwrap();
        let right_x = left.chip.width;
        let right = placer
            .place_with_fixed(&netlist, &[(pad, right_x, 0.0, 0)])
            .unwrap();
        let mean_x = |r: &PlacementResult| -> f64 {
            bus_sinks.iter().map(|&c| r.placement.x(c)).sum::<f64>() / bus_sinks.len() as f64
        };
        assert_eq!(left.placement.position(pad).0, 0.0, "pad must not move");
        assert!(
            mean_x(&left) < mean_x(&right),
            "bus sinks should follow the pad: left {} vs right {}",
            mean_x(&left),
            mean_x(&right)
        );
    }

    #[test]
    fn thermal_trajectory_warm_starts_and_saves_iterations() {
        let netlist = generate(&SynthConfig::named("t", 250, 1.25e-9)).unwrap();
        let result = Placer::new(PlacerConfig::new(4)).place(&netlist).unwrap();
        let t = &result.thermal_trajectory;
        assert_eq!(t.len(), 3, "global, coarse, final");
        assert_eq!(t[0].stage, "global");
        assert_eq!(t.last().unwrap().stage, "final");
        assert!(!t[0].warm_started, "first solve is cold");
        assert!(t[1..].iter().all(|s| s.warm_started));
        // The default tier policy answers everything from the full grid,
        // so there is no cross-model reference to compare against.
        assert!(t.iter().all(|s| s.tier == "full-grid"));
        assert!(t
            .iter()
            .all(|s| s.cross_model_max_error.is_nan() && s.cross_model_avg_error.is_nan()));
        // Legalization rearranges the whole power map, so stage-boundary
        // warm starts are not guaranteed to *save* iterations (the small
        // per-move perturbation case is covered in tvp-thermal); they must
        // at least never cost materially more than the cold solve.
        let cold = t[0].cg_iterations;
        assert!(
            t[1..].iter().all(|s| s.cg_iterations <= cold + cold / 10),
            "warm solves should not converge slower: {t:?}"
        );
        // The last snapshot is exactly the reported metrics solve.
        assert_eq!(
            t.last().unwrap().avg_temperature,
            result.metrics.avg_temperature
        );
        assert_eq!(
            t.last().unwrap().max_temperature,
            result.metrics.max_temperature
        );
    }

    #[test]
    fn placement_is_identical_for_any_thread_count() {
        let netlist = generate(&SynthConfig::named("t", 250, 1.25e-9)).unwrap();
        let serial = Placer::new(PlacerConfig::new(4).with_threads(1))
            .place(&netlist)
            .unwrap();
        let parallel = Placer::new(PlacerConfig::new(4).with_threads(4))
            .place(&netlist)
            .unwrap();
        assert_eq!(serial.placement, parallel.placement);
        assert_eq!(serial.metrics.wirelength, parallel.metrics.wirelength);
        assert_eq!(serial.metrics.ilv_count, parallel.metrics.ilv_count);
        // Temperatures go through CG with reordered reductions; they agree
        // to far better than the solver tolerance.
        let rel = (serial.metrics.avg_temperature - parallel.metrics.avg_temperature).abs()
            / serial.metrics.avg_temperature;
        assert!(rel < 1e-6, "temperature drift {rel}");
    }

    #[test]
    fn tier_policy_routes_snapshots_and_tracks_cross_model_error() {
        use tvp_thermal::ThermalTier;
        let netlist = generate(&SynthConfig::named("t", 250, 1.25e-9)).unwrap();
        let config = PlacerConfig::new(4)
            .with_alpha_temp(1.0e-4)
            .with_thermal_tier("global", ThermalTier::Compact)
            .with_thermal_tier("coarse", ThermalTier::Compact)
            .with_thermal_tier("detail", ThermalTier::Compact)
            .with_thermal_tier("final", ThermalTier::FullGrid);
        let result = Placer::new(config).place(&netlist).unwrap();
        let t = &result.thermal_trajectory;
        assert_eq!(t.len(), 3, "global, coarse, final");

        // The compact tier never iterates and uses no preconditioner.
        for snap in &t[..2] {
            assert_eq!(snap.tier, "compact");
            assert_eq!(snap.cg_iterations, 0);
            assert_eq!(snap.preconditioner, "none");
            assert!(snap.cross_model_max_error.is_finite());
            assert!(snap.cross_model_avg_error <= snap.cross_model_max_error);
        }

        // The final evaluation went back to the reference model: nothing
        // to compare against.
        assert_eq!(t[2].tier, "full-grid");
        assert!(t[2].cross_model_max_error.is_nan());

        // The cheaper tiers steer intermediate solves only; the result is
        // still legal and fully evaluated.
        assert_eq!(
            crate::detail::check_legal(&netlist, &result.chip, &result.placement),
            None
        );
        assert!(result.metrics.avg_temperature > 0.0);
    }

    #[test]
    fn thread_lease_scopes_the_run_and_is_released_on_return() {
        let netlist = generate(&SynthConfig::named("t", 150, 7.5e-10)).unwrap();
        let budget = tvp_parallel::ThreadBudget::new(2);
        let placer = Placer::new(PlacerConfig::new(2).with_threads(4));
        let leased = placer
            .place_with_options(
                &netlist,
                &[],
                PlaceOptions {
                    thread_lease: Some(budget.lease(0)),
                    ..PlaceOptions::default()
                },
            )
            .unwrap();
        assert_eq!(
            budget.active(),
            0,
            "lease must be released when the run ends"
        );
        assert_eq!(budget.leased(), 0);
        // The grant only scopes execution; results stay thread-invariant.
        let direct = Placer::new(PlacerConfig::new(2).with_threads(1))
            .place(&netlist)
            .unwrap();
        assert_eq!(leased.placement, direct.placement);
    }

    #[test]
    fn thermal_run_reduces_temperature() {
        let netlist = generate(&SynthConfig::named("t", 400, 2.0e-9)).unwrap();
        let base = Placer::new(PlacerConfig::new(4)).place(&netlist).unwrap();
        let thermal = Placer::new(PlacerConfig::new(4).with_alpha_temp(1.0e-4))
            .place(&netlist)
            .unwrap();
        assert!(
            thermal.metrics.avg_temperature < base.metrics.avg_temperature,
            "thermal placement must cool the chip: {} vs {}",
            thermal.metrics.avg_temperature,
            base.metrics.avg_temperature
        );
    }
}
