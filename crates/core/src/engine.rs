//! The stage engine: the §6 pipeline as a data-driven stage plan
//! executed by an observable, cancellable, resumable driver (DESIGN.md
//! §9).
//!
//! A plan is a list of [`StageKind`]s. The driver runs each stage through
//! its one entry point, handing it a [`StageRun`] (pass-event probe,
//! mid-kernel stop, thermal move pricer), and owns everything
//! cross-cutting: event emission ([`PlacerObserver`]), stop conditions
//! (cancellation token + time budget, checked at stage/pass boundaries),
//! per-stage timing (including per-round breakdown), thermal snapshots
//! through one warm-started CG context, and stage-boundary checkpoints.
//!
//! The default plan is `global`, then `coarse[r]`/`detail[r]` for round
//! `r` in `0..=post_opt_rounds`. With no observer, budget, or
//! checkpointing configured, the driver executes exactly the historical
//! call sequence, so default-path placements are bitwise identical to the
//! pre-engine pipeline.

use crate::checkpoint::{self, CheckpointLoad};
use crate::config::ThermalTierPolicy;
use crate::control::StopCheck;
use crate::detail::{check_legal, LegalizeStats};
use crate::faults::{Degradation, FaultKind, FaultPlan};
use crate::metrics::{self, ThermalGuard};
use crate::objective::{IncrementalObjective, ObjectiveModel};
use crate::observer::{NopObserver, PassEvent, PlacerEvent, PlacerObserver};
use crate::placer::{PlaceOptions, PlacementResult, RoundTiming, StageTimings, ThermalSnapshot};
use crate::thermal_pricer::ThermalMovePricer;
use crate::{coarse, detail, global, Chip, PlaceError, Placement, PlacerConfig};
use std::ops::ControlFlow;
use std::path::Path;
use std::time::{Duration, Instant};
use tvp_netlist::{CellId, Netlist};
use tvp_partition::StopFn;
use tvp_thermal::{
    CompactModel, GridOracle, TemperatureField, ThermalOracle, ThermalSimulator, ThermalTier,
};

/// Wall-clock stall injected by [`FaultKind::SlowStage`] at the keyed
/// stage's begin. Long enough that supervisors can observe (and kill) a
/// run inside the stage, short enough for test suites; placement bits
/// are never affected.
pub const SLOW_STAGE_DELAY: Duration = Duration::from_millis(250);

/// Which part of the §6 pipeline a stage implements. A plan is a list of
/// kinds; the driver runs each through one `match` and uses the kind to
/// route timings (totals + per-round) and thermal snapshots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageKind {
    /// Recursive-bisection global placement.
    Global,
    /// Coarse legalization round `round`.
    Coarse {
        /// Optimization round, from 0.
        round: usize,
    },
    /// Detailed legalization (+ legality-preserving refinement) round
    /// `round`.
    Detail {
        /// Optimization round, from 0.
        round: usize,
    },
}

impl StageKind {
    /// Display name, unique within a plan (e.g. `coarse[1]`).
    pub fn name(self) -> String {
        match self {
            StageKind::Global => "global".to_string(),
            StageKind::Coarse { round } => format!("coarse[{round}]"),
            StageKind::Detail { round } => format!("detail[{round}]"),
        }
    }
}

/// The cross-cutting inputs of one stage run: everything a stage entry
/// point ([`global::place`], [`coarse::legalize`], [`detail::legalize`],
/// [`detail::refine`], and the coarse sub-passes
/// [`shift::spread`](crate::coarse::shift::spread),
/// [`moves::local_pass`](crate::coarse::moves::local_pass) and
/// [`moves::global_pass`](crate::coarse::moves::global_pass)) needs
/// besides the placement it transforms. The probe and the stop never
/// change the moves a stage makes, only where it stops; the pricer adds
/// its thermal term to every candidate's price.
///
/// `StageRun::default()` is unobserved, never stops early, and prices
/// moves by the objective alone.
#[derive(Default)]
pub struct StageRun<'r> {
    /// Receives each pass-boundary [`PassEvent`]; its answer is the
    /// cancellation poll — [`ControlFlow::Break`] asks the stage to stop
    /// at that boundary. `None` continues everywhere.
    pub(crate) probe: Option<&'r mut dyn FnMut(PassEvent) -> ControlFlow<()>>,
    /// The mid-kernel stop the bisection kernels poll between and inside
    /// FM passes. `None` when no stop condition is armed, so the hot
    /// loops skip the poll entirely.
    pub(crate) stop: Option<&'r StopFn>,
    /// Per-move thermal pricer, present only when the stage's tier is
    /// [`ThermalTier::Compact`] and `alpha_temp > 0` (DESIGN.md §14).
    pub(crate) pricer: Option<&'r mut ThermalMovePricer>,
}

impl<'r> StageRun<'r> {
    /// A run that reports every pass-boundary event to `probe` and stops
    /// the stage at the first boundary where it returns `Break`.
    pub fn observed(probe: &'r mut dyn FnMut(PassEvent) -> ControlFlow<()>) -> Self {
        Self {
            probe: Some(probe),
            ..Self::default()
        }
    }

    /// Reports one pass-boundary event and returns the probe's
    /// cancellation answer.
    pub(crate) fn pass(&mut self, event: PassEvent) -> ControlFlow<()> {
        match self.probe.as_mut() {
            Some(probe) => probe(event),
            None => ControlFlow::Continue(()),
        }
    }
}

/// Everything the driver threads through the stages of one run.
struct PlacerContext<'a> {
    netlist: &'a Netlist,
    chip: &'a Chip,
    config: &'a PlacerConfig,
    model: &'a ObjectiveModel,
    /// The placement under construction, behind its incremental
    /// objective evaluator.
    objective: IncrementalObjective<'a>,
    /// Fixed-cell seeds (pads, macros) for global placement.
    fixed_positions: &'a [(CellId, f64, f64, u16)],
    /// Statistics of the most recent detailed legalization.
    legalize: LegalizeStats,
    /// Whether the current placement is row-legal (true right after a
    /// detail stage).
    legal: bool,
    /// The compact-tier move pricer, built only when some legalization
    /// tier is compact and `alpha_temp > 0`.
    pricer: Option<ThermalMovePricer>,
    /// The run's fault plan, if one was attached (consumed as it fires).
    faults: Option<FaultPlan>,
    /// Every graceful degradation recorded so far.
    degradations: Vec<Degradation>,
    /// Fault/degradation events awaiting delivery to the observer (the
    /// driver flushes these at stage boundaries).
    pending_events: Vec<PlacerEvent>,
}

impl PlacerContext<'_> {
    /// Whether the attached [`FaultPlan`] wants fault `kind` injected at
    /// `site` (always `false` without a plan). A firing fault is reported
    /// to the observer as [`PlacerEvent::FaultInjected`].
    fn fire_fault(&mut self, kind: FaultKind, site: &str) -> bool {
        let fired = self
            .faults
            .as_mut()
            .is_some_and(|plan| plan.should_fire(kind, site));
        if fired {
            self.pending_events.push(PlacerEvent::FaultInjected {
                kind: kind.as_str().to_string(),
                site: site.to_string(),
            });
        }
        fired
    }

    /// Records one graceful degradation: it lands in
    /// [`PlacementResult::degradations`] and is reported to the observer
    /// as [`PlacerEvent::Degraded`].
    fn record_degradation(&mut self, degradation: Degradation) {
        self.pending_events.push(PlacerEvent::Degraded {
            kind: degradation.kind().to_string(),
            detail: degradation.detail(),
        });
        self.degradations.push(degradation);
    }
}

/// Delivers any queued fault/degradation events to the observer.
fn flush_events(ctx: &mut PlacerContext<'_>, observer: &mut dyn PlacerObserver) {
    if observer.enabled() {
        for event in ctx.pending_events.drain(..) {
            observer.event(&event);
        }
    } else {
        ctx.pending_events.clear();
    }
}

/// Runs one stage of the plan through its entry point. Returns whether
/// the stage stopped early at a cancellation point; the driver then
/// stops the pipeline (after restoring legality if needed).
///
/// # Errors
///
/// [`PlaceError`] only for non-recoverable failures; cancellation is not
/// an error.
fn run_stage(
    kind: StageKind,
    ctx: &mut PlacerContext<'_>,
    probe: &mut dyn FnMut(PassEvent) -> ControlFlow<()>,
    stop: Option<&StopFn>,
) -> Result<bool, PlaceError> {
    let mut run = StageRun {
        probe: Some(probe),
        stop,
        pricer: None,
    };
    match kind {
        StageKind::Global => {
            // The imbalance fault targets the root bisection only: level 0
            // has exactly one region, so the injection is deterministic
            // under any thread count.
            let inject = ctx.fire_fault(FaultKind::PartitionImbalance, "global");
            let (placement, stats) = global::place(
                ctx.netlist,
                ctx.chip,
                ctx.model,
                ctx.config,
                ctx.fixed_positions,
                inject,
                &mut run,
            );
            let interrupted = stop.is_some_and(|stop| stop());
            if stats.partition_retries > 0 {
                ctx.record_degradation(Degradation::PartitionRetried {
                    retries: stats.partition_retries,
                });
            }
            ctx.objective = IncrementalObjective::new(ctx.netlist, ctx.model, placement);
            ctx.legal = false;
            Ok(interrupted)
        }
        StageKind::Coarse { .. } => {
            ctx.legal = false;
            // The frozen field is re-grounded on the placement the stage
            // starts from.
            run.pricer = refreshed_pricer(
                &mut ctx.pricer,
                ctx.config.thermal_tiers.coarse,
                ctx.netlist,
                ctx.chip,
                ctx.model,
                &ctx.objective,
            )?;
            let (_, interrupted) = coarse::legalize(
                &mut ctx.objective,
                ctx.netlist,
                ctx.chip,
                ctx.config,
                &mut run,
            );
            Ok(interrupted)
        }
        StageKind::Detail { .. } => {
            // Legalization itself never stops early: it is the step that
            // *creates* the legality every graceful stop relies on.
            ctx.legalize = detail::legalize(
                &mut ctx.objective,
                ctx.netlist,
                ctx.chip,
                ctx.config.detail_row_window,
                &mut run,
            );
            ctx.legal = true;
            // Refinement's field is refreshed *after* legalization,
            // because snapping moved every cell.
            run.pricer = refreshed_pricer(
                &mut ctx.pricer,
                ctx.config.thermal_tiers.detail,
                ctx.netlist,
                ctx.chip,
                ctx.model,
                &ctx.objective,
            )?;
            let (_, interrupted) = detail::refine(
                &mut ctx.objective,
                ctx.netlist,
                ctx.chip,
                ctx.config.legal_refine_passes,
                &mut run,
            );
            Ok(interrupted)
        }
    }
}

/// The run's move pricer, re-grounded on the current placement, when the
/// stage's `tier` is compact and a pricer exists; `None` otherwise.
fn refreshed_pricer<'p>(
    pricer: &'p mut Option<ThermalMovePricer>,
    tier: ThermalTier,
    netlist: &Netlist,
    chip: &Chip,
    model: &ObjectiveModel,
    objective: &IncrementalObjective<'_>,
) -> Result<Option<&'p mut ThermalMovePricer>, PlaceError> {
    match pricer {
        Some(pricer) if tier == ThermalTier::Compact => {
            pricer.refresh(netlist, chip, model, objective)?;
            Ok(Some(pricer))
        }
        _ => Ok(None),
    }
}

/// The run's thermal-oracle bank (DESIGN.md §14): one oracle per tier
/// the configured [`ThermalTierPolicy`] actually uses. The full-grid
/// oracle always exists — it is the default tier and the reference every
/// cross-model error is measured against. The compact model is fitted
/// only on demand, so the default (all-full-grid) policy constructs
/// exactly the historical simulator + context pair and nothing else.
struct ThermalOracles {
    tiers: ThermalTierPolicy,
    full: GridOracle,
    compact: Option<CompactModel>,
}

impl ThermalOracles {
    fn build(config: &PlacerConfig, chip: &Chip) -> Result<Self, PlaceError> {
        let tiers = config.thermal_tiers;
        let (nx, ny) = config.thermal_grid;
        let make_sim = |nx: usize, ny: usize| match &config.stack_layers {
            Some(layers) => ThermalSimulator::with_layers(
                chip.stack,
                layers.clone(),
                chip.width,
                chip.depth,
                nx,
                ny,
            ),
            None => ThermalSimulator::new(chip.stack, chip.width, chip.depth, nx, ny),
        };
        let full = GridOracle::full_grid(make_sim(nx, ny)?, config.thermal_precond);
        let compact = if tiers.uses(ThermalTier::Compact) {
            // The compact model is fitted in-tree against the multigrid
            // solver at a bounded resolution: kernel superposition is
            // O(grid²) per evaluation, and 16×16 bins already resolve
            // the lateral spreading the kernels model.
            let sim = make_sim(nx.clamp(2, 16), ny.clamp(2, 16))?;
            let (model, _report) = CompactModel::fit(&sim, config.thermal_precond)?;
            Some(model)
        } else {
            None
        };
        Ok(Self {
            tiers,
            full,
            compact,
        })
    }

    /// The tier the policy assigns to a snapshot site.
    fn tier_for(&self, stage: &str) -> ThermalTier {
        match stage {
            "global" => self.tiers.global,
            "coarse" => self.tiers.coarse,
            _ => self.tiers.final_eval,
        }
    }

    /// The oracle for `tier`, falling back to full-grid when the compact
    /// model was not built (the policy never requested it).
    fn oracle(&mut self, tier: ThermalTier) -> &mut dyn ThermalOracle {
        match (tier, self.compact.as_mut()) {
            (ThermalTier::Compact, Some(compact)) => compact,
            _ => &mut self.full,
        }
    }
}

/// Builds the default §6 stage plan for a configuration: `global`, then
/// one `coarse`/`detail` pair per optimization round.
pub fn default_stage_plan(config: &PlacerConfig) -> Vec<StageKind> {
    let mut stages = vec![StageKind::Global];
    for round in 0..config.rounds() {
        stages.push(StageKind::Coarse { round });
        stages.push(StageKind::Detail { round });
    }
    stages
}

/// Runs the full pipeline for `config` under the given options.
pub(crate) fn run_pipeline(
    config: &PlacerConfig,
    netlist: &Netlist,
    fixed_positions: &[(CellId, f64, f64, u16)],
    options: &mut PlaceOptions<'_>,
) -> Result<PlacementResult, PlaceError> {
    let start = Instant::now();
    let chip = Chip::from_netlist(netlist, config)?;
    let model = ObjectiveModel::new(netlist, &chip, config)?;

    // One oracle bank for every thermal evaluation of this run: the
    // full-grid oracle owns the historical simulator + warm-started CG
    // context (the preconditioner hierarchy is built once, and each
    // stage's solve warm-starts from the previous stage's field); the
    // compact model exists only when the tier policy queries it.
    let mut oracles = ThermalOracles::build(config, &chip)?;
    let pricer = if config.alpha_temp > 0.0
        && (config.thermal_tiers.coarse == ThermalTier::Compact
            || config.thermal_tiers.detail == ThermalTier::Compact)
    {
        oracles
            .compact
            .clone()
            .map(|model| ThermalMovePricer::new(model, config.alpha_temp))
    } else {
        None
    };
    let mut trajectory: Vec<ThermalSnapshot> = Vec::new();

    let stages = default_stage_plan(config);
    let stage_names: Vec<String> = stages.iter().map(|s| s.name()).collect();
    let stop = StopCheck::new(options.cancel.clone(), options.time_budget);
    // Stages that hand cancellation down into parallel kernels poll this;
    // unarmed runs pass `None`, keeping the hot loops poll-free and the
    // placement bitwise identical to history.
    let poll_stop = {
        let stop = stop.clone();
        move || stop.should_stop()
    };
    let kernel_stop: Option<&StopFn> = stop.is_armed().then_some(&poll_stop);

    let mut nop = NopObserver;
    let observer: &mut dyn PlacerObserver = match options.observer.as_deref_mut() {
        Some(o) => o,
        None => &mut nop,
    };

    // Resume from the newest checkpoint when a directory is configured.
    // A damaged checkpoint is quarantined (renamed to `*.corrupt` by the
    // loader) and the run restarts fresh instead of failing.
    let fp = checkpoint::fingerprint(netlist, config);
    let load = match &options.checkpoint_dir {
        Some(dir) => checkpoint::load_latest(dir, netlist, fp, stages.len(), &chip)?,
        None => CheckpointLoad::Fresh,
    };
    let fresh = || (Placement::centered(netlist.num_cells(), &chip), None, false);
    let mut quarantined_note = None;
    let (initial_placement, resumed_index, legal) = match load {
        CheckpointLoad::Resume(r) => (r.placement, Some(r.stage_index), r.legal),
        CheckpointLoad::Fresh => fresh(),
        CheckpointLoad::Quarantined {
            quarantined,
            reason,
        } => {
            quarantined_note = Some((quarantined, reason));
            fresh()
        }
    };
    let resumed_from = resumed_index.map(|i| stage_names[i].clone());

    let mut ctx = PlacerContext {
        netlist,
        chip: &chip,
        config,
        model: &model,
        objective: IncrementalObjective::new(netlist, &model, initial_placement),
        fixed_positions,
        legalize: LegalizeStats::default(),
        legal,
        pricer,
        faults: options.faults.take(),
        degradations: Vec::new(),
        pending_events: Vec::new(),
    };

    if observer.enabled() {
        observer.event(&PlacerEvent::RunBegin {
            stages: stage_names.clone(),
            resumed_from: resumed_index,
        });
    }
    if let Some((quarantined, reason)) = quarantined_note {
        if observer.enabled() {
            for path in &quarantined {
                observer.event(&PlacerEvent::CheckpointQuarantined {
                    path: path.clone(),
                    reason: reason.clone(),
                });
            }
        }
        ctx.record_degradation(Degradation::CheckpointQuarantined {
            path: quarantined.first().cloned().unwrap_or_default(),
            reason,
        });
        flush_events(&mut ctx, observer);
    }

    let mut timings = StageTimings::default();
    let mut stopped_early = false;

    for (index, &kind) in stages.iter().enumerate() {
        let name = &stage_names[index];
        if resumed_index.is_some_and(|r| index <= r) {
            if observer.enabled() {
                observer.event(&PlacerEvent::StageSkipped {
                    index,
                    stage: name.clone(),
                });
            }
            continue;
        }
        if stop.should_stop() {
            stopped_early = true;
            break;
        }
        if observer.enabled() {
            observer.event(&PlacerEvent::StageBegin {
                index,
                stage: name.clone(),
            });
        }
        // Injected stall at stage begin: stretches wall-clock only (for
        // deadline/queue-latency testing); placement arithmetic and the
        // stage's RNG stream are untouched. Deliberately outside the
        // timed region so per-stage timings stay meaningful.
        if ctx.fire_fault(FaultKind::SlowStage, name) {
            flush_events(&mut ctx, observer);
            std::thread::sleep(SLOW_STAGE_DELAY);
        }
        let t = Instant::now();
        let interrupted = {
            // Each pass boundary is reported and is also a cancellation
            // point.
            let mut probe = |pass: PassEvent| {
                if observer.enabled() {
                    observer.event(&PlacerEvent::Pass {
                        index,
                        stage: name.clone(),
                        pass,
                    });
                }
                if stop.should_stop() {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            };
            run_stage(kind, &mut ctx, &mut probe, kernel_stop)?
        };
        flush_events(&mut ctx, observer);
        let elapsed = t.elapsed();
        // Stage boundary: pin the accumulated objective back to a
        // from-scratch recomputation so float round-off from the stage's
        // move sequence never compounds into the next stage (outside the
        // timed region — this is bookkeeping, not stage work).
        ctx.objective.resync_total();
        match kind {
            StageKind::Global => timings.global += elapsed,
            StageKind::Coarse { round } => {
                timings.coarse += elapsed;
                grow_rounds(&mut timings.rounds, round).coarse += elapsed;
            }
            StageKind::Detail { round } => {
                timings.detail += elapsed;
                grow_rounds(&mut timings.rounds, round).detail += elapsed;
            }
        }
        if observer.enabled() {
            observer.event(&PlacerEvent::StageEnd {
                index,
                stage: name.clone(),
                seconds: elapsed.as_secs_f64(),
                objective: ctx.objective.total(),
                interrupted,
            });
        }

        // Thermal snapshots at the historical boundaries: after global
        // placement and after the first coarse round.
        let snapshot_label = match kind {
            StageKind::Global => Some("global"),
            StageKind::Coarse { round: 0 } => Some("coarse"),
            _ => None,
        };
        if let Some(label) = snapshot_label {
            snapshot(label, &mut ctx, &mut oracles, &mut trajectory, observer)?;
            flush_events(&mut ctx, observer);
        }

        if interrupted {
            stopped_early = true;
            break;
        }

        // Checkpoints cover only *completed* stages, so resuming always
        // restarts from a canonical stage boundary.
        if let Some(dir) = &options.checkpoint_dir {
            // Injected write failure: surfaces as the typed, retryable
            // checkpoint error a supervisor must handle. Fires *before*
            // the write, so a retry resumes from the previous stage's
            // (intact) checkpoint.
            if ctx.fire_fault(FaultKind::CheckpointWriteIo, name) {
                flush_events(&mut ctx, observer);
                return Err(PlaceError::Checkpoint {
                    path: dir.display().to_string(),
                    reason: format!("injected I/O failure writing checkpoint after `{name}`"),
                });
            }
            let path = checkpoint::write_checkpoint(
                dir,
                index,
                name,
                stages.len(),
                ctx.legal,
                netlist,
                ctx.objective.placement(),
                fp,
            )?;
            // Fault injection: damage the just-written checkpoint so a
            // later resume exercises the quarantine path.
            if ctx.fire_fault(FaultKind::CorruptCheckpoint, name) {
                checkpoint::truncate_for_fault(Path::new(&path))?;
            }
            flush_events(&mut ctx, observer);
            if observer.enabled() {
                observer.event(&PlacerEvent::CheckpointWritten {
                    index,
                    stage: name.clone(),
                    path,
                });
            }
        }
    }
    // A graceful stop must still hand back a legal placement: if the
    // pipeline stopped before (or inside) a legalizing stage, run one
    // uncancellable detail pass over the best placement we have.
    if stopped_early && !ctx.legal {
        let index = stages.len();
        if observer.enabled() {
            observer.event(&PlacerEvent::StageBegin {
                index,
                stage: "finalize".to_string(),
            });
        }
        let t = Instant::now();
        let mut run = StageRun::default();
        ctx.legalize = detail::legalize(
            &mut ctx.objective,
            netlist,
            &chip,
            config.detail_row_window,
            &mut run,
        );
        detail::refine(
            &mut ctx.objective,
            netlist,
            &chip,
            config.legal_refine_passes,
            &mut run,
        );
        ctx.legal = true;
        let elapsed = t.elapsed();
        ctx.objective.resync_total();
        timings.detail += elapsed;
        if observer.enabled() {
            observer.event(&PlacerEvent::StageEnd {
                index,
                stage: "finalize".to_string(),
                seconds: elapsed.as_secs_f64(),
                objective: ctx.objective.total(),
                interrupted: false,
            });
        }
    }

    if let Some(violation) = check_legal(netlist, &chip, ctx.objective.placement()) {
        return Err(PlaceError::LegalizationFailed { violation });
    }

    let guard = ThermalGuard {
        inject_nan: ctx.fire_fault(FaultKind::NanPower, "final"),
        inject_cg_failure: ctx.fire_fault(FaultKind::CgBreakdown, "final"),
    };
    let final_tier = oracles.tier_for("final");
    let (metrics, outcome, field) = metrics::compute_with_guarded(
        netlist,
        &chip,
        &model,
        &ctx.objective,
        oracles.oracle(final_tier),
        guard,
    )?;
    if outcome.degraded() {
        ctx.record_degradation(Degradation::ThermalDegraded {
            stage: "final".to_string(),
            detail: outcome.describe(),
        });
    }
    let (cross_max, cross_avg) = cross_errors(&ctx, &mut oracles, final_tier, &field)?;
    flush_events(&mut ctx, observer);
    let final_snapshot = ThermalSnapshot {
        stage: "final",
        tier: final_tier.as_str(),
        avg_temperature: metrics.avg_temperature,
        max_temperature: metrics.max_temperature,
        cg_iterations: outcome.iterations(),
        warm_started: outcome.warm_started(),
        preconditioner: outcome.preconditioner(),
        initial_residual: outcome.initial_residual(),
        cross_model_max_error: cross_max,
        cross_model_avg_error: cross_avg,
    };
    trajectory.push(final_snapshot);
    if observer.enabled() {
        observer.event(&PlacerEvent::ThermalSolved {
            snapshot: final_snapshot,
        });
        observer.event(&PlacerEvent::RunEnd {
            seconds: start.elapsed().as_secs_f64(),
            stopped_early,
        });
    }

    timings.total = start.elapsed();
    let placement = ctx.objective.into_placement();
    let legalize = ctx.legalize;
    let degradations = ctx.degradations;
    Ok(PlacementResult {
        placement,
        metrics,
        legalize,
        timings,
        thermal_trajectory: trajectory,
        chip,
        stopped_early,
        resumed_from,
        degradations,
    })
}

/// Returns the timing slot for `round`, growing the vector as rounds
/// execute (an interrupted run reports only the rounds that ran).
fn grow_rounds(rounds: &mut Vec<RoundTiming>, round: usize) -> &mut RoundTiming {
    while rounds.len() <= round {
        rounds.push(RoundTiming::default());
    }
    &mut rounds[round]
}

/// Solves the thermal field of the current placement through the tier
/// the policy assigns to this site (hardened: NaN power is sanitized, a
/// CG breakdown falls back to damped Jacobi), appends the outcome —
/// including the cross-model error against the full-grid reference when
/// a cheaper tier answered — to the trajectory, and reports it.
fn snapshot(
    stage: &'static str,
    ctx: &mut PlacerContext<'_>,
    oracles: &mut ThermalOracles,
    trajectory: &mut Vec<ThermalSnapshot>,
    observer: &mut dyn PlacerObserver,
) -> Result<(), PlaceError> {
    let guard = ThermalGuard {
        inject_nan: ctx.fire_fault(FaultKind::NanPower, stage),
        inject_cg_failure: ctx.fire_fault(FaultKind::CgBreakdown, stage),
    };
    let tier = oracles.tier_for(stage);
    let (field, outcome) = metrics::solve_field(
        ctx.netlist,
        ctx.chip,
        ctx.model,
        &ctx.objective,
        oracles.oracle(tier),
        guard,
    )?;
    if outcome.degraded() {
        ctx.record_degradation(Degradation::ThermalDegraded {
            stage: stage.to_string(),
            detail: outcome.describe(),
        });
    }
    let (avg, max) = metrics::sample_cells(ctx.chip, &ctx.objective, &field);
    let (cross_max, cross_avg) = cross_errors(ctx, oracles, tier, &field)?;
    let snap = ThermalSnapshot {
        stage,
        tier: tier.as_str(),
        avg_temperature: avg,
        max_temperature: max,
        cg_iterations: outcome.iterations(),
        warm_started: outcome.warm_started(),
        preconditioner: outcome.preconditioner(),
        initial_residual: outcome.initial_residual(),
        cross_model_max_error: cross_max,
        cross_model_avg_error: cross_avg,
    };
    trajectory.push(snap);
    if observer.enabled() {
        observer.event(&PlacerEvent::ThermalSolved { snapshot: snap });
    }
    Ok(())
}

/// The `(max, avg)` absolute cross-model temperature error of `field`
/// against a fresh full-grid reference solve of the same placement.
/// `(NaN, NaN)` when the full grid itself answered — there is nothing to
/// compare, and `NaN` renders as `null` in trace events. The reference
/// solve runs unguarded: it is never the quantity under test, and on the
/// default (all-full-grid) policy this function never solves at all.
fn cross_errors(
    ctx: &PlacerContext<'_>,
    oracles: &mut ThermalOracles,
    tier: ThermalTier,
    field: &TemperatureField,
) -> Result<(f64, f64), PlaceError> {
    if tier == ThermalTier::FullGrid {
        return Ok((f64::NAN, f64::NAN));
    }
    let (reference, _) = metrics::solve_field(
        ctx.netlist,
        ctx.chip,
        ctx.model,
        &ctx.objective,
        &mut oracles.full,
        ThermalGuard::default(),
    )?;
    Ok(metrics::cross_model_error(
        ctx.chip,
        &ctx.objective,
        field,
        &reference,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_matches_config_rounds() {
        let plan = default_stage_plan(&PlacerConfig::new(2));
        let names: Vec<String> = plan.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["global", "coarse[0]", "detail[0]"]);

        let mut config = PlacerConfig::new(2);
        config.post_opt_rounds = 2;
        let plan = default_stage_plan(&config);
        assert_eq!(plan.len(), 7);
        assert_eq!(plan[5].name(), "coarse[2]");
        assert_eq!(plan[6], StageKind::Detail { round: 2 });
    }

    #[test]
    fn rounds_vector_grows_on_demand() {
        let mut rounds = Vec::new();
        grow_rounds(&mut rounds, 1).coarse = std::time::Duration::from_secs(1);
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0], RoundTiming::default());
        assert_eq!(rounds[1].coarse, std::time::Duration::from_secs(1));
    }
}
