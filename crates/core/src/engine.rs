//! The stage engine: the §6 pipeline as a data-driven stage plan
//! executed by an observable, cancellable, resumable driver (DESIGN.md
//! §9).
//!
//! A plan is a list of [`StageKind`]s. The driver runs each stage through
//! its one entry point, handing it a [`StageRun`] (pass-event probe and
//! mid-kernel stop), and owns everything
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
use crate::control::StopCheck;
use crate::detail::{check_legal, LegalizeStats};
use crate::faults::{Degradation, FaultKind, FaultPlan};
use crate::metrics::{self, ThermalGuard};
use crate::objective::{IncrementalObjective, ObjectiveModel};
use crate::observer::{NopObserver, PassEvent, PlacerEvent, PlacerObserver};
use crate::placer::{PlaceOptions, PlacementResult, RoundTiming, StageTimings, ThermalSnapshot};
use crate::{coarse, detail, global, Chip, PlaceError, Placement, PlacerConfig};
use std::ops::ControlFlow;
use std::path::Path;
use std::time::{Duration, Instant};
use tvp_netlist::{CellId, Netlist};
use tvp_partition::StopFn;
use tvp_thermal::{GridOracle, ThermalSimulator};

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
/// change the moves a stage makes, only where it stops.
///
/// `StageRun::default()` is unobserved and never stops early.
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
    /// Fixed-cell seeds (pads, macros) for global placement.
    fixed_positions: &'a [(CellId, f64, f64, u16)],
    /// Statistics of the most recent detailed legalization.
    legalize: LegalizeStats,
    /// Whether the current placement is row-legal (true right after a
    /// detail stage).
    legal: bool,
    /// The run's fault plan, if one was attached (consumed as it fires).
    faults: Option<FaultPlan>,
    /// Every graceful degradation recorded so far.
    degradations: Vec<Degradation>,
    /// Fault/degradation events awaiting delivery to the observer (the
    /// driver flushes these at stage boundaries).
    pending_events: Vec<PlacerEvent>,
}

impl<'a> PlacerContext<'a> {
    /// An evaluator over the centered placement.
    fn centered_evaluator(&self) -> IncrementalObjective<'a> {
        let placement = Placement::centered(self.netlist.num_cells(), self.chip);
        IncrementalObjective::new(self.netlist, self.model, placement)
    }

    /// The run's one evaluator (DESIGN.md §11), built over the centered
    /// placement if `slot` is still empty. Global placement prices no
    /// moves, so a fresh run fills the slot from global's placement and a
    /// resume from the checkpoint's; every later stage finds it filled.
    fn evaluator<'o>(
        &self,
        slot: &'o mut Option<IncrementalObjective<'a>>,
    ) -> &'o mut IncrementalObjective<'a> {
        slot.get_or_insert_with(|| self.centered_evaluator())
    }

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

/// Runs one stage of the plan through its entry point, on the run's
/// evaluator in `objective` (global fills the slot). Returns whether the
/// stage stopped early at a cancellation point; `run_pipeline` then
/// stops (after restoring legality if needed).
fn run_stage<'a>(
    kind: StageKind,
    ctx: &mut PlacerContext<'a>,
    objective: &mut Option<IncrementalObjective<'a>>,
    probe: &mut dyn FnMut(PassEvent) -> ControlFlow<()>,
    stop: Option<&StopFn>,
) -> bool {
    let mut run = StageRun {
        probe: Some(probe),
        stop,
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
            // Global prices no moves, so the run's evaluator is built only
            // now, from its placement.
            *objective = Some(IncrementalObjective::new(ctx.netlist, ctx.model, placement));
            ctx.legal = false;
            interrupted
        }
        StageKind::Coarse { .. } => {
            ctx.legal = false;
            let objective = ctx.evaluator(objective);
            coarse::legalize(objective, ctx.netlist, ctx.chip, ctx.config, &mut run).1
        }
        StageKind::Detail { .. } => {
            // Legalization itself never stops early: it is the step that
            // *creates* the legality every graceful stop relies on.
            let objective = ctx.evaluator(objective);
            ctx.legalize = detail::legalize(
                objective,
                ctx.netlist,
                ctx.chip,
                ctx.config.detail_row_window,
                &mut run,
            );
            ctx.legal = true;
            detail::refine(
                objective,
                ctx.netlist,
                ctx.chip,
                ctx.config.legal_refine_passes,
                &mut run,
            )
            .1
        }
    }
}

/// The run's thermal oracle: the evaluation-resolution simulator (with
/// the configured per-layer stack, if any) behind one warm-started CG
/// context. The preconditioner hierarchy is built once, and each
/// stage-boundary solve warm-starts from the previous one's field.
fn grid_oracle(config: &PlacerConfig, chip: &Chip) -> Result<GridOracle, PlaceError> {
    let (nx, ny) = config.thermal_grid;
    let sim = match &config.stack_layers {
        Some(layers) => ThermalSimulator::with_layers(
            chip.stack,
            layers.clone(),
            chip.width,
            chip.depth,
            nx,
            ny,
        ),
        None => ThermalSimulator::new(chip.stack, chip.width, chip.depth, nx, ny),
    }?;
    Ok(GridOracle::full_grid(sim, config.thermal_precond))
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

    let mut oracle = grid_oracle(config, &chip)?;
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
    let fresh = || (None, None, false);
    let mut quarantined_note = None;
    let (resumed_placement, resumed_index, legal) = match load {
        CheckpointLoad::Resume(r) => (Some(r.placement), Some(r.stage_index), r.legal),
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
    // The run's one evaluator (DESIGN.md §11). A resume builds it from the
    // checkpoint's placement; a fresh run has none until global hands its
    // placement over, so no evaluator sits idle through global.
    let mut objective =
        resumed_placement.map(|placement| IncrementalObjective::new(netlist, &model, placement));

    let mut ctx = PlacerContext {
        netlist,
        chip: &chip,
        config,
        model: &model,
        fixed_positions,
        legalize: LegalizeStats::default(),
        legal,
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
            run_stage(kind, &mut ctx, &mut objective, &mut probe, kernel_stop)
        };
        flush_events(&mut ctx, observer);
        let elapsed = t.elapsed();
        let evaluator = ctx.evaluator(&mut objective);
        // Stage boundary: pin the accumulated objective back to a fold of
        // the exact caches so float round-off from the stage's move
        // sequence never compounds into the next stage (outside the timed
        // region — this is bookkeeping, not stage work).
        evaluator.resync_total();
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
                objective: evaluator.total(),
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
            snapshot(
                label,
                &mut ctx,
                evaluator,
                &mut oracle,
                &mut trajectory,
                observer,
            )?;
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
                evaluator.placement(),
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
    // Every stage leaves the evaluator behind; only a run stopped before
    // global has none yet, and legalizes the centered placement.
    let mut objective = objective.unwrap_or_else(|| ctx.centered_evaluator());
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
            &mut objective,
            netlist,
            &chip,
            config.detail_row_window,
            &mut run,
        );
        detail::refine(
            &mut objective,
            netlist,
            &chip,
            config.legal_refine_passes,
            &mut run,
        );
        ctx.legal = true;
        let elapsed = t.elapsed();
        objective.resync_total();
        timings.detail += elapsed;
        if observer.enabled() {
            observer.event(&PlacerEvent::StageEnd {
                index,
                stage: "finalize".to_string(),
                seconds: elapsed.as_secs_f64(),
                objective: objective.total(),
                interrupted: false,
            });
        }
    }

    if let Some(violation) = check_legal(netlist, &chip, objective.placement()) {
        return Err(PlaceError::LegalizationFailed { violation });
    }

    let guard = ThermalGuard {
        inject_nan: ctx.fire_fault(FaultKind::NanPower, "final"),
        inject_cg_failure: ctx.fire_fault(FaultKind::CgBreakdown, "final"),
    };
    let (metrics, outcome) =
        metrics::compute_with_guarded(netlist, &chip, &model, &objective, &mut oracle, guard)?;
    if outcome.degraded() {
        ctx.record_degradation(Degradation::ThermalDegraded {
            stage: "final".to_string(),
            detail: outcome.describe(),
        });
    }
    flush_events(&mut ctx, observer);
    let final_snapshot = ThermalSnapshot {
        stage: "final",
        avg_temperature: metrics.avg_temperature,
        max_temperature: metrics.max_temperature,
        cg_iterations: outcome.iterations(),
        warm_started: outcome.warm_started(),
        preconditioner: outcome.preconditioner(),
        initial_residual: outcome.initial_residual(),
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
    let placement = objective.into_placement();
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

/// Solves the thermal field of the current placement (hardened: NaN
/// power is sanitized, a CG breakdown falls back to damped Jacobi),
/// appends the outcome to the trajectory, and reports it.
fn snapshot(
    stage: &'static str,
    ctx: &mut PlacerContext<'_>,
    objective: &IncrementalObjective<'_>,
    oracle: &mut GridOracle,
    trajectory: &mut Vec<ThermalSnapshot>,
    observer: &mut dyn PlacerObserver,
) -> Result<(), PlaceError> {
    let guard = ThermalGuard {
        inject_nan: ctx.fire_fault(FaultKind::NanPower, stage),
        inject_cg_failure: ctx.fire_fault(FaultKind::CgBreakdown, stage),
    };
    let (field, outcome) =
        metrics::solve_field(ctx.netlist, ctx.chip, ctx.model, objective, oracle, guard)?;
    if outcome.degraded() {
        ctx.record_degradation(Degradation::ThermalDegraded {
            stage: stage.to_string(),
            detail: outcome.describe(),
        });
    }
    let (avg, max) = metrics::sample_cells(ctx.chip, objective, &field);
    let snap = ThermalSnapshot {
        stage,
        avg_temperature: avg,
        max_temperature: max,
        cg_iterations: outcome.iterations(),
        warm_started: outcome.warm_started(),
        preconditioner: outcome.preconditioner(),
        initial_residual: outcome.initial_residual(),
    };
    trajectory.push(snap);
    if observer.enabled() {
        observer.event(&PlacerEvent::ThermalSolved { snapshot: snap });
    }
    Ok(())
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
