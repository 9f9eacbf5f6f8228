//! The place-ilv workload: what `tvp place` does for one design — load
//! the Bookshelf files, run the preflight validation, place with no
//! observer — in a closed loop with one caller.

use crate::inputs::{self, PlaceDesign, DESIGNS, LAYERS};
use crate::reference;
use crate::report::{median_or_nan, Report, JOB};
use crate::rounds::{repeat_setups, run_rounds, Ledger, Quality};
use crate::trace::{self, Tracer};
use crate::Run;
use std::ops::ControlFlow;
use std::time::Instant;
use tvp_bookshelf::{Design, DesignBuilderOptions};
use tvp_core::objective::{IncrementalObjective, ObjectiveModel};
use tvp_core::{
    coarse, detail, global, metrics, Chip, PassEvent, PlaceOptions, Placement, PlacementResult,
    Placer, PlacerConfig, ValidateOptions,
};
use tvp_netlist::{CellId, Netlist};
use tvp_thermal::{GridOracle, ThermalSimulator};

/// Fixed-cell seeds, as `tvp place` takes them from the `.pl`.
type Fixed = Vec<(CellId, f64, f64, u16)>;

/// The placer configuration of the place workload: Table 2 defaults
/// (α_ILV = 1e-5, α_TEMP = 0) on four layers, all hardware threads, the
/// design's own seed.
pub fn config(seed: u64) -> PlacerConfig {
    PlacerConfig::new(LAYERS).with_seed(seed)
}

fn load(aux: &std::path::Path) -> Result<Design, String> {
    Design::load(aux, DesignBuilderOptions::default())
        .map_err(|e| format!("loading {}: {e}", aux.display()))
}

fn fixed_positions(design: &Design) -> Fixed {
    design
        .netlist
        .iter_cells()
        .filter(|(_, c)| !c.is_movable())
        .filter_map(|(id, _)| {
            design
                .positions
                .get(id.index())
                .map(|&(x, y, l)| (id, x, y, l as u16))
        })
        .collect()
}

fn preflight(design: &Design, fixed: &Fixed, config: &PlacerConfig) -> Result<(), String> {
    let report = tvp_core::validate(
        &design.netlist,
        &ValidateOptions {
            fixed_positions: fixed,
            rows: (!design.rows.is_empty()).then_some(design.rows.as_slice()),
            num_layers: config.num_layers as u16,
            alpha_temp: config.alpha_temp,
        },
    );
    if report.is_placeable() {
        Ok(())
    } else {
        let errors: Vec<String> = report.errors().map(ToString::to_string).collect();
        Err(format!("preflight failed: {}", errors.join("; ")))
    }
}

/// One finished job.
struct Placed {
    /// Load + preflight + place, seconds.
    latency: f64,
    /// `place_with_options` alone, seconds.
    place_s: f64,
    netlist: Netlist,
    result: PlacementResult,
}

fn place_job(design: &PlaceDesign, config: &PlacerConfig) -> Result<Placed, String> {
    let start = Instant::now();
    let loaded = load(&design.aux)?;
    let fixed = fixed_positions(&loaded);
    preflight(&loaded, &fixed, config)?;
    let placing = Instant::now();
    let result = Placer::new(config.clone())
        .place_with_options(&loaded.netlist, &fixed, PlaceOptions::default())
        .map_err(|e| format!("place: {e}"))?;
    let end = Instant::now();
    Ok(Placed {
        latency: (end - start).as_secs_f64(),
        place_s: (end - placing).as_secs_f64(),
        netlist: loaded.netlist,
        result,
    })
}

/// Checks a returned placement from the outside and returns its quality.
///
/// # Errors
///
/// Describes the first failed check.
pub fn check(netlist: &Netlist, result: &PlacementResult) -> Result<Quality, String> {
    if result.stopped_early {
        return Err("placement stopped early".to_string());
    }
    if let Some(violation) = detail::check_legal(netlist, &result.chip, &result.placement) {
        return Err(format!("illegal placement: {violation}"));
    }
    let m = &result.metrics;
    reference::check_hpwl_ilv(netlist, &result.placement, m.wirelength, m.ilv_count)?;
    Ok(Quality {
        digest: reference::digest(&result.placement),
        objective: m.objective,
        hpwl: m.wirelength,
        ilv: m.ilv_count,
        t_max: m.max_temperature,
    })
}

/// Names of the per-job counters [`Replay::counts`] returns, in order.
pub const REPLAY_COUNTS: [&str; 4] = [
    "global.partition_retries",
    "coarse.shift_passes",
    "coarse.moves_improved",
    "thermal.cg_iterations",
];

/// A placement replayed from the stage entry points, with its counters.
pub struct Replay {
    /// Quality of the replayed placement.
    pub quality: Quality,
    /// Relaxed-tolerance bisection retries in global placement.
    pub partition_retries: usize,
    /// Cell-shifting passes in coarse legalization.
    pub shift_passes: usize,
    /// Improving moves and swaps in coarse legalization.
    pub moves_improved: usize,
    /// CG iterations over the run's thermal solves.
    pub cg_iterations: usize,
}

impl Replay {
    /// The counters named by [`REPLAY_COUNTS`].
    pub fn counts(&self) -> [usize; 4] {
        [
            self.partition_retries,
            self.shift_passes,
            self.moves_improved,
            self.cg_iterations,
        ]
    }
}

/// Replays the default pipeline — the call sequence of the stage engine
/// with nothing attached — through the stage entry points, recording a
/// span around each layer. The placement must be bitwise equal to
/// `Placer::place_with_options`; callers compare digests, so a refactor
/// that breaks the replay fails the run instead of misattributing time.
///
/// # Errors
///
/// Propagates placer errors and an illegal result.
pub fn replay(
    netlist: &Netlist,
    fixed: &[(CellId, f64, f64, u16)],
    config: &PlacerConfig,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    tvp_parallel::with_threads(config.threads, || replay_stages(netlist, fixed, config, tr))
}

fn replay_stages(
    netlist: &Netlist,
    fixed: &[(CellId, f64, f64, u16)],
    config: &PlacerConfig,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let err = |e: tvp_core::PlaceError| e.to_string();
    let setup = tr.begin("core.setup");
    let chip = Chip::from_netlist(netlist, config).map_err(err)?;
    let model = ObjectiveModel::new(netlist, &chip, config).map_err(err)?;
    tr.end(setup);

    let (nx, ny) = config.thermal_grid;
    let mut oracle = tr.span("thermal", |_| {
        ThermalSimulator::new(chip.stack, chip.width, chip.depth, nx, ny)
            .map(|sim| GridOracle::full_grid(sim, config.thermal_precond))
            .map_err(|e| e.to_string())
    })?;
    let mut cg_iterations = 0;
    let mut solve = |objective: &IncrementalObjective<'_>, tr: &mut Tracer| {
        tr.span("thermal", |_| {
            let m = metrics::compute_with(netlist, &chip, &model, objective, &mut oracle);
            cg_iterations += oracle.context().last_stats().map_or(0, |s| s.iterations);
            m.map_err(err)
        })
    };

    // The engine builds an evaluator on the centered start placement
    // before global placement replaces it.
    tr.span("objective", |_| {
        IncrementalObjective::new(
            netlist,
            &model,
            Placement::centered(netlist.num_cells(), &chip),
        )
    });
    let (placement, stats) = tr.span("global", |_| {
        global::global_place_with_fixed_stats(netlist, &chip, &model, config, fixed, false)
    });
    let mut objective = tr.span("objective", |_| {
        let mut objective = IncrementalObjective::new(netlist, &model, placement);
        objective.resync_total();
        objective
    });
    solve(&objective, tr)?;

    let (mut shift_passes, mut moves_improved) = (0, 0);
    tr.span("coarse", |_| {
        coarse::coarse_legalize_observed(&mut objective, netlist, &chip, config, &mut |event| {
            match event {
                PassEvent::ShiftPass { .. } => shift_passes += 1,
                PassEvent::CoarseMoves { improved, .. } => moves_improved += improved,
                _ => {}
            }
            ControlFlow::Continue(())
        })
    });
    tr.span("objective", |_| objective.resync_total());
    solve(&objective, tr)?;

    tr.span("detail", |_| {
        detail::detail_legalize(&mut objective, netlist, &chip, config.detail_row_window);
        detail::refine_legal(&mut objective, netlist, &chip, config.legal_refine_passes);
    });
    tr.span("objective", |_| objective.resync_total());
    if let Some(violation) = tr.span("detail.check", |_| {
        detail::check_legal(netlist, &chip, objective.placement())
    }) {
        return Err(format!("replayed placement is illegal: {violation}"));
    }
    let m = solve(&objective, tr)?;
    Ok(Replay {
        quality: Quality {
            digest: reference::digest(objective.placement()),
            objective: m.objective,
            hpwl: m.wirelength,
            ilv: m.ilv_count,
            t_max: m.max_temperature,
        },
        partition_retries: stats.partition_retries,
        shift_passes,
        moves_improved,
        cg_iterations,
    })
}

/// Loads the design set, then runs one warm-up round; returns seconds.
fn set_up(
    designs: &[PlaceDesign],
    configs: &[PlacerConfig],
    ledger: &mut Ledger,
    report: &mut Report,
) -> f64 {
    let start = Instant::now();
    for d in designs {
        if let Err(e) = load(&d.aux) {
            report.fail(e);
        }
    }
    for (i, d) in designs.iter().enumerate() {
        let outcome = place_job(d, &configs[i])
            .and_then(|p| check(&p.netlist, &p.result))
            .and_then(|q| ledger.record(i, q));
        if let Err(e) = outcome {
            report.fail(format!("warm-up, design {i}: {e}"));
        }
    }
    start.elapsed().as_secs_f64()
}

/// Runs the place-ilv workload.
pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let designs = inputs::place_designs(run.seed, &run.dir)?;
    let configs: Vec<PlacerConfig> = designs.iter().map(|d| config(d.seed)).collect();
    let mut ledger = Ledger::new(DESIGNS);
    if run.trace {
        let setup = set_up(&designs, &configs, &mut ledger, report);
        report.note(format!("set-up {setup:.3} s (one, untimed)"));
        traced(run, &designs, &configs, &mut ledger, report);
        return Ok(());
    }

    let setups = repeat_setups(|_| Ok(set_up(&designs, &configs, &mut ledger, report)))?;
    report.set(
        "setup_s",
        median_or_nan(&setups),
        format!("{} set-ups", setups.len()),
    );

    let (mut samples, mut attempted, mut checking) = (Vec::new(), 0, 0.0);
    let start = Instant::now();
    let rounds = run_rounds(DESIGNS, 0, run.budget, |i| {
        attempted += 1;
        let outcome = place_job(&designs[i], &configs[i]).and_then(|p| {
            let t = Instant::now();
            let checked = check(&p.netlist, &p.result).and_then(|q| ledger.record(i, q));
            checking += t.elapsed().as_secs_f64();
            checked.map(|()| samples.push((i, p.latency)))
        });
        if let Err(e) = outcome {
            report.fail(format!("design {i}: {e}"));
        }
    });
    let wall = start.elapsed().as_secs_f64() - checking;
    let ok = samples.len();
    report.jobs(attempted, attempted - ok);
    report.per_design(&samples, DESIGNS);
    let latencies: Vec<f64> = samples.iter().map(|s| s.1).collect();
    report.note(format!(
        "{rounds} rounds x {DESIGNS} designs in {wall:.3} s (checks excluded)"
    ));
    let n = format!("{} jobs", latencies.len());
    report.set("latency_p50_s", median_or_nan(&latencies), n.clone());
    report.latency_p90(&latencies);
    report.set("jobs_per_s", ok as f64 / wall, n.clone());
    report.set("ok_ratio", ok as f64 / attempted as f64, n);
    report.peak_rss();
    report.quality(&ledger);
    Ok(())
}

/// The traced run: each round places every design twice, through
/// `Placer` (the untraced reference behind `core.place_s` and
/// `trace.overhead`) and through the replay with spans.
fn traced(
    run: &Run,
    designs: &[PlaceDesign],
    configs: &[PlacerConfig],
    ledger: &mut Ledger,
    report: &mut Report,
) {
    let mut tr = Tracer::new(Instant::now());
    let (mut untraced, mut place_s, mut counts) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    run_rounds(DESIGNS, 0, run.budget, |i| {
        attempted += 1;
        // A design placed twice in a row runs faster the second time, so
        // alternating which placement goes first keeps that effect out of
        // `trace.overhead`.
        let traced_first = (attempted - 1) / DESIGNS % 2 == 1;
        let mut untraced_job = || -> Result<Quality, String> {
            let p = place_job(&designs[i], &configs[i])?;
            untraced.push(p.latency);
            place_s.push(p.place_s);
            let q = check(&p.netlist, &p.result)?;
            ledger.record(i, q)?;
            Ok(q)
        };
        let traced_job = |tr: &mut Tracer| -> Result<Replay, String> {
            tr.set_job(attempted as u64);
            let root = tr.begin(JOB);
            let replayed = tr
                .span("bookshelf.load", |_| load(&designs[i].aux))
                .and_then(|d| {
                    let fixed = fixed_positions(&d);
                    tr.span("validate", |_| preflight(&d, &fixed, &configs[i]))?;
                    replay(&d.netlist, &fixed, &configs[i], tr)
                });
            tr.end(root);
            replayed
        };
        let pair = if traced_first {
            traced_job(&mut tr).and_then(|r| Ok((r, untraced_job()?)))
        } else {
            untraced_job().and_then(|q| Ok((traced_job(&mut tr)?, q)))
        };
        let outcome = pair.and_then(|(r, q)| {
            if !r.quality.matches(&q) {
                return Err(format!(
                    "traced placement differs from untraced: {:?} vs {q:?}",
                    r.quality
                ));
            }
            counts.push(r.counts());
            Ok(())
        });
        if let Err(e) = outcome {
            failed += 1;
            report.fail(format!("design {i}: {e}"));
        }
    });
    report.jobs(attempted, failed);
    let spans = tr.into_spans();
    report.layers(&trace::profiles(&spans), &untraced);
    report.counts(&REPLAY_COUNTS, &counts);
    report.set(
        "core.place_s",
        median_or_nan(&place_s),
        format!("{} jobs", place_s.len()),
    );
    report.absent(&[
        "serve.queue_wait_s",
        "serve.run_s",
        "serve.polls_per_job",
        "serve.job_overhead_s",
        "serve.rejected",
    ]);
    report.write_trace(run, &spans);
}
