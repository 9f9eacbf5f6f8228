//! Command implementations for the `tvp` binary.

use crate::args::{PlaceArgs, ServeArgs, StatsArgs, SweepArgs, SynthArgs, ValidateArgs};
use crate::progress::StderrProgress;
use std::fmt::Write as _;
use tvp_bookshelf::synth::SynthConfig;
use tvp_bookshelf::{Design, DesignBuilderOptions};
use tvp_core::{
    FaultKind, FaultPlan, JsonlObserver, LayerSpec, PlaceOptions, Placer, PlacerConfig,
    PlacerObserver, Preconditioner, ValidateOptions,
};
use tvp_netlist::CellId;

/// Maps the CLI's (already validated) preconditioner name + depth cap
/// onto the solver enum.
fn precond_from_args(name: &str, mg_levels: usize) -> Preconditioner {
    match name {
        "jacobi" => Preconditioner::Jacobi,
        _ => Preconditioner::Multigrid { levels: mg_levels },
    }
}

/// Parses one `--inject-fault` spec (`kind` or `kind:site`). Omitted
/// sites default to the stage where the fault class naturally lands.
/// The grammar (shared with the `tvp serve` job API) lives in
/// `tvp_core::faults::parse_spec`.
fn parse_fault_spec(spec: &str) -> Result<(FaultKind, String), String> {
    tvp_core::faults::parse_spec(spec)
}

/// Suffix appended to sweep table lines when a point only completed by
/// degrading gracefully — silent fallbacks would otherwise make a
/// degraded point indistinguishable from a clean one.
fn degradation_suffix(result: &tvp_core::PlacementResult) -> String {
    match result.degradations.len() {
        0 => String::new(),
        1 => "  [1 degradation]".to_string(),
        n => format!("  [{n} degradations]"),
    }
}

/// `tvp place`: load, place, report, optionally write back.
///
/// # Errors
///
/// Returns a human-readable message for load, config, or write failures.
pub fn place(args: &PlaceArgs) -> Result<String, String> {
    let options = DesignBuilderOptions {
        meters_per_unit: args.meters_per_unit,
    };
    let design =
        Design::load(&args.aux, options).map_err(|e| format!("loading {}: {e}", args.aux))?;
    let mut config = PlacerConfig::new(args.layers)
        .with_alpha_ilv(args.alpha_ilv)
        .with_alpha_temp(args.alpha_temp)
        .with_seed(args.seed)
        .with_partition_starts(args.starts)
        .with_threads(args.threads)
        .with_thermal_precond(precond_from_args(&args.thermal_precond, args.mg_levels));
    if let Some(cap) = args.coarse_shift_iterations {
        config = config.with_coarse_shift_iterations(cap);
    }

    // Seed fixed cells (pads/macros) from the input `.pl` when present.
    let fixed: Vec<(CellId, f64, f64, u16)> = design
        .netlist
        .iter_cells()
        .filter(|(_, c)| !c.is_movable())
        .filter_map(|(id, _)| {
            design
                .positions
                .get(id.index())
                .map(|&(x, y, l)| (id, x, y, l as u16))
        })
        .collect();

    let mut out = String::new();
    // Preflight validation (opt out with --no-preflight): warnings are
    // reported and the run proceeds; errors abort before any placement
    // work starts.
    if !args.no_preflight {
        let report = tvp_core::validate(
            &design.netlist,
            &ValidateOptions {
                fixed_positions: &fixed,
                rows: (!design.rows.is_empty()).then_some(design.rows.as_slice()),
                num_layers: args.layers as u16,
                alpha_temp: args.alpha_temp,
            },
        );
        for diag in report.warnings() {
            let _ = writeln!(out, "preflight: {diag}");
        }
        if !report.is_placeable() {
            let mut msg = String::from("preflight validation failed:\n");
            for diag in report.errors() {
                let _ = writeln!(msg, "  {diag}");
            }
            // The strict load refuses what `repair` fixes, so name it
            // only for an error it acts on.
            if tvp_core::repair_fixes_an_error(&report) {
                let _ = write!(
                    msg,
                    "run `tvp validate {} --repair` to normalize what can be fixed, or ",
                    args.aux
                );
            }
            msg.push_str("pass --no-preflight to skip this check");
            return Err(msg);
        }
    }

    let faults = if args.inject_faults.is_empty() {
        None
    } else {
        let mut plan = FaultPlan::new(args.seed);
        for spec in &args.inject_faults {
            let (kind, site) = parse_fault_spec(spec)?;
            plan = plan.inject(kind, site);
        }
        Some(plan)
    };

    let mut trace = match &args.trace_out {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            Some(JsonlObserver::new(std::io::BufWriter::new(file)))
        }
        None => None,
    };
    let run_options = PlaceOptions {
        observer: trace.as_mut().map(|t| t as &mut dyn PlacerObserver),
        cancel: None,
        time_budget: args.time_budget.map(std::time::Duration::from_secs_f64),
        checkpoint_dir: args.checkpoint_dir.as_ref().map(std::path::PathBuf::from),
        faults,
        thread_lease: None,
    };
    let result = Placer::new(config)
        .place_with_options(&design.netlist, &fixed, run_options)
        .map_err(|e| format!("placement failed: {e}"))?;
    if let Some(trace) = trace {
        let path = args.trace_out.as_deref().unwrap_or_default();
        trace.finish().map_err(|e| format!("writing {path}: {e}"))?;
    }

    let _ = writeln!(out, "design:  {} ({})", design.name, design.netlist.stats());
    if let Some(stage) = &result.resumed_from {
        let _ = writeln!(out, "resumed: from checkpoint after {stage}");
    }
    let _ = writeln!(
        out,
        "chip:    {:.1} x {:.1} um, {} layers, {} rows/layer",
        result.chip.width * 1e6,
        result.chip.depth * 1e6,
        result.chip.num_layers,
        result.chip.num_rows
    );
    let _ = writeln!(out, "quality: {}", result.metrics);
    let _ = writeln!(
        out,
        "runtime: {:.2?} (global {:.2?}, coarse {:.2?}, detail {:.2?})",
        result.timings.total, result.timings.global, result.timings.coarse, result.timings.detail
    );
    if result.timings.rounds.len() > 1 {
        for (i, round) in result.timings.rounds.iter().enumerate() {
            let _ = writeln!(
                out,
                "         round {i}: coarse {:.2?}, detail {:.2?}",
                round.coarse, round.detail
            );
        }
    }
    if result.stopped_early {
        let _ = writeln!(
            out,
            "note:    stopped early (budget/cancellation); placement is legal"
        );
    }
    for degradation in &result.degradations {
        let _ = writeln!(out, "degraded: {degradation}");
    }
    if let Some(path) = &args.trace_out {
        let _ = writeln!(out, "wrote:   {path}");
    }

    if let Some(svg_path) = &args.svg {
        let image = tvp_report::svg::render_layers(
            &design.netlist,
            &result.chip,
            &result.placement,
            &tvp_report::svg::SvgOptions {
                color_by: tvp_report::svg::ColorBy::Connectivity,
                ..Default::default()
            },
        );
        std::fs::write(svg_path, image).map_err(|e| format!("writing {svg_path}: {e}"))?;
        let _ = writeln!(out, "wrote:   {svg_path}");
    }

    if let Some(dir) = &args.out {
        let positions: Vec<(f64, f64, u32)> = (0..design.netlist.num_cells())
            .map(|i| {
                let (x, y, l) = result.placement.position(CellId::new(i));
                (x, y, l as u32)
            })
            .collect();
        let placed = Design {
            name: design.name.clone(),
            netlist: design.netlist,
            positions,
            rows: design.rows,
        };
        placed
            .save(dir, options)
            .map_err(|e| format!("writing {dir}: {e}"))?;
        let _ = writeln!(
            out,
            "wrote:   {dir}/{}.aux (+ nodes/nets/wts/pl)",
            placed.name
        );
    }
    Ok(out)
}

/// `tvp validate`: preflight diagnostics (and optional repair) for one
/// design, without placing it.
///
/// # Errors
///
/// Returns a message when the design cannot be loaded, when error-level
/// diagnostics remain (after repair, if `--repair` was given), or when
/// the repaired design cannot be written.
pub fn validate(args: &ValidateArgs) -> Result<String, String> {
    let options = DesignBuilderOptions {
        meters_per_unit: args.meters_per_unit,
    };
    // Permissive load: validate/repair must be able to open exactly the
    // designs the strict loader rejects (degenerate cell dimensions).
    let design = Design::load_permissive(&args.aux, options)
        .map_err(|e| format!("loading {}: {e}", args.aux))?;
    let fixed: Vec<(CellId, f64, f64, u16)> = design
        .netlist
        .iter_cells()
        .filter(|(_, c)| !c.is_movable())
        .filter_map(|(id, _)| {
            design
                .positions
                .get(id.index())
                .map(|&(x, y, l)| (id, x, y, l as u16))
        })
        .collect();
    let validate_options = ValidateOptions {
        fixed_positions: &fixed,
        rows: (!design.rows.is_empty()).then_some(design.rows.as_slice()),
        num_layers: args.layers as u16,
        alpha_temp: args.alpha_temp,
    };

    let mut out = String::new();
    let _ = writeln!(out, "design:  {} ({})", design.name, design.netlist.stats());
    let report = tvp_core::validate(&design.netlist, &validate_options);
    for diag in &report.diagnostics {
        let _ = writeln!(out, "{diag}");
    }
    let _ = writeln!(
        out,
        "summary: {} error(s), {} warning(s)",
        report.errors().count(),
        report.warnings().count()
    );

    if !args.repair {
        return if report.is_placeable() {
            Ok(out)
        } else if tvp_core::repair_fixes_an_error(&report) {
            Err(out + "validation failed (re-run with --repair to normalize what can be fixed)")
        } else {
            Err(out + "validation failed")
        };
    }

    let (repaired, actions) =
        tvp_core::repair(&design.netlist).map_err(|e| format!("{out}repair failed: {e}"))?;
    if actions.is_empty() {
        let _ = writeln!(out, "repair:  nothing to change");
    }
    for action in &actions {
        let _ = writeln!(out, "repair:  {action}");
    }
    let after = tvp_core::validate(&repaired, &validate_options);
    let _ = writeln!(
        out,
        "after:   {} error(s), {} warning(s)",
        after.errors().count(),
        after.warnings().count()
    );

    if let Some(dir) = &args.out {
        let repaired_design = Design {
            name: design.name.clone(),
            netlist: repaired,
            positions: design.positions.clone(),
            rows: design.rows.clone(),
        };
        repaired_design
            .save(dir, options)
            .map_err(|e| format!("{out}writing {dir}: {e}"))?;
        let _ = writeln!(
            out,
            "wrote:   {dir}/{}.aux (+ nodes/nets/wts/pl)",
            design.name
        );
    }

    if after.is_placeable() {
        Ok(out)
    } else {
        Err(out + "validation still failing after repair (errors above are not auto-fixable)")
    }
}

/// `tvp synth`: generate a synthetic benchmark and save it.
///
/// # Errors
///
/// Returns a message for generation or write failures.
pub fn synth(args: &SynthArgs) -> Result<String, String> {
    let config =
        SynthConfig::named(&args.name, args.cells, args.area_mm2 * 1.0e-6).with_seed(args.seed);
    let netlist =
        tvp_bookshelf::synth::generate(&config).map_err(|e| format!("generation failed: {e}"))?;
    let stats = netlist.stats();
    let design = Design::from_netlist(&args.name, netlist);
    design
        .save(
            &args.out,
            DesignBuilderOptions {
                meters_per_unit: args.meters_per_unit,
            },
        )
        .map_err(|e| format!("writing {}: {e}", args.out))?;
    Ok(format!("wrote {}/{}.aux: {stats}\n", args.out, args.name))
}

/// `tvp stats`: print netlist statistics for a benchmark.
///
/// # Errors
///
/// Returns a message when the design cannot be loaded.
pub fn stats(args: &StatsArgs) -> Result<String, String> {
    let design = Design::load(
        &args.aux,
        DesignBuilderOptions {
            meters_per_unit: args.meters_per_unit,
        },
    )
    .map_err(|e| format!("loading {}: {e}", args.aux))?;
    let stats = design.netlist.stats();
    let mut out = String::new();
    let _ = writeln!(out, "design: {}", design.name);
    let _ = writeln!(out, "{stats}");
    let _ = writeln!(
        out,
        "positions: {}, rows: {}",
        if design.positions.is_empty() {
            "absent"
        } else {
            "present"
        },
        design.rows.len()
    );
    Ok(out)
}

/// `tvp sweep`: trace the wirelength/via tradeoff curve for one design,
/// or (with `--scenario stacks`) compare heterogeneous layer stacks.
///
/// # Errors
///
/// Returns a message for load, placement, or CSV-write failures.
pub fn sweep(args: &SweepArgs) -> Result<String, String> {
    let design = Design::load(
        &args.aux,
        DesignBuilderOptions {
            meters_per_unit: args.meters_per_unit,
        },
    )
    .map_err(|e| format!("loading {}: {e}", args.aux))?;
    if args.scenario == "stacks" {
        return sweep_stacks(args, &design);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "alpha_ILV sweep on {} ({} cells, {} layers, {} points)",
        design.name,
        design.netlist.num_cells(),
        args.layers,
        args.points
    );
    let _ = writeln!(out, "{:>12} {:>14} {:>10}", "alpha_ILV", "WL (m)", "ILVs");

    let mut table = tvp_report::csv::Table::new(["alpha_ilv", "wirelength_m", "ilv_count"]);
    let (lo, hi) = (5.0e-9f64, 5.2e-3f64);
    let ratio = (hi / lo).powf(1.0 / (args.points - 1) as f64);
    for i in 0..args.points {
        let alpha = lo * ratio.powi(i as i32);
        let config = PlacerConfig::new(args.layers)
            .with_alpha_ilv(alpha)
            .with_threads(args.threads)
            .with_thermal_precond(precond_from_args(&args.thermal_precond, args.mg_levels));
        let mut narrator = args.progress.then(|| {
            StderrProgress::stderr(format!("{}/{} alpha={alpha:.2e}", i + 1, args.points))
        });
        let options = PlaceOptions {
            observer: narrator.as_mut().map(|n| n as &mut dyn PlacerObserver),
            ..PlaceOptions::default()
        };
        let result = Placer::new(config)
            .place_with_options(&design.netlist, &[], options)
            .map_err(|e| format!("placement failed at alpha = {alpha:.2e}: {e}"))?;
        let _ = writeln!(
            out,
            "{alpha:>12.2e} {:>14.5e} {:>10.0}{}",
            result.metrics.wirelength,
            result.metrics.ilv_count,
            degradation_suffix(&result)
        );
        table.push(vec![
            alpha,
            result.metrics.wirelength,
            result.metrics.ilv_count,
        ]);
    }
    if let Some(path) = &args.csv {
        std::fs::write(path, table.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        let _ = writeln!(out, "wrote:   {path}");
    }
    Ok(out)
}

/// Named per-layer stack profiles for `--scenario stacks`. All start
/// from the MIT-LL 0.18 µm defaults (5.7 µm layers at 10.2 W/(m·K));
/// the variants model common heterogeneous integrations.
fn stack_profiles(layers: usize) -> Vec<(&'static str, Vec<LayerSpec>)> {
    let n = layers;
    let base = LayerSpec {
        thickness: 5.7e-6,
        conductivity: 10.2,
    };
    // A memory die on top: 4x thicker than the thinned logic tiers.
    let mut thick_top = vec![base; n];
    if let Some(top) = thick_top.last_mut() {
        top.thickness = 4.0 * base.thickness;
    }
    // Polymer-bonded upper tiers conduct at half the oxide-bond value.
    let low_k_upper = (0..n)
        .map(|i| {
            if i >= n.div_ceil(2) {
                LayerSpec {
                    conductivity: base.conductivity / 2.0,
                    ..base
                }
            } else {
                base
            }
        })
        .collect();
    vec![
        ("uniform", vec![base; n]),
        ("thick-top", thick_top),
        ("low-k-upper", low_k_upper),
        (
            "high-k-bond",
            vec![
                LayerSpec {
                    conductivity: 2.0 * base.conductivity,
                    ..base
                };
                n
            ],
        ),
    ]
}

/// `tvp sweep --scenario stacks`: place the design once per named layer
/// profile and tabulate how the stack composition moves the thermal
/// numbers at unchanged wirelength cost.
fn sweep_stacks(args: &SweepArgs, design: &Design) -> Result<String, String> {
    let profiles = stack_profiles(args.layers);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "layer-stack sweep on {} ({} cells, {} layers, {} profiles)",
        design.name,
        design.netlist.num_cells(),
        args.layers,
        profiles.len()
    );
    let _ = writeln!(
        out,
        "{:>12} {:>14} {:>10} {:>10} {:>10}",
        "profile", "WL (m)", "ILVs", "T_avg(C)", "T_max(C)"
    );

    let mut table = tvp_report::csv::Table::new([
        "profile_index",
        "wirelength_m",
        "ilv_count",
        "avg_temp_c",
        "max_temp_c",
    ]);
    for (i, (name, specs)) in profiles.iter().enumerate() {
        let config = PlacerConfig::new(args.layers)
            .with_threads(args.threads)
            .with_thermal_precond(precond_from_args(&args.thermal_precond, args.mg_levels))
            .with_stack_layers(specs.clone());
        let mut narrator = args
            .progress
            .then(|| StderrProgress::stderr(format!("{}/{} {name}", i + 1, profiles.len())));
        let options = PlaceOptions {
            observer: narrator.as_mut().map(|n| n as &mut dyn PlacerObserver),
            ..PlaceOptions::default()
        };
        let result = Placer::new(config)
            .place_with_options(&design.netlist, &[], options)
            .map_err(|e| format!("placement failed for profile {name}: {e}"))?;
        let m = &result.metrics;
        let _ = writeln!(
            out,
            "{name:>12} {:>14.5e} {:>10.0} {:>10.2} {:>10.2}{}",
            m.wirelength,
            m.ilv_count,
            m.avg_temperature,
            m.max_temperature,
            degradation_suffix(&result)
        );
        table.push(vec![
            i as f64,
            m.wirelength,
            m.ilv_count,
            m.avg_temperature,
            m.max_temperature,
        ]);
    }
    if let Some(path) = &args.csv {
        std::fs::write(path, table.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        let _ = writeln!(out, "wrote:   {path}");
    }
    Ok(out)
}

/// `tvp serve`: run the fault-tolerant placement daemon in the
/// foreground until a client posts `/shutdown`. The bound address is
/// printed to stderr and written to `<state-dir>/addr`; jobs, retries,
/// degradations, and recoveries are narrated on stderr as they happen.
/// (For SIGTERM handling under a process supervisor, use the
/// standalone `tvp-served` binary, which is the same daemon.)
///
/// # Errors
///
/// Returns a message when the state directory cannot be created or the
/// listen address cannot be bound.
pub fn serve(args: &ServeArgs) -> Result<String, String> {
    use std::time::Duration;
    let config = tvp_serve::ServerConfig {
        listen: args.listen.clone(),
        state_dir: std::path::PathBuf::from(&args.state_dir),
        workers: args.workers,
        max_queue: args.max_queue,
        thread_budget: args.thread_budget,
        default_max_attempts: args.max_attempts.max(1),
        retry_base: Duration::from_millis(args.retry_base_ms),
        drain_budget: Duration::from_secs(args.drain_secs),
        ..tvp_serve::ServerConfig::default()
    };
    let mut server = tvp_serve::Server::start(config)?;
    let addr = server.addr();
    eprintln!("[tvp-serve] listening on http://{addr}");
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("[tvp-serve] shutting down (draining)...");
    server.shutdown();
    Ok(format!("served on http://{addr}; shut down cleanly\n"))
}

#[cfg(test)]
mod tests {
    use crate::run;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn fault_specs_parse_including_colon_kinds() {
        use super::parse_fault_spec;
        use tvp_core::FaultKind;
        assert_eq!(
            parse_fault_spec("nan-power:coarse[0]").unwrap(),
            (FaultKind::NanPower, "coarse[0]".to_string())
        );
        // Kind names containing `:` must not be split at the first colon.
        assert_eq!(
            parse_fault_spec("io-error:checkpoint-write").unwrap(),
            (FaultKind::CheckpointWriteIo, "global".to_string())
        );
        assert_eq!(
            parse_fault_spec("io-error:checkpoint-write:detail[0]").unwrap(),
            (FaultKind::CheckpointWriteIo, "detail[0]".to_string())
        );
        assert_eq!(
            parse_fault_spec("slow-stage:detail[0]").unwrap(),
            (FaultKind::SlowStage, "detail[0]".to_string())
        );
        assert_eq!(
            parse_fault_spec("slow-stage").unwrap(),
            (FaultKind::SlowStage, "coarse[0]".to_string())
        );
        assert!(parse_fault_spec("io-error")
            .unwrap_err()
            .contains("unknown fault kind"));
        assert!(parse_fault_spec("io-error:")
            .unwrap_err()
            .contains("unknown fault kind"));
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("tvp_cli_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn synth_then_stats_then_place_round_trip() {
        let dir = tmp("rt");
        let out = run(&argv(&format!(
            "synth demo --cells 120 --out {dir} --seed 5"
        )))
        .expect("synth succeeds");
        assert!(out.contains("demo.aux"));

        let aux = format!("{dir}/demo.aux");
        let out = run(&argv(&format!("stats {aux}"))).expect("stats succeeds");
        assert!(out.contains("cells=120"));

        let placed_dir = tmp("rt_out");
        let out = run(&argv(&format!(
            "place {aux} --layers 2 --alpha-ilv 1e-5 --out {placed_dir}"
        )))
        .expect("place succeeds");
        assert!(out.contains("quality: WL ="));
        assert!(out.contains("2 layers"));
        assert!(std::path::Path::new(&format!("{placed_dir}/demo.pl")).exists());

        // The written placement loads back and reports positions present.
        let out = run(&argv(&format!("stats {placed_dir}/demo.aux"))).unwrap();
        assert!(out.contains("positions: present"));

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&placed_dir).ok();
    }

    #[test]
    fn place_writes_svg_when_asked() {
        let dir = tmp("svg");
        run(&argv(&format!("synth s --cells 80 --out {dir}"))).unwrap();
        let svg = format!("{dir}/view.svg");
        let out = run(&argv(&format!("place {dir}/s.aux --layers 2 --svg {svg}"))).unwrap();
        assert!(out.contains("view.svg"));
        let image = std::fs::read_to_string(&svg).unwrap();
        assert!(image.starts_with("<svg"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_produces_csv() {
        let dir = tmp("sweep");
        run(&argv(&format!("synth s --cells 100 --out {dir}"))).unwrap();
        let csv = format!("{dir}/sweep.csv");
        let out = run(&argv(&format!(
            "sweep {dir}/s.aux --layers 2 --points 3 --csv {csv}"
        )))
        .unwrap();
        assert!(out.contains("alpha_ILV sweep"));
        let text = std::fs::read_to_string(&csv).unwrap();
        let table = tvp_report::csv::Table::from_csv(&text).unwrap();
        assert_eq!(table.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn place_writes_trace_and_checkpoints_then_resumes() {
        let dir = tmp("trace");
        run(&argv(&format!("synth s --cells 100 --out {dir}"))).unwrap();
        let trace = format!("{dir}/trace.jsonl");
        let ckpt = format!("{dir}/ckpt");
        let out = run(&argv(&format!(
            "place {dir}/s.aux --layers 2 --trace-out {trace} --checkpoint-dir {ckpt}"
        )))
        .unwrap();
        assert!(out.contains("trace.jsonl"));

        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.lines().next().unwrap().contains("run_begin"));
        assert!(text.lines().last().unwrap().contains("run_end"));
        assert!(std::path::Path::new(&format!("{ckpt}/manifest.tvp")).exists());

        // A second run over the same checkpoint directory resumes.
        let out = run(&argv(&format!(
            "place {dir}/s.aux --layers 2 --checkpoint-dir {ckpt}"
        )))
        .unwrap();
        assert!(
            out.contains("resumed: from checkpoint after detail[0]"),
            "{out}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn place_honors_a_zero_time_budget() {
        let dir = tmp("budget");
        run(&argv(&format!("synth s --cells 100 --out {dir}"))).unwrap();
        let out = run(&argv(&format!(
            "place {dir}/s.aux --layers 2 --time-budget 0"
        )))
        .unwrap();
        assert!(out.contains("stopped early"), "{out}");
        assert!(
            out.contains("quality: WL ="),
            "still reports a legal result"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_passes_clean_designs_and_place_reports_injected_degradations() {
        let dir = tmp("validate");
        run(&argv(&format!("synth v --cells 80 --out {dir}"))).unwrap();

        let out = run(&argv(&format!("validate {dir}/v.aux --layers 2"))).unwrap();
        assert!(out.contains("summary: 0 error(s)"), "{out}");

        // --repair on a clean design is a no-op and still succeeds.
        let out = run(&argv(&format!("validate {dir}/v.aux --repair"))).unwrap();
        assert!(out.contains("repair:  nothing to change"), "{out}");

        // An injected CG breakdown degrades gracefully and is reported.
        let out = run(&argv(&format!(
            "place {dir}/v.aux --layers 2 --inject-fault cg-breakdown"
        )))
        .unwrap();
        assert!(out.contains("degraded: thermal-degraded"), "{out}");
        assert!(out.contains("quality: WL ="), "placement still completes");

        // Unknown fault kinds are rejected up front.
        let err = run(&argv(&format!(
            "place {dir}/v.aux --inject-fault frobnicate"
        )))
        .unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");

        // --no-preflight still places.
        let out = run(&argv(&format!(
            "place {dir}/v.aux --layers 2 --no-preflight"
        )))
        .unwrap();
        assert!(out.contains("quality: WL ="));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stacks_sweep_tabulates_layer_profiles() {
        let dir = tmp("stacks");
        run(&argv(&format!("synth k --cells 60 --out {dir}"))).unwrap();
        let csv = format!("{dir}/stacks.csv");
        let out = run(&argv(&format!(
            "sweep {dir}/k.aux --layers 2 --scenario stacks --csv {csv}"
        )))
        .unwrap();
        assert!(out.contains("layer-stack sweep"), "{out}");
        for profile in ["uniform", "thick-top", "low-k-upper", "high-k-bond"] {
            assert!(out.contains(profile), "{out}");
        }
        let body = std::fs::read_to_string(&csv).unwrap();
        assert!(body.starts_with("profile_index,wirelength_m,ilv_count"));
        assert_eq!(body.lines().count(), 5, "header + one row per profile");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_warns_when_thermal_objective_is_inert() {
        use tvp_netlist::{NetlistBuilder, PinDirection};
        // All-input nets have no driver to deposit power at: the Eq. 10
        // power map is identically zero whatever the activities are.
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..8)
            .map(|i| b.add_cell(format!("c{i}"), 1e-6, 1e-6))
            .collect();
        for (i, pair) in cells.windows(2).enumerate() {
            let n = b.add_net(format!("n{i}"));
            b.connect(n, pair[0], PinDirection::Input).unwrap();
            b.connect(n, pair[1], PinDirection::Input).unwrap();
        }
        let dir = tmp("inert");
        tvp_bookshelf::Design::from_netlist("z", b.build().unwrap())
            .save(
                &dir,
                tvp_bookshelf::DesignBuilderOptions {
                    meters_per_unit: 1.0e-6,
                },
            )
            .unwrap();

        let out = run(&argv(&format!("validate {dir}/z.aux --alpha-temp 1e-4"))).unwrap();
        assert!(out.contains("[thermal-objective-inert]"), "{out}");
        // Without the knob the same design validates silently.
        let out = run(&argv(&format!("validate {dir}/z.aux"))).unwrap();
        assert!(!out.contains("thermal-objective-inert"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Saves a small design built by `build` (which gets a permissive
    /// builder and returns the design's positions) to a fresh directory.
    fn save_design(
        dir: &str,
        build: impl FnOnce(&mut tvp_netlist::NetlistBuilder) -> Vec<(f64, f64, u32)>,
    ) {
        let mut b = tvp_netlist::NetlistBuilder::new().permissive();
        let positions = build(&mut b);
        let mut design = tvp_bookshelf::Design::from_netlist("h", b.build().unwrap());
        design.positions = positions;
        let options = tvp_bookshelf::DesignBuilderOptions {
            meters_per_unit: 1.0e-6,
        };
        design.save(dir, options).unwrap();
    }

    /// A chain of `cells` movable cells; returns their ids.
    fn chain(b: &mut tvp_netlist::NetlistBuilder, cells: usize) -> Vec<tvp_netlist::CellId> {
        use tvp_netlist::PinDirection;
        let ids: Vec<_> = (0..cells)
            .map(|i| b.add_cell(format!("c{i}"), 1e-6, 1e-6))
            .collect();
        for (i, pair) in ids.windows(2).enumerate() {
            let n = b.add_net(format!("n{i}"));
            b.connect(n, pair[0], PinDirection::Output).unwrap();
            b.connect(n, pair[1], PinDirection::Input).unwrap();
        }
        ids
    }

    #[test]
    fn preflight_names_repair_only_when_it_would_fix_an_error() {
        use tvp_netlist::{CellKind, PinDirection};
        // A NaN terminal coordinate: an error `repair` cannot fix.
        let dir = tmp("nan_terminal");
        save_design(&dir, |b| {
            let ids = chain(b, 6);
            let pad = b.add_cell_with_kind("pad", 1e-6, 1e-6, CellKind::Fixed);
            let n = b.add_net("io");
            b.connect(n, pad, PinDirection::Output).unwrap();
            b.connect(n, ids[0], PinDirection::Input).unwrap();
            let mut positions = vec![(0.0, 0.0, 0); ids.len()];
            positions.push((f64::NAN, 0.0, 0));
            positions
        });
        let err = run(&argv(&format!("place {dir}/h.aux --layers 2"))).unwrap_err();
        assert!(err.contains("[non-finite-fixed-position]"), "{err}");
        assert!(err.contains("--no-preflight"), "{err}");
        assert!(!err.contains("--repair"), "{err}");
        let err = run(&argv(&format!("validate {dir}/h.aux"))).unwrap_err();
        assert!(err.contains("validation failed"), "{err}");
        assert!(!err.contains("--repair"), "{err}");
        std::fs::remove_dir_all(&dir).ok();

        // A zero-area cell: `repair` clamps it, so validate names it.
        let dir = tmp("zero_area");
        save_design(&dir, |b| {
            let ids = chain(b, 6);
            let flat = b.add_cell("flat", 1e-6, 0.0);
            let n = b.add_net("f");
            b.connect(n, flat, PinDirection::Output).unwrap();
            b.connect(n, ids[0], PinDirection::Input).unwrap();
            Vec::new()
        });
        let err = run(&argv(&format!("validate {dir}/h.aux"))).unwrap_err();
        assert!(err.contains("[zero-area-cell]"), "{err}");
        assert!(err.contains("re-run with --repair"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv("help")).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn errors_are_strings_not_panics() {
        assert!(run(&argv("place /no/such.aux")).is_err());
        assert!(run(&argv("bogus")).is_err());
    }
}
