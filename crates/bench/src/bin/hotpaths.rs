//! Hot-path timing harness: measures the three parallelized engines
//! (thermal CG solve, objective rebuild, recursive bisection) across a
//! thread sweep, the warm-start savings, and the incremental delta
//! engine's move/swap pricing and commit kernels, and writes the results
//! as machine-readable JSON (`BENCH_hotpaths.json` by default). The
//! `thermal_oracle` section fits the compact superposition tier against
//! the multigrid ground truth, gates the fit error (nonzero exit above
//! the gate — the CI smoke job relies on this), and compares the
//! compact per-move price against the coarse-grid warm solve. A
//! `scaling` sweep rounds out the report: per cell count (one fresh
//! process each) it times synth, Bookshelf render, zero-copy parse,
//! streaming netlist assembly, and — where practical — the full
//! placement pipeline, alongside that size's peak RSS.
//!
//! The report includes the hardware thread count so the numbers can be
//! read honestly: on a single-core host, extra workers can only add
//! scheduling overhead, and the interesting columns are the warm-start
//! iteration savings and the threads=1 ≡ threads=N result equality.
//! The delta-pricing rows carry their own denominator: a live
//! `delta_move_rescan` loop over the same probe pattern reproduces the
//! pre-delta-engine full-bbox-rescan kernel, so the reported speedups
//! hold on whatever machine ran the harness.
//!
//! Flags: `--out FILE`, `--cells N[,N,...]` (first count feeds the kernel
//! sections, the full list drives the `scaling` sweep), `--repeats N`,
//! `--grid N`, `--smoke` (threads=\[1\], minimal repeats/probes — the CI
//! smoke mode).

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;
use tvp_bookshelf::synth::{generate, SynthConfig};
use tvp_bookshelf::{stream, write_nets, write_nodes, write_wts, Design, DesignBuilderOptions};
use tvp_core::netweight::NetWeights;
use tvp_core::objective::{IncrementalObjective, ObjectiveModel};
use tvp_core::{
    Chip, PassEvent, PlaceOptions, Placement, Placer, PlacerConfig, PlacerEvent, PlacerObserver,
    StageRun,
};
use tvp_netlist::{CellId, Netlist, NetlistBuilder, PinDirection};
use tvp_partition::{bisect, bisect_fixed_profiled, BisectConfig, FixedSide, Hypergraph};
use tvp_thermal::{
    compact_params, CompactModel, LayerStack, PowerMap, Preconditioner, ThermalSimulator,
};

/// Pipeline stages a scaling row may time, in execution order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    Global,
    Coarse,
    Detail,
}

impl Stage {
    const ALL: [Stage; 3] = [Stage::Global, Stage::Coarse, Stage::Detail];

    fn name(self) -> &'static str {
        match self {
            Stage::Global => "global",
            Stage::Coarse => "coarse",
            Stage::Detail => "detail",
        }
    }
}

/// Parses `--stages global[,coarse[,detail]]`. Later stages consume
/// earlier ones' output, so only prefixes of the pipeline are
/// expressible.
fn parse_stages(spec: &str) -> Vec<Stage> {
    let stages: Vec<Stage> = spec
        .split(',')
        .map(|s| match s.trim() {
            "global" => Stage::Global,
            "coarse" => Stage::Coarse,
            "detail" => Stage::Detail,
            other => panic!("--stages: unknown stage `{other}` (global, coarse, detail)"),
        })
        .collect();
    assert!(
        !stages.is_empty() && stages[..] == Stage::ALL[..stages.len()],
        "--stages expects a prefix of global,coarse,detail (got `{spec}`)"
    );
    stages
}

struct Options {
    out: String,
    cells: Vec<usize>,
    repeats: usize,
    grid: usize,
    smoke: bool,
    scale_one: Option<usize>,
    /// Partial-run stage prefix for the scaling sweep; `None` keeps the
    /// default policy (full pipeline up to `SCALE_PLACE_MAX` cells, no
    /// placement above).
    stages: Option<Vec<Stage>>,
}

fn parse_options() -> Options {
    let mut opts = Options {
        out: "BENCH_hotpaths.json".to_string(),
        cells: vec![1_000],
        repeats: 5,
        grid: 32,
        smoke: false,
        scale_one: None,
        stages: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("flag {flag} expects a value"))
        };
        match flag.as_str() {
            "--out" => opts.out = value(),
            "--cells" => {
                opts.cells = value()
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .expect("--cells expects comma-separated integers")
                    })
                    .collect();
                assert!(!opts.cells.is_empty(), "--cells expects at least one count");
            }
            "--repeats" => opts.repeats = value().parse().expect("--repeats expects an integer"),
            "--grid" => opts.grid = value().parse().expect("--grid expects an integer"),
            "--smoke" => opts.smoke = true,
            "--stages" => opts.stages = Some(parse_stages(&value())),
            // Internal: run one scaling row in this (fresh) process and
            // print its JSON object to stdout. The parent spawns this per
            // cell count so peak-RSS readings don't contaminate each other.
            "--scale-one" => {
                opts.scale_one = Some(value().parse().expect("--scale-one expects an integer"));
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --out FILE --cells N[,N,...] --repeats N --grid N --smoke \
                     --stages global[,coarse[,detail]]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag `{other}` (try --help)"),
        }
    }
    if opts.smoke {
        opts.repeats = opts.repeats.min(2);
    }
    opts
}

/// Best-of-`repeats` wall time in milliseconds (min is the standard
/// estimator for noise floors on a shared machine).
fn time_ms<R>(repeats: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn dense_power(nx: usize, layers: usize, scale: f64) -> PowerMap {
    let mut power = PowerMap::new(nx, nx, layers);
    for k in 0..layers {
        for j in 0..nx {
            for i in 0..nx {
                power.add(i, j, k, scale * 1.0e-4 * (1 + (i + j + k) % 5) as f64);
            }
        }
    }
    power
}

/// Best-of-`repeats` nanoseconds per operation for a kernel that runs
/// `n` operations per invocation.
fn time_ns_per_op(repeats: usize, n: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

/// Uniformly scattered placement for the pricing kernels: the worst case
/// for bbox maintenance (every net spans a large box, extremes retreat
/// often), seeded for reproducibility.
fn scattered_placement(netlist: &Netlist, chip: &Chip, rng: &mut SmallRng) -> Placement {
    let mut placement = Placement::centered(netlist.num_cells(), chip);
    for i in 0..netlist.num_cells() {
        placement.set(
            CellId::new(i),
            rng.random_range(0.0..chip.width),
            rng.random_range(0.0..chip.depth),
            rng.random_range(0..chip.num_layers as u16),
        );
    }
    placement
}

/// One driver fanning out to every other cell, plus a chain of 2-pin
/// nets: the high-fanout stress case for per-net extreme maintenance.
fn high_fanout_netlist(cells: usize) -> Netlist {
    let mut b = NetlistBuilder::new();
    let ids: Vec<CellId> = (0..cells)
        .map(|i| b.add_cell(format!("c{i}"), 1.0e-6, 1.0e-6))
        .collect();
    let big = b.add_net("big");
    b.connect(big, ids[0], PinDirection::Output)
        .expect("driver connects");
    for &c in &ids[1..] {
        b.connect(big, c, PinDirection::Input)
            .expect("sink connects");
    }
    for w in ids.windows(2) {
        let n = b.add_net(format!("ch{}", w[0].index()));
        b.connect(n, w[0], PinDirection::Output).expect("connects");
        b.connect(n, w[1], PinDirection::Input).expect("connects");
    }
    b.build().expect("high-fanout netlist builds")
}

struct PricingRow {
    name: &'static str,
    ns_per_op: f64,
    rescan_ns_per_op: Option<f64>,
}

/// Largest cell count at which the scaling sweep runs the full placement
/// pipeline; above this only ingest (synth/write/parse/build) is timed.
const SCALE_PLACE_MAX: usize = 100_000;

/// Peak resident set size of this process in MB (Linux `VmHWM`), 0.0
/// where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One scaling-sweep row: synthesize `cells`, render Bookshelf text,
/// scan it with the zero-copy readers (pure parse cost), assemble the
/// netlist through the streaming path, and — at sizes where it is
/// practical — run the full placement pipeline. Returns the row as a
/// JSON object string.
///
/// With `stages` set, the row instead runs exactly that prefix of the
/// pipeline (`global`, then `coarse`, then `detail`) through the
/// stage entry points, timing each — this is how the million-cell row
/// times the global stage without paying for the rest. A full
/// three-stage prefix still goes through [`Placer`] so its timings
/// match the production path.
///
/// Meant to run in a fresh process (`--scale-one`) so the reported peak
/// RSS belongs to this size alone.
fn scale_row_json(cells: usize, stages: Option<&[Stage]>) -> String {
    let t = Instant::now();
    let netlist =
        generate(&SynthConfig::named("scale", cells, cells as f64 * 5.0e-12)).expect("synth");
    let synth_ms = t.elapsed().as_secs_f64() * 1e3;
    let (num_nets, num_pins) = (netlist.num_nets(), netlist.num_pins());

    let builder_opts = DesignBuilderOptions::default();
    let t = Instant::now();
    let design = Design::from_netlist("scale", netlist);
    let (nodes, nets, wts, _) = design.to_files(builder_opts);
    drop(design);
    let nodes_text = write_nodes(&nodes);
    let nets_text = write_nets(&nets);
    let wts_text = write_wts(&wts);
    drop((nodes, nets, wts));
    let write_ms = t.elapsed().as_secs_f64() * 1e3;

    // Pure token scan: every record visited, nothing materialized.
    let t = Instant::now();
    let mut nr = stream::NodesReader::new(&nodes_text).expect("nodes header");
    while nr.next_node().expect("node record").is_some() {}
    let mut er = stream::NetsReader::new(&nets_text).expect("nets header");
    while let Some(net) = er.next_net().expect("net record") {
        for _ in 0..net.degree {
            std::hint::black_box(er.next_pin().expect("pin record"));
        }
    }
    let mut wr = stream::WtsReader::new(&wts_text);
    while wr.next_record().expect("wts record").is_some() {}
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;

    // Fused streaming parse + netlist assembly (what `load` runs).
    let t = Instant::now();
    let assembled = Design::assemble_streaming(
        "scale",
        &nodes_text,
        &nets_text,
        Some(&wts_text),
        None,
        None,
        builder_opts,
    )
    .expect("assemble");
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    drop((nodes_text, nets_text, wts_text));

    let threads = tvp_parallel::available_threads().max(1);
    let place = match stages {
        // A partial prefix runs the stage entry points directly; the
        // full three-stage prefix and the default policy go through the
        // production `Placer`.
        Some(stages) if stages.len() < Stage::ALL.len() => {
            let netlist = &assembled.netlist;
            let config = PlacerConfig::new(4)
                .with_partition_starts(4)
                .with_threads(threads);
            let chip = Chip::from_netlist(netlist, &config).expect("chip");
            let model = ObjectiveModel::new(netlist, &chip, &config).expect("model");
            let t = Instant::now();
            let (placement, _) = tvp_core::global::place(
                netlist,
                &chip,
                &model,
                &config,
                &[],
                false,
                &mut StageRun::default(),
            );
            let global_ms = t.elapsed().as_secs_f64() * 1e3;
            let mut row = format!(
                "{{\"threads\": {threads}, \"stages\": \"{}\", \"global_ms\": {global_ms:.1}",
                stages
                    .iter()
                    .map(|s| s.name())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            if stages.contains(&Stage::Coarse) {
                let mut objective = IncrementalObjective::new(netlist, &model, placement);
                let mut shift_passes = 0usize;
                let t = Instant::now();
                tvp_core::coarse::legalize(
                    &mut objective,
                    netlist,
                    &chip,
                    &config,
                    &mut StageRun::observed(&mut |p| {
                        if matches!(p, PassEvent::ShiftPass { .. }) {
                            shift_passes += 1;
                        }
                        std::ops::ControlFlow::Continue(())
                    }),
                );
                let _ = write!(
                    row,
                    ", \"coarse_ms\": {:.1}, \"shift_passes\": {shift_passes}",
                    t.elapsed().as_secs_f64() * 1e3
                );
            }
            row.push('}');
            row
        }
        // An explicit full prefix overrides the size cutoff; the default
        // policy places only up to `SCALE_PLACE_MAX`.
        Some(_) => placer_row(&assembled.netlist, threads),
        None if cells <= SCALE_PLACE_MAX => placer_row(&assembled.netlist, threads),
        None => "null".to_string(),
    };

    fn placer_row(netlist: &Netlist, threads: usize) -> String {
        /// Counts cell-shifting passes from the event stream (the
        /// convergence-adaptive spread makes the count a scaling signal).
        #[derive(Default)]
        struct ShiftPassCounter(usize);
        impl PlacerObserver for ShiftPassCounter {
            fn event(&mut self, event: &PlacerEvent) {
                if matches!(
                    event,
                    PlacerEvent::Pass {
                        pass: PassEvent::ShiftPass { .. },
                        ..
                    }
                ) {
                    self.0 += 1;
                }
            }
        }
        {
            let placer = Placer::new(
                PlacerConfig::new(4)
                    .with_partition_starts(4)
                    .with_threads(threads),
            );
            let mut counter = ShiftPassCounter::default();
            let t = Instant::now();
            let result = placer
                .place_with_options(
                    netlist,
                    &[],
                    PlaceOptions {
                        observer: Some(&mut counter),
                        ..PlaceOptions::default()
                    },
                )
                .expect("places");
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            format!(
                "{{\"threads\": {threads}, \"wall_ms\": {wall_ms:.1}, \"global_ms\": {:.1}, \"coarse_ms\": {:.1}, \"detail_ms\": {:.1}, \"shift_passes\": {}}}",
                result.timings.global.as_secs_f64() * 1e3,
                result.timings.coarse.as_secs_f64() * 1e3,
                result.timings.detail.as_secs_f64() * 1e3,
                counter.0,
            )
        }
    }

    format!(
        "{{\"cells\": {cells}, \"nets\": {num_nets}, \"pins\": {num_pins}, \"synth_ms\": {synth_ms:.1}, \"write_ms\": {write_ms:.1}, \"parse_ms\": {parse_ms:.1}, \"build_ms\": {build_ms:.1}, \"place\": {place}, \"peak_rss_mb\": {:.1}}}",
        peak_rss_mb()
    )
}

fn json_threads_ms(entries: &[(usize, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (threads, ms)) in entries.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{threads}\": {ms:.3}");
    }
    s.push('}');
    s
}

fn main() {
    let opts = parse_options();
    if let Some(cells) = opts.scale_one {
        println!("{}", scale_row_json(cells, opts.stages.as_deref()));
        return;
    }
    let kernel_cells = opts.cells[0];
    let thread_counts: &[usize] = if opts.smoke { &[1] } else { &[1, 2, 4] };
    // The physical core count, straight from the OS: the honest
    // denominator for every multi-thread row in the report.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("hotpaths: {hw} hardware thread(s), sweeping {thread_counts:?}");

    // --- Thermal solve: cold vs warm, per thread count -------------------
    let layers = 4usize;
    let sim = ThermalSimulator::new(
        LayerStack::mitll_0_18um(layers),
        1e-3,
        1e-3,
        opts.grid,
        opts.grid,
    )
    .expect("valid geometry");
    let base = dense_power(opts.grid, layers, 1.0);
    let drifted = dense_power(opts.grid, layers, 1.02);

    let mut thermal_cold = Vec::new();
    for &threads in thread_counts {
        let ms = tvp_parallel::with_threads(threads, || {
            time_ms(opts.repeats, || sim.solve(&base).expect("converges"))
        });
        thermal_cold.push((threads, ms));
    }
    let mut ctx = sim.context();
    sim.solve_with(&base, &mut ctx).expect("converges");
    let cold_iterations = ctx.last_stats().expect("solved").iterations;
    let warm_ms = time_ms(opts.repeats, || {
        sim.solve_with(&drifted, &mut ctx).expect("converges")
    });
    let warm_iterations = ctx.last_stats().expect("solved").iterations;

    // --- Thermal grid scaling: multigrid vs Jacobi preconditioning -------
    // Cold solves at growing grid sizes. The multigrid column is the
    // headline: its iteration count should stay nearly flat as the grid
    // grows while Jacobi's climbs with the mesh diameter.
    struct ScalingRow {
        nx: usize,
        layers: usize,
        mg_iterations: usize,
        mg_cold_ms: f64,
        mg_setup_ms: f64,
        mg_levels: usize,
        jacobi_iterations: usize,
        jacobi_cold_ms: f64,
    }
    let scaling_grids: &[(usize, usize)] = if opts.smoke {
        &[(32, 4), (64, 8)]
    } else {
        &[(32, 4), (64, 8), (96, 8), (128, 8), (192, 8)]
    };
    let mut scaling = Vec::new();
    for &(nx, nl) in scaling_grids {
        let sim = ThermalSimulator::new(LayerStack::mitll_0_18um(nl), 1e-3, 1e-3, nx, nx)
            .expect("valid geometry");
        let power = dense_power(nx, nl, 1.0);
        let mut mg_ctx = sim.context_with(Preconditioner::default());
        let mg_cold_ms = time_ms(opts.repeats.min(3), || {
            mg_ctx.reset();
            sim.solve_with(&power, &mut mg_ctx).expect("converges")
        });
        let mg_iterations = mg_ctx.last_stats().expect("solved").iterations;
        let mut jac_ctx = sim.context_with(Preconditioner::Jacobi);
        let jacobi_cold_ms = time_ms(opts.repeats.min(3), || {
            jac_ctx.reset();
            sim.solve_with(&power, &mut jac_ctx).expect("converges")
        });
        scaling.push(ScalingRow {
            nx,
            layers: nl,
            mg_iterations,
            mg_cold_ms,
            mg_setup_ms: mg_ctx.setup_seconds() * 1e3,
            mg_levels: mg_ctx.multigrid_levels().unwrap_or(0),
            jacobi_iterations: jac_ctx.last_stats().expect("solved").iterations,
            jacobi_cold_ms,
        });
    }

    // --- Objective rebuild + netweight, per thread count -----------------
    let netlist = generate(&SynthConfig::named(
        "hot",
        kernel_cells,
        kernel_cells as f64 * 5.0e-12,
    ))
    .expect("synth");
    let config = PlacerConfig::new(layers).with_alpha_temp(1.0e-4);
    let chip = Chip::from_netlist(&netlist, &config).expect("chip");
    let model = ObjectiveModel::new(&netlist, &chip, &config).expect("model");
    let placement = Placement::centered(netlist.num_cells(), &chip);
    let mut objective = IncrementalObjective::new(&netlist, &model, placement.clone());

    let mut rebuild = Vec::new();
    let mut netweight = Vec::new();
    for &threads in thread_counts {
        tvp_parallel::with_threads(threads, || {
            rebuild.push((threads, time_ms(opts.repeats, || objective.rebuild())));
            netweight.push((
                threads,
                time_ms(opts.repeats, || {
                    NetWeights::thermal(&netlist, &model, &placement)
                }),
            ));
        });
    }

    // --- Delta engine: move/swap pricing and commit kernels --------------
    // WL + ILV model (the default pipeline configuration, where pricing
    // takes the allocation-free probe fast path), scattered placement so
    // every probe crosses real geometry. The rescan rows time the same
    // probe pattern through `delta_move_rescan` — the pre-delta-engine
    // full-bbox-rescan kernel — giving a live speedup denominator.
    let pricing_config = PlacerConfig::new(layers);
    let pricing_model =
        ObjectiveModel::new(&netlist, &chip, &pricing_config).expect("pricing model");
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let scattered = scattered_placement(&netlist, &chip, &mut rng);
    let pricing_obj = IncrementalObjective::new(&netlist, &pricing_model, scattered.clone());

    let num_probes = if opts.smoke { 10_000 } else { 100_000 };
    let probes: Vec<(CellId, f64, f64, u16)> = (0..num_probes)
        .map(|_| {
            (
                CellId::new(rng.random_range(0..netlist.num_cells())),
                rng.random_range(0.0..chip.width),
                rng.random_range(0.0..chip.depth),
                rng.random_range(0..chip.num_layers as u16),
            )
        })
        .collect();
    let pairs: Vec<(CellId, CellId)> = (0..num_probes / 5)
        .map(|_| {
            let a = rng.random_range(0..netlist.num_cells());
            let mut b = rng.random_range(0..netlist.num_cells());
            if b == a {
                b = (b + 1) % netlist.num_cells();
            }
            (CellId::new(a), CellId::new(b))
        })
        .collect();

    let move_ns = time_ns_per_op(opts.repeats, probes.len(), || {
        probes
            .iter()
            .map(|&(c, x, y, l)| pricing_obj.delta_move(c, x, y, l))
            .sum()
    });
    let move_rescan_ns = time_ns_per_op(opts.repeats, probes.len(), || {
        probes
            .iter()
            .map(|&(c, x, y, l)| pricing_obj.delta_move_rescan(c, x, y, l))
            .sum()
    });
    let swap_ns = time_ns_per_op(opts.repeats, pairs.len(), || {
        pairs
            .iter()
            .map(|&(a, b)| pricing_obj.delta_swap(a, b))
            .sum()
    });
    // The mutate-and-revert swap this engine replaces did four commits
    // (two to stage the swap, two to undo it), each costing at least one
    // full-rescan probe; four rescan probes per pair is therefore a
    // conservative lower bound on the replaced kernel.
    let swap_rescan_ns = time_ns_per_op(opts.repeats, pairs.len(), || {
        pairs
            .iter()
            .map(|&(a, b)| {
                let (bx, by, bl) = pricing_obj.placement().position(b);
                let (ax, ay, al) = pricing_obj.placement().position(a);
                pricing_obj.delta_move_rescan(a, bx, by, bl)
                    + pricing_obj.delta_move_rescan(b, ax, ay, al)
                    + pricing_obj.delta_move_rescan(a, ax, ay, al)
                    + pricing_obj.delta_move_rescan(b, bx, by, bl)
            })
            .sum()
    });
    let mut commit_ns = f64::INFINITY;
    for _ in 0..opts.repeats.max(1) {
        let mut o = IncrementalObjective::new(&netlist, &pricing_model, scattered.clone());
        let t = Instant::now();
        let mut acc = 0.0;
        for &(c, x, y, l) in &probes {
            acc += o.apply_move(c, x, y, l);
        }
        std::hint::black_box(acc);
        commit_ns = commit_ns.min(t.elapsed().as_nanos() as f64 / probes.len() as f64);
    }

    let hf_cells = 256usize;
    let hf = high_fanout_netlist(hf_cells);
    let hf_chip = Chip::from_netlist(&hf, &pricing_config).expect("hf chip");
    let hf_model = ObjectiveModel::new(&hf, &hf_chip, &pricing_config).expect("hf model");
    let hf_scattered = scattered_placement(&hf, &hf_chip, &mut rng);
    let hf_obj = IncrementalObjective::new(&hf, &hf_model, hf_scattered);
    let hf_probes: Vec<(CellId, f64, f64, u16)> = (0..num_probes / 5)
        .map(|_| {
            (
                CellId::new(1 + rng.random_range(0..hf.num_cells() - 1)),
                rng.random_range(0.0..hf_chip.width),
                rng.random_range(0.0..hf_chip.depth),
                rng.random_range(0..hf_chip.num_layers as u16),
            )
        })
        .collect();
    let hf_ns = time_ns_per_op(opts.repeats, hf_probes.len(), || {
        hf_probes
            .iter()
            .map(|&(c, x, y, l)| hf_obj.delta_move(c, x, y, l))
            .sum()
    });
    let hf_rescan_ns = time_ns_per_op(opts.repeats, hf_probes.len(), || {
        hf_probes
            .iter()
            .map(|&(c, x, y, l)| hf_obj.delta_move_rescan(c, x, y, l))
            .sum()
    });

    let pricing_rows = [
        PricingRow {
            name: "move_pricing",
            ns_per_op: move_ns,
            rescan_ns_per_op: Some(move_rescan_ns),
        },
        PricingRow {
            name: "swap_pricing",
            ns_per_op: swap_ns,
            rescan_ns_per_op: Some(swap_rescan_ns),
        },
        PricingRow {
            name: "commit",
            ns_per_op: commit_ns,
            rescan_ns_per_op: None,
        },
        PricingRow {
            name: "high_fanout_move_pricing",
            ns_per_op: hf_ns,
            rescan_ns_per_op: Some(hf_rescan_ns),
        },
    ];

    // --- Tiered thermal oracle: compact fit gate + pricing throughput ----
    // Fit the compact superposition model in-tree against the multigrid
    // ground truth (exactly what `CompactModel::fit` does inside the
    // placer), gate the fit error, and time the compact per-move price —
    // two frozen-field probes — against the coarse-grid warm multigrid
    // solve it replaces in the legalization inner loop.
    let (oracle_nx, oracle_ny) = compact_params::CANONICAL_GRID;
    let oracle_sim = ThermalSimulator::new(
        LayerStack::mitll_0_18um(layers),
        1e-3,
        1e-3,
        oracle_nx,
        oracle_ny,
    )
    .expect("valid geometry");
    let (compact, fit) =
        CompactModel::fit(&oracle_sim, Preconditioner::default()).expect("compact fit");
    let fit_within_gate = fit.max_rel_error <= compact_params::CROSS_MODEL_GATE;

    let frozen = compact
        .evaluate(&dense_power(oracle_nx, layers, 1.0))
        .expect("compact evaluate");
    let oracle_probes: Vec<(f64, f64, usize, f64, f64, usize)> = (0..num_probes)
        .map(|_| {
            (
                rng.random_range(0.0..1e-3),
                rng.random_range(0.0..1e-3),
                rng.random_range(0..layers),
                rng.random_range(0.0..1e-3),
                rng.random_range(0.0..1e-3),
                rng.random_range(0..layers),
            )
        })
        .collect();
    let price_move_ns = time_ns_per_op(opts.repeats, oracle_probes.len(), || {
        oracle_probes
            .iter()
            .map(|&(fx, fy, fl, tx, ty, tl)| {
                frozen.sample(tx, ty, tl, 1e-3, 1e-3) - frozen.sample(fx, fy, fl, 1e-3, 1e-3)
            })
            .sum()
    });

    // Warm coarse-grid denominator: alternate two power maps 2% apart so
    // every timed solve is a genuine drift solve, never a no-op repeat.
    let coarse_nx = 8usize;
    let coarse_sim = ThermalSimulator::new(
        LayerStack::mitll_0_18um(layers),
        1e-3,
        1e-3,
        coarse_nx,
        coarse_nx,
    )
    .expect("valid geometry");
    let coarse_maps = [
        dense_power(coarse_nx, layers, 1.0),
        dense_power(coarse_nx, layers, 1.02),
    ];
    let mut coarse_ctx = coarse_sim.context_with(Preconditioner::default());
    coarse_sim
        .solve_with(&coarse_maps[0], &mut coarse_ctx)
        .expect("converges");
    let mut coarse_warm_ns = f64::INFINITY;
    for rep in 0..(2 * opts.repeats).max(2) {
        let t = Instant::now();
        coarse_sim
            .solve_with(&coarse_maps[1 - rep % 2], &mut coarse_ctx)
            .expect("converges");
        coarse_warm_ns = coarse_warm_ns.min(t.elapsed().as_nanos() as f64);
    }
    let pricing_speedup = coarse_warm_ns / price_move_ns;

    // --- Multi-start bisection, per thread count -------------------------
    let mut hg = Hypergraph::new(kernel_cells);
    let n = kernel_cells as u32;
    for i in 0..n {
        hg.add_net(&[i, (i + 1) % n], 1.0);
        hg.add_net(&[i, (i * 7 + 13) % n], 1.0);
    }
    hg.finalize();
    let bisect_config = BisectConfig::default().with_starts(8);
    let free = vec![FixedSide::Free; hg.num_vertices()];
    let mut bisection = Vec::new();
    for &threads in thread_counts {
        let ms = tvp_parallel::with_threads(threads, || {
            time_ms(opts.repeats, || bisect(&hg, &free, &bisect_config, None))
        });
        bisection.push((threads, ms));
    }

    // --- Full pipeline, per thread count ---------------------------------
    let mut pipeline = Vec::new();
    let mut trajectory_iters: Vec<(usize, bool)> = Vec::new();
    for &threads in thread_counts {
        let placer = Placer::new(
            PlacerConfig::new(layers)
                .with_partition_starts(4)
                .with_threads(threads),
        );
        let ms = time_ms(opts.repeats.min(3), || {
            let result = placer.place(&netlist).expect("places");
            if threads == 1 {
                trajectory_iters = result
                    .thermal_trajectory
                    .iter()
                    .map(|s| (s.cg_iterations, s.warm_started))
                    .collect();
            }
            result
        });
        pipeline.push((threads, ms));
    }

    // --- Parallel scaling: per-stage walls and bisection sub-phases ------
    // The placer's own stage clocks give each stage's wall per thread
    // count; speedups are measured against this sweep's threads=1 row.
    // Rows asking for more workers than the host has cores are annotated
    // rather than silently published (they measure scheduling overhead,
    // not speedup).
    struct StageWall {
        threads: usize,
        total_ms: f64,
        global_ms: f64,
        coarse_ms: f64,
        detail_ms: f64,
    }
    let parallel_threads: &[usize] = if opts.smoke { &[1] } else { &[1, 2, 4, 8] };
    let mut stage_walls: Vec<StageWall> = Vec::new();
    for &threads in parallel_threads {
        let placer = Placer::new(
            PlacerConfig::new(layers)
                .with_partition_starts(4)
                .with_threads(threads),
        );
        let mut best: Option<StageWall> = None;
        for _ in 0..opts.repeats.clamp(1, 3) {
            let result = placer.place(&netlist).expect("places");
            let w = StageWall {
                threads,
                total_ms: result.timings.total.as_secs_f64() * 1e3,
                global_ms: result.timings.global.as_secs_f64() * 1e3,
                coarse_ms: result.timings.coarse.as_secs_f64() * 1e3,
                detail_ms: result.timings.detail.as_secs_f64() * 1e3,
            };
            if best.as_ref().is_none_or(|b| w.total_ms < b.total_ms) {
                best = Some(w);
            }
        }
        stage_walls.push(best.expect("at least one repeat"));
    }
    // Bisection sub-phases on the same kernel hypergraph, via the serial
    // profiled entry point (starts run back-to-back so phase clocks don't
    // overlap).
    let (_, bisect_profile) = bisect_fixed_profiled(&hg, &free, &bisect_config);

    // --- Scaling sweep: one fresh child process per cell count -----------
    let mut scale_rows: Vec<String> = Vec::new();
    let exe = std::env::current_exe().expect("current exe");
    for &cells in &opts.cells {
        eprintln!("hotpaths: scaling sweep at {cells} cells...");
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--scale-one").arg(cells.to_string());
        if let Some(stages) = &opts.stages {
            cmd.arg("--stages").arg(
                stages
                    .iter()
                    .map(|s| s.name())
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        let row = match cmd.output() {
            Ok(out) if out.status.success() => {
                String::from_utf8_lossy(&out.stdout).trim().to_string()
            }
            _ => {
                // Sandboxes that forbid self-exec still get a row, but the
                // RSS reading is then cumulative across sweep sizes.
                eprintln!("hotpaths: child spawn failed, running {cells} in-process");
                scale_row_json(cells, opts.stages.as_deref())
            }
        };
        scale_rows.push(row);
    }

    // --- Report ----------------------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"harness\": \"hotpaths\",");
    let _ = writeln!(json, "  \"hardware_threads\": {hw},");
    if hw > 1 {
        let _ = writeln!(
            json,
            "  \"note\": \"wall times are best-of-{} ms; hardware_threads = {hw}, so ms_by_threads columns up to {hw} workers measure real parallel speedup (columns beyond that add only scheduling overhead); results are verified identical across thread counts by the test suite\",",
            opts.repeats
        );
    } else {
        let _ = writeln!(
            json,
            "  \"note\": \"wall times are best-of-{} ms; with hardware_threads = 1 a multi-worker run can only measure scheduling overhead, not speedup — results are verified identical across thread counts by the test suite\",",
            opts.repeats
        );
    }
    let _ = writeln!(
        json,
        "  \"thread_counts\": [{}],",
        thread_counts
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"thermal_solve\": {{");
    let _ = writeln!(json, "    \"grid\": \"{0}x{0}x{1}\",", opts.grid, layers);
    let _ = writeln!(
        json,
        "    \"cold_ms_by_threads\": {},",
        json_threads_ms(&thermal_cold)
    );
    let _ = writeln!(json, "    \"cold_cg_iterations\": {cold_iterations},");
    let _ = writeln!(json, "    \"warm_2pct_drift_ms\": {warm_ms:.3},");
    let _ = writeln!(
        json,
        "    \"warm_2pct_drift_cg_iterations\": {warm_iterations}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"thermal_scaling\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"cold-solve comparison of the two CG preconditioners; multigrid iteration counts stay nearly flat as the grid grows while Jacobi's climb with the mesh diameter; setup_ms is the one-time hierarchy build, amortized across every warm solve of a placement run\","
    );
    let _ = writeln!(json, "    \"grids\": [");
    for (i, row) in scaling.iter().enumerate() {
        let comma = if i + 1 < scaling.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"grid\": \"{0}x{0}x{1}\", \"multigrid\": {{\"cg_iterations\": {2}, \"cold_ms\": {3:.3}, \"setup_ms\": {4:.3}, \"levels\": {5}}}, \"jacobi\": {{\"cg_iterations\": {6}, \"cold_ms\": {7:.3}}}, \"iteration_ratio\": {8:.1}}}{comma}",
            row.nx,
            row.layers,
            row.mg_iterations,
            row.mg_cold_ms,
            row.mg_setup_ms,
            row.mg_levels,
            row.jacobi_iterations,
            row.jacobi_cold_ms,
            row.jacobi_iterations as f64 / row.mg_iterations as f64
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"objective_rebuild\": {{");
    let _ = writeln!(json, "    \"cells\": {},", kernel_cells);
    let _ = writeln!(json, "    \"nets\": {},", netlist.num_nets());
    let _ = writeln!(json, "    \"ms_by_threads\": {}", json_threads_ms(&rebuild));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"netweight\": {{");
    let _ = writeln!(json, "    \"nets\": {},", netlist.num_nets());
    let _ = writeln!(
        json,
        "    \"ms_by_threads\": {}",
        json_threads_ms(&netweight)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"delta_pricing\": {{");
    let _ = writeln!(json, "    \"cells\": {},", kernel_cells);
    let _ = writeln!(json, "    \"probes\": {num_probes},");
    let _ = writeln!(json, "    \"high_fanout_cells\": {hf_cells},");
    let _ = writeln!(
        json,
        "    \"note\": \"ns per op, WL+ILV model (default pipeline config); rescan rows run the same probe pattern through the pre-delta-engine full-bbox-rescan kernel (delta_move_rescan) as a live speedup denominator; the swap denominator is four rescan probes per pair, a lower bound on the mutate-and-revert swap (four commits) it replaces\","
    );
    for (i, row) in pricing_rows.iter().enumerate() {
        let comma = if i + 1 < pricing_rows.len() { "," } else { "" };
        match row.rescan_ns_per_op {
            Some(rescan) => {
                let _ = writeln!(
                    json,
                    "    \"{}\": {{\"ns_per_op\": {:.1}, \"rescan_ns_per_op\": {:.1}, \"speedup\": {:.1}}}{comma}",
                    row.name,
                    row.ns_per_op,
                    rescan,
                    rescan / row.ns_per_op
                );
            }
            None => {
                let _ = writeln!(
                    json,
                    "    \"{}\": {{\"ns_per_op\": {:.1}}}{comma}",
                    row.name, row.ns_per_op
                );
            }
        }
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"thermal_oracle\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"compact superposition tier fitted in-tree against the multigrid ground truth; fit errors are relative to the peak impulse-response rise and gated at {}; price_move_ns is two frozen-field probes (what the legalization loops pay per candidate with the compact tier), coarse_warm_solve_ns the {coarse_nx}x{coarse_nx}x{layers} warm multigrid solve it replaces\",",
        compact_params::CROSS_MODEL_GATE
    );
    let _ = writeln!(
        json,
        "    \"fit_grid\": \"{oracle_nx}x{oracle_ny}x{layers}\","
    );
    let _ = writeln!(json, "    \"fit\": {{\"max_rel_error\": {:.4}, \"avg_rel_error\": {:.4}, \"solves\": {}, \"gate\": {}, \"within_gate\": {fit_within_gate}}},", fit.max_rel_error, fit.avg_rel_error, fit.solves, compact_params::CROSS_MODEL_GATE);
    let _ = writeln!(json, "    \"price_move_ns\": {price_move_ns:.1},");
    let _ = writeln!(json, "    \"coarse_warm_solve_ns\": {coarse_warm_ns:.0},");
    let _ = writeln!(
        json,
        "    \"pricing_speedup_vs_coarse_warm_solve\": {pricing_speedup:.0}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"bisection\": {{");
    let _ = writeln!(json, "    \"vertices\": {},", kernel_cells);
    let _ = writeln!(json, "    \"starts\": 8,");
    let _ = writeln!(
        json,
        "    \"ms_by_threads\": {}",
        json_threads_ms(&bisection)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"pipeline\": {{");
    let _ = writeln!(json, "    \"cells\": {},", kernel_cells);
    let _ = writeln!(json, "    \"partition_starts\": 4,");
    let _ = writeln!(
        json,
        "    \"ms_by_threads\": {},",
        json_threads_ms(&pipeline)
    );
    let traj: Vec<String> = trajectory_iters
        .iter()
        .map(|(iters, warm)| format!("{{\"cg_iterations\": {iters}, \"warm_started\": {warm}}}"))
        .collect();
    let _ = writeln!(json, "    \"thermal_trajectory\": [{}]", traj.join(", "));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"parallel_scaling\": {{");
    let _ = writeln!(json, "    \"cells\": {kernel_cells},");
    let _ = writeln!(
        json,
        "    \"note\": \"per-stage wall times from the placer's stage clocks, best-of-{}; speedup_* divides this sweep's threads=1 wall by the row's wall; rows with threads > hardware_threads ({hw} on this host) are annotated hw_limited: true — they can only measure scheduling overhead, never speedup, and are published for completeness because results are verified bitwise identical across thread counts by the test suite\",",
        opts.repeats.clamp(1, 3)
    );
    let _ = writeln!(json, "    \"stage_walls\": [");
    let base = &stage_walls[0];
    for (i, w) in stage_walls.iter().enumerate() {
        let comma = if i + 1 < stage_walls.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"threads\": {}, \"hw_limited\": {}, \"total_ms\": {:.1}, \"global_ms\": {:.1}, \"coarse_ms\": {:.1}, \"detail_ms\": {:.1}, \"speedup_total\": {:.2}, \"speedup_global\": {:.2}, \"speedup_coarse\": {:.2}}}{comma}",
            w.threads,
            w.threads > hw,
            w.total_ms,
            w.global_ms,
            w.coarse_ms,
            w.detail_ms,
            base.total_ms / w.total_ms,
            base.global_ms / w.global_ms,
            base.coarse_ms / w.coarse_ms,
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"bisection_subphases\": {{");
    let _ = writeln!(json, "      \"vertices\": {},", kernel_cells);
    let _ = writeln!(json, "      \"starts\": 8,");
    let _ = writeln!(
        json,
        "      \"note\": \"serial profiled run; times are summed across all starts; per_level depth 0 is the input graph, higher depths its contractions\","
    );
    let _ = writeln!(
        json,
        "      \"coarsen_ms\": {:.3}, \"initial_ms\": {:.3}, \"fm_refine_ms\": {:.3}, \"levels\": {},",
        bisect_profile.coarsen_ms,
        bisect_profile.initial_ms,
        bisect_profile.refine_ms,
        bisect_profile.levels
    );
    let _ = writeln!(json, "      \"per_level\": [");
    for (d, lvl) in bisect_profile.per_level.iter().enumerate() {
        let comma = if d + 1 < bisect_profile.per_level.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "        {{\"depth\": {d}, \"vertices\": {}, \"coarsen_ms\": {:.3}, \"fm_refine_ms\": {:.3}}}{comma}",
            lvl.vertices, lvl.coarsen_ms, lvl.refine_ms
        );
    }
    let _ = writeln!(json, "      ]");
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"scaling\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"each row runs in a fresh process so peak_rss_mb is that size's own high-water mark; parse_ms is a pure token scan through the zero-copy stream readers, build_ms the fused streaming parse+assemble (Design::assemble_streaming); place is null above {SCALE_PLACE_MAX} cells, where only ingest is practical to time\","
    );
    let _ = writeln!(json, "    \"rows\": [");
    for (i, row) in scale_rows.iter().enumerate() {
        let comma = if i + 1 < scale_rows.len() { "," } else { "" };
        let _ = writeln!(json, "      {row}{comma}");
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::write(&opts.out, &json).expect("write report");
    println!("{json}");
    eprintln!("hotpaths: wrote {}", opts.out);

    // CI gates (checked after the report is written so the artifact
    // survives a failure for inspection).
    if !fit_within_gate {
        eprintln!(
            "hotpaths: FAIL: compact fit max_rel_error {:.4} exceeds gate {}",
            fit.max_rel_error,
            compact_params::CROSS_MODEL_GATE
        );
        std::process::exit(1);
    }
    if pricing_speedup < 100.0 {
        eprintln!(
            "hotpaths: FAIL: compact pricing is only {pricing_speedup:.0}x the coarse-grid \
             warm solve (acceptance floor is 100x)"
        );
        std::process::exit(1);
    }
}
