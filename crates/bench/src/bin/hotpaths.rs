//! Hot-path timing harness: measures the three parallelized engines
//! (thermal CG solve, objective rebuild, recursive bisection) across a
//! thread sweep, the warm-start savings, and the incremental delta
//! engine's move/swap pricing and commit kernels, and writes the results
//! as machine-readable JSON (`BENCH_hotpaths.json` by default). A
//! `scaling` sweep rounds out the report: per cell count (one fresh
//! process each) it times synth, Bookshelf render, zero-copy parse,
//! streaming netlist assembly, and — where practical — the full
//! placement pipeline, alongside that size's peak RSS and each stage's
//! live-heap peak.
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
use std::time::Instant;
use tvp_bookshelf::synth::{generate, SynthConfig};
use tvp_bookshelf::{stream, write_nets, write_nodes, write_wts, Design, DesignBuilderOptions};
use tvp_core::json::{obj, s, Value};
use tvp_core::netweight::NetWeights;
use tvp_core::objective::{IncrementalObjective, ObjectiveModel};
use tvp_core::{
    Chip, PassEvent, PlaceOptions, Placement, Placer, PlacerConfig, PlacerEvent, PlacerObserver,
    StageRun,
};
use tvp_netlist::{CellId, Netlist, NetlistBuilder, PinDirection};
use tvp_partition::{bisect, bisect_fixed_profiled, BisectConfig, FixedSide, Hypergraph};
use tvp_thermal::{LayerStack, PowerMap, Preconditioner, ThermalSimulator};

/// Live-heap accounting for the scaling rows. The allocator forwards to
/// `System` and counts only once [`heap::enable`] ran — which only a
/// `--scale-one` child does — so the kernel sections time the plain
/// system allocator.
mod heap {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

    static COUNTING: AtomicBool = AtomicBool::new(false);
    /// Live bytes allocated since counting began; blocks allocated
    /// before it and freed after drive it (slightly) negative.
    static LIVE: AtomicIsize = AtomicIsize::new(0);
    static PEAK: AtomicIsize = AtomicIsize::new(0);

    pub struct Counting;

    fn grow(bytes: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }

    fn shrink(bytes: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
        }
    }

    // SAFETY: every call forwards to `System` with the caller's
    // arguments; the counters only observe sizes.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc_zeroed(layout);
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            shrink(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let new = System.realloc(ptr, layout, new_size);
            if !new.is_null() {
                if new_size >= layout.size() {
                    grow(new_size - layout.size());
                } else {
                    shrink(layout.size() - new_size);
                }
            }
            new
        }
    }

    /// Starts counting live bytes.
    pub fn enable() {
        COUNTING.store(true, Ordering::Relaxed);
    }

    /// The live-heap high-water mark since the last reset, bytes.
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed).max(0) as usize
    }

    /// Restarts the high-water mark from the current live bytes and
    /// returns the mark it replaces.
    pub fn reset_peak() -> usize {
        let peak = peak();
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
        peak
    }
}

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

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

/// Parses the command line (without the program name). `--smoke` lowers
/// the default repeat count to 2; an explicit `--repeats` wins in either
/// order.
fn parse_options(args: impl IntoIterator<Item = String>) -> Options {
    let mut repeats = None;
    let mut opts = Options {
        out: "BENCH_hotpaths.json".to_string(),
        cells: vec![1_000],
        repeats: 5,
        grid: 32,
        smoke: false,
        scale_one: None,
        stages: None,
    };
    let mut it = args.into_iter();
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
            "--repeats" => {
                repeats = Some(value().parse().expect("--repeats expects an integer"));
            }
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
    opts.repeats = repeats.unwrap_or(if opts.smoke { 2 } else { opts.repeats });
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

/// Targets per cell in the `batch_move_pricing` row: about one local
/// pass's candidate count (26 neighbour bins, a move and a swap each).
const BATCH_TARGETS: usize = 64;

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
/// JSON object.
///
/// With `stages` set, the row instead runs exactly that prefix of the
/// pipeline (`global`, then `coarse`, then `detail`) through the
/// stage entry points, timing each — this is how the million-cell row
/// times the global stage without paying for the rest. A full
/// three-stage prefix still goes through [`Placer`] so its timings
/// match the production path.
///
/// Either way the placement object carries `heap_peak_mb`, each stage's
/// live-heap high-water mark (the count restarts at every stage begin),
/// and `bytes_per_cell`, the placement's overall live-heap peak per cell.
///
/// Meant to run in a fresh process (`--scale-one`) so the reported peak
/// RSS belongs to this size alone.
fn scale_row(cells: usize, stages: Option<&[Stage]>) -> Value {
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
            heap::reset_peak();
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
            // As in `Placer`, global's heap window ends with the evaluator
            // built from its placement.
            let objective = stages
                .contains(&Stage::Coarse)
                .then(|| IncrementalObjective::new(netlist, &model, placement));
            let mut heap_peaks = vec![("global".to_string(), heap::reset_peak())];
            let mut row = vec![
                ("threads", uint(threads)),
                ("stages", s(stage_list(stages))),
                ("global_ms", Value::Num(global_ms)),
            ];
            if let Some(mut objective) = objective {
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
                row.push(("coarse_ms", Value::Num(t.elapsed().as_secs_f64() * 1e3)));
                row.push(("shift_passes", uint(shift_passes)));
                heap_peaks.push(("coarse".to_string(), heap::reset_peak()));
            }
            let run_peak = heap_peaks.iter().map(|&(_, b)| b).max().unwrap_or(0);
            row.extend(heap_fields(&heap_peaks, run_peak, cells));
            obj(row)
        }
        // An explicit full prefix overrides the size cutoff; the default
        // policy places only up to `SCALE_PLACE_MAX`.
        Some(_) => placer_row(&assembled.netlist, threads),
        None if cells <= SCALE_PLACE_MAX => placer_row(&assembled.netlist, threads),
        None => Value::Null,
    };

    fn placer_row(netlist: &Netlist, threads: usize) -> Value {
        /// Counts cell-shifting passes from the event stream (the
        /// convergence-adaptive spread makes the count a scaling signal)
        /// and takes each stage's live-heap peak.
        #[derive(Default)]
        struct RowObserver {
            shift_passes: usize,
            heap_peaks: Vec<(String, usize)>,
            /// The highest mark any reset replaced.
            run_peak: usize,
        }
        impl PlacerObserver for RowObserver {
            fn event(&mut self, event: &PlacerEvent) {
                match event {
                    PlacerEvent::Pass {
                        pass: PassEvent::ShiftPass { .. },
                        ..
                    } => self.shift_passes += 1,
                    PlacerEvent::StageBegin { .. } => {
                        self.run_peak = self.run_peak.max(heap::reset_peak());
                    }
                    PlacerEvent::StageEnd { stage, .. } => {
                        self.heap_peaks.push((stage.clone(), heap::peak()));
                    }
                    _ => {}
                }
            }
        }
        {
            let placer = Placer::new(
                PlacerConfig::new(4)
                    .with_partition_starts(4)
                    .with_threads(threads),
            );
            let mut observer = RowObserver::default();
            heap::reset_peak();
            let t = Instant::now();
            let result = placer
                .place_with_options(
                    netlist,
                    &[],
                    PlaceOptions {
                        observer: Some(&mut observer),
                        ..PlaceOptions::default()
                    },
                )
                .expect("places");
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let run_peak = observer.run_peak.max(heap::peak());
            let ms = |d: std::time::Duration| Value::Num(d.as_secs_f64() * 1e3);
            let mut row = vec![
                ("threads", uint(threads)),
                ("wall_ms", Value::Num(wall_ms)),
                ("global_ms", ms(result.timings.global)),
                ("coarse_ms", ms(result.timings.coarse)),
                ("detail_ms", ms(result.timings.detail)),
                ("shift_passes", uint(observer.shift_passes)),
            ];
            row.extend(heap_fields(
                &observer.heap_peaks,
                run_peak,
                netlist.num_cells(),
            ));
            obj(row)
        }
    }

    obj(vec![
        ("cells", uint(cells)),
        ("nets", uint(num_nets)),
        ("pins", uint(num_pins)),
        ("synth_ms", Value::Num(synth_ms)),
        ("write_ms", Value::Num(write_ms)),
        ("parse_ms", Value::Num(parse_ms)),
        ("build_ms", Value::Num(build_ms)),
        ("place", place),
        ("peak_rss_mb", Value::Num(peak_rss_mb())),
    ])
}

/// The heap fields of a scaling row's placement object: each stage's
/// live-heap peak in MB and the run's peak in bytes per cell.
fn heap_fields(
    stage_peaks: &[(String, usize)],
    run_peak: usize,
    cells: usize,
) -> [(&'static str, Value); 2] {
    let mb = stage_peaks
        .iter()
        .map(|(stage, bytes)| (stage.clone(), Value::Num(*bytes as f64 / (1024.0 * 1024.0))))
        .collect();
    [
        ("heap_peak_mb", Value::Obj(mb)),
        (
            "bytes_per_cell",
            Value::Num(run_peak as f64 / cells.max(1) as f64),
        ),
    ]
}

fn uint(n: usize) -> Value {
    Value::UInt(n as u64)
}

/// `global,coarse,...`: the `--stages` spelling of a stage prefix.
fn stage_list(stages: &[Stage]) -> String {
    stages
        .iter()
        .map(|st| st.name())
        .collect::<Vec<_>>()
        .join(",")
}

fn main() {
    let opts = parse_options(std::env::args().skip(1));
    if let Some(cells) = opts.scale_one {
        heap::enable();
        println!("{}", scale_row(cells, opts.stages.as_deref()).to_json());
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
        thermal_cold.push((threads.to_string(), Value::Num(ms)));
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
        let jacobi_iterations = jac_ctx.last_stats().expect("solved").iterations;
        scaling.push(obj(vec![
            ("grid", s(format!("{nx}x{nx}x{nl}"))),
            (
                "multigrid",
                obj(vec![
                    ("cg_iterations", uint(mg_iterations)),
                    ("cold_ms", Value::Num(mg_cold_ms)),
                    ("setup_ms", Value::Num(mg_ctx.setup_seconds() * 1e3)),
                    ("levels", uint(mg_ctx.multigrid_levels().unwrap_or(0))),
                ]),
            ),
            (
                "jacobi",
                obj(vec![
                    ("cg_iterations", uint(jacobi_iterations)),
                    ("cold_ms", Value::Num(jacobi_cold_ms)),
                ]),
            ),
            (
                "iteration_ratio",
                Value::Num(jacobi_iterations as f64 / mg_iterations as f64),
            ),
        ]));
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
            let ms = time_ms(opts.repeats, || objective.rebuild());
            rebuild.push((threads.to_string(), Value::Num(ms)));
            let ms = time_ms(opts.repeats, || {
                NetWeights::thermal(&netlist, &model, &placement)
            });
            netweight.push((threads.to_string(), Value::Num(ms)));
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
    // The mutate-and-revert swap this engine replaces did four commits
    // (two to stage the swap, two to undo it), each costing at least one
    // full-rescan probe; four rescan probes per pair is therefore a
    // conservative lower bound on the replaced kernel.
    let swap_row = |obj: &IncrementalObjective<'_>, pairs: &[(CellId, CellId)]| {
        let ns = time_ns_per_op(opts.repeats, pairs.len(), || {
            pairs.iter().map(|&(a, b)| obj.delta_swap(a, b)).sum()
        });
        let rescan_ns = time_ns_per_op(opts.repeats, pairs.len(), || {
            pairs
                .iter()
                .map(|&(a, b)| {
                    let (bx, by, bl) = obj.placement().position(b);
                    let (ax, ay, al) = obj.placement().position(a);
                    obj.delta_move_rescan(a, bx, by, bl)
                        + obj.delta_move_rescan(b, ax, ay, al)
                        + obj.delta_move_rescan(a, ax, ay, al)
                        + obj.delta_move_rescan(b, bx, by, bl)
                })
                .sum()
        });
        (ns, rescan_ns)
    };
    let (swap_ns, swap_rescan_ns) = swap_row(&pricing_obj, &pairs);
    // The coarse moves' own-target batch fold: the same probes in blocks
    // of `BATCH_TARGETS`, each block priced for its first probe's cell in
    // one fold of that cell's probe entries, beside the scalar
    // `delta_move` loop over the same (cell, target) pairs.
    let pricer = &pricing_obj;
    let targets: Vec<(f64, f64, u16)> = probes.iter().map(|&(_, x, y, l)| (x, y, l)).collect();
    let blocks = || {
        probes
            .chunks(BATCH_TARGETS)
            .zip(targets.chunks(BATCH_TARGETS))
            .map(|(block, targets)| (block[0].0, targets))
    };
    let mut sums = vec![0.0; BATCH_TARGETS];
    let batch_ns = time_ns_per_op(opts.repeats, probes.len(), || {
        let mut acc = 0.0;
        for (cell, targets) in blocks() {
            let out = &mut sums[..targets.len()];
            pricer.delta_move_batch(cell, targets, out);
            acc += out.iter().sum::<f64>();
        }
        acc
    });
    let batch_scalar_ns = time_ns_per_op(opts.repeats, probes.len(), || {
        blocks()
            .flat_map(|(cell, targets)| {
                targets
                    .iter()
                    .map(move |&(x, y, l)| pricer.delta_move(cell, x, y, l))
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

    // Thermal pricing: the same probes under the α_TEMP = 1e-4 model,
    // where the probe fold adds Eq. 3's thermal term, beside the rescan
    // kernel over the same probes. Timed after every WL+ILV row, so those
    // run in the same conditions as before this row existed.
    let thermal_obj = IncrementalObjective::new(&netlist, &model, scattered);
    let thermal_ns = time_ns_per_op(opts.repeats, probes.len(), || {
        probes
            .iter()
            .map(|&(c, x, y, l)| thermal_obj.delta_move(c, x, y, l))
            .sum()
    });
    let thermal_rescan_ns = time_ns_per_op(opts.repeats, probes.len(), || {
        probes
            .iter()
            .map(|&(c, x, y, l)| thermal_obj.delta_move_rescan(c, x, y, l))
            .sum()
    });
    // Swaps whose cells share a net, where the second leg folds over the
    // first (the random `pairs` above almost never share one): each pair
    // is a random cell and a random pin cell of one of its nets. Timed
    // after the thermal row, so every earlier row runs as before it.
    let shared_pairs: Vec<(CellId, CellId)> = (0..num_probes / 5)
        .filter_map(|_| {
            let a = CellId::new(rng.random_range(0..netlist.num_cells()));
            let nets: Vec<_> = netlist.cell_nets(a).collect();
            let e = *nets.get(rng.random_range(0..nets.len().max(1)))?;
            let pins = netlist.net_pins(e);
            let b = netlist.pin(pins[rng.random_range(0..pins.len())]).cell();
            (b != a).then_some((a, b))
        })
        .collect();
    let (shared_swap_ns, shared_swap_rescan_ns) = swap_row(&pricing_obj, &shared_pairs);
    // A pricing row beside its rescan denominator and the speedup over it.
    let pricing = |ns_per_op: f64, rescan_ns_per_op: f64| {
        obj(vec![
            ("ns_per_op", Value::Num(ns_per_op)),
            ("rescan_ns_per_op", Value::Num(rescan_ns_per_op)),
            ("speedup", Value::Num(rescan_ns_per_op / ns_per_op)),
        ])
    };

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
        bisection.push((threads.to_string(), Value::Num(ms)));
    }

    // --- Full pipeline, per thread count ---------------------------------
    let mut pipeline = Vec::new();
    let mut trajectory = Vec::new();
    for &threads in thread_counts {
        let placer = Placer::new(
            PlacerConfig::new(layers)
                .with_partition_starts(4)
                .with_threads(threads),
        );
        let ms = time_ms(opts.repeats.min(3), || {
            let result = placer.place(&netlist).expect("places");
            if threads == 1 {
                trajectory = result
                    .thermal_trajectory
                    .iter()
                    .map(|snap| {
                        obj(vec![
                            ("cg_iterations", uint(snap.cg_iterations)),
                            ("warm_started", Value::Bool(snap.warm_started)),
                        ])
                    })
                    .collect();
            }
            result
        });
        pipeline.push((threads.to_string(), Value::Num(ms)));
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
    let mut scale_rows = Vec::new();
    let exe = std::env::current_exe().expect("current exe");
    for &cells in &opts.cells {
        eprintln!("hotpaths: scaling sweep at {cells} cells...");
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--scale-one").arg(cells.to_string());
        if let Some(stages) = &opts.stages {
            cmd.arg("--stages").arg(stage_list(stages));
        }
        let row = match cmd.output() {
            Ok(out) if out.status.success() => {
                Value::parse(String::from_utf8_lossy(&out.stdout).trim())
                    .expect("the child prints one JSON row")
            }
            _ => {
                // Sandboxes that forbid self-exec still get a row, but the
                // RSS reading is then cumulative across sweep sizes.
                eprintln!("hotpaths: child spawn failed, running {cells} in-process");
                scale_row(cells, opts.stages.as_deref())
            }
        };
        scale_rows.push(row);
    }

    // --- Report ----------------------------------------------------------
    let note = if hw > 1 {
        format!(
            "wall times are best-of-{} ms; hardware_threads = {hw}, so ms_by_threads \
             columns up to {hw} workers measure real parallel speedup (columns beyond that \
             add only scheduling overhead); results are verified identical across thread \
             counts by the test suite",
            opts.repeats
        )
    } else {
        format!(
            "wall times are best-of-{} ms; with hardware_threads = 1 a multi-worker run \
             can only measure scheduling overhead, not speedup — results are verified \
             identical across thread counts by the test suite",
            opts.repeats
        )
    };
    let thermal_scaling_note =
        "cold-solve comparison of the two CG preconditioners; multigrid iteration counts \
         stay nearly flat as the grid grows while Jacobi's climb with the mesh diameter; \
         setup_ms is the one-time hierarchy build, amortized across every warm solve of a \
         placement run";
    let pricing_note =
        "ns per op, WL+ILV model (default pipeline config); rescan rows run the same probe \
         pattern through the pre-delta-engine full-bbox-rescan kernel (delta_move_rescan) \
         as a live speedup denominator; the swap denominator is four rescan probes per \
         pair, a lower bound on the mutate-and-revert swap (four commits) it replaces; \
         shared_swap_pricing times delta_swap on pairs of cells that share a net (a cell \
         and a pin cell of one of its nets), beside the same four-rescan denominator; \
         batch_move_pricing is ns per target of IncrementalObjective::delta_move_batch over \
         move_pricing's probes in blocks of targets_per_cell (each block priced for its \
         first probe's cell), its denominator the scalar delta_move loop over the same \
         (cell, target) pairs; thermal_move_pricing times delta_move on move_pricing's \
         probes under an alpha_TEMP = 1e-4 model, beside delta_move_rescan on the same probes";
    let parallel_note = format!(
        "per-stage wall times from the placer's stage clocks, best-of-{}; speedup_* \
         divides this sweep's threads=1 wall by the row's wall; rows with threads > \
         hardware_threads ({hw} on this host) are annotated hw_limited: true — they can \
         only measure scheduling overhead, never speedup, and are published for \
         completeness because results are verified bitwise identical across thread counts \
         by the test suite",
        opts.repeats.clamp(1, 3)
    );
    let subphases_note =
        "serial profiled run; times are summed across all starts; per_level depth 0 is the \
         input graph, higher depths its contractions";
    let scaling_note = format!(
        "each row runs in a fresh process so peak_rss_mb is that size's own high-water \
         mark; parse_ms is a pure token scan through the zero-copy stream readers, \
         build_ms the fused streaming parse+assemble (Design::assemble_streaming); place \
         is null above {SCALE_PLACE_MAX} cells, where only ingest is practical to time; \
         place.heap_peak_mb is each stage's live-heap high-water mark (the count restarts \
         at every stage begin) and place.bytes_per_cell the placement's overall live-heap \
         peak per cell, both counted by an allocator that only the fresh child process \
         arms; rows place with 4 partition starts, and with 2 or more threads bisect runs \
         starts concurrently, so two starts' V-cycle workspaces are live at once and set \
         global's heap peak (at the default single start the 2-thread excess is a few \
         percent)"
    );
    let base = &stage_walls[0];
    let stage_walls: Vec<Value> = stage_walls
        .iter()
        .map(|w| {
            obj(vec![
                ("threads", uint(w.threads)),
                ("hw_limited", Value::Bool(w.threads > hw)),
                ("total_ms", Value::Num(w.total_ms)),
                ("global_ms", Value::Num(w.global_ms)),
                ("coarse_ms", Value::Num(w.coarse_ms)),
                ("detail_ms", Value::Num(w.detail_ms)),
                ("speedup_total", Value::Num(base.total_ms / w.total_ms)),
                ("speedup_global", Value::Num(base.global_ms / w.global_ms)),
                ("speedup_coarse", Value::Num(base.coarse_ms / w.coarse_ms)),
            ])
        })
        .collect();
    let per_level: Vec<Value> = bisect_profile
        .per_level
        .iter()
        .enumerate()
        .map(|(depth, lvl)| {
            obj(vec![
                ("depth", uint(depth)),
                ("vertices", uint(lvl.vertices)),
                ("coarsen_ms", Value::Num(lvl.coarsen_ms)),
                ("fm_refine_ms", Value::Num(lvl.refine_ms)),
            ])
        })
        .collect();
    let report = obj(vec![
        ("harness", s("hotpaths")),
        ("hardware_threads", uint(hw)),
        ("note", s(note)),
        (
            "thread_counts",
            Value::Arr(thread_counts.iter().map(|&t| uint(t)).collect()),
        ),
        (
            "thermal_solve",
            obj(vec![
                ("grid", s(format!("{0}x{0}x{1}", opts.grid, layers))),
                ("cold_ms_by_threads", Value::Obj(thermal_cold)),
                ("cold_cg_iterations", uint(cold_iterations)),
                ("warm_2pct_drift_ms", Value::Num(warm_ms)),
                ("warm_2pct_drift_cg_iterations", uint(warm_iterations)),
            ]),
        ),
        (
            "thermal_scaling",
            obj(vec![
                ("note", s(thermal_scaling_note)),
                ("grids", Value::Arr(scaling)),
            ]),
        ),
        (
            "objective_rebuild",
            obj(vec![
                ("cells", uint(kernel_cells)),
                ("nets", uint(netlist.num_nets())),
                ("ms_by_threads", Value::Obj(rebuild)),
            ]),
        ),
        (
            "netweight",
            obj(vec![
                ("nets", uint(netlist.num_nets())),
                ("ms_by_threads", Value::Obj(netweight)),
            ]),
        ),
        (
            "delta_pricing",
            obj(vec![
                ("cells", uint(kernel_cells)),
                ("probes", uint(num_probes)),
                ("high_fanout_cells", uint(hf_cells)),
                ("note", s(pricing_note)),
                ("move_pricing", pricing(move_ns, move_rescan_ns)),
                ("swap_pricing", pricing(swap_ns, swap_rescan_ns)),
                (
                    "shared_swap_pricing",
                    pricing(shared_swap_ns, shared_swap_rescan_ns),
                ),
                (
                    "batch_move_pricing",
                    obj(vec![
                        ("targets_per_cell", uint(BATCH_TARGETS)),
                        ("ns_per_op", Value::Num(batch_ns)),
                        ("scalar_ns_per_op", Value::Num(batch_scalar_ns)),
                        ("speedup", Value::Num(batch_scalar_ns / batch_ns)),
                    ]),
                ),
                (
                    "thermal_move_pricing",
                    pricing(thermal_ns, thermal_rescan_ns),
                ),
                ("commit", obj(vec![("ns_per_op", Value::Num(commit_ns))])),
                ("high_fanout_move_pricing", pricing(hf_ns, hf_rescan_ns)),
            ]),
        ),
        (
            "bisection",
            obj(vec![
                ("vertices", uint(kernel_cells)),
                ("starts", uint(8)),
                ("ms_by_threads", Value::Obj(bisection)),
            ]),
        ),
        (
            "pipeline",
            obj(vec![
                ("cells", uint(kernel_cells)),
                ("partition_starts", uint(4)),
                ("ms_by_threads", Value::Obj(pipeline)),
                ("thermal_trajectory", Value::Arr(trajectory)),
            ]),
        ),
        (
            "parallel_scaling",
            obj(vec![
                ("cells", uint(kernel_cells)),
                ("note", s(parallel_note)),
                ("stage_walls", Value::Arr(stage_walls)),
                (
                    "bisection_subphases",
                    obj(vec![
                        ("vertices", uint(kernel_cells)),
                        ("starts", uint(8)),
                        ("note", s(subphases_note)),
                        ("coarsen_ms", Value::Num(bisect_profile.coarsen_ms)),
                        ("initial_ms", Value::Num(bisect_profile.initial_ms)),
                        ("fm_refine_ms", Value::Num(bisect_profile.refine_ms)),
                        ("levels", uint(bisect_profile.levels)),
                        ("per_level", Value::Arr(per_level)),
                    ]),
                ),
            ]),
        ),
        (
            "scaling",
            obj(vec![
                ("note", s(scaling_note)),
                ("rows", Value::Arr(scale_rows)),
            ]),
        ),
    ]);
    let mut json = report.to_json();
    json.push('\n');
    std::fs::write(&opts.out, &json).expect("write report");
    print!("{json}");
    eprintln!("hotpaths: wrote {}", opts.out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        parse_options(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn explicit_repeats_win_over_smoke_in_either_order() {
        assert_eq!(parse(&["--smoke", "--repeats", "10"]).repeats, 10);
        assert_eq!(parse(&["--repeats", "10", "--smoke"]).repeats, 10);
    }

    #[test]
    fn smoke_lowers_only_the_default_repeats() {
        assert_eq!(parse(&[]).repeats, 5);
        assert_eq!(parse(&["--smoke"]).repeats, 2);
        assert_eq!(parse(&["--repeats", "3"]).repeats, 3);
    }
}
