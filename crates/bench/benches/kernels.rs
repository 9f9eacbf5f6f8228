//! Criterion micro-benchmarks for the fused parallel kernels (DESIGN.md
//! §16): one FM refinement in isolation — no coarsening, no restarts —
//! and one batched coarse global pass (the propose/commit pricing
//! engine), so kernel-level regressions show up without the noise of the
//! surrounding V-cycle or stage loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use tvp_bench::netlist_of;
use tvp_bookshelf::synth::SynthConfig;
use tvp_core::coarse::moves::global_pass;
use tvp_core::coarse::DensityMesh;
use tvp_core::global;
use tvp_core::objective::{IncrementalObjective, ObjectiveModel};
use tvp_core::{Chip, PlacerConfig, StageRun};
use tvp_partition::{bench_hooks, BisectConfig, Hypergraph};

fn hypergraph_from(cells: usize) -> Hypergraph {
    let netlist = netlist_of(&SynthConfig::named("k", cells, cells as f64 * 5.0e-12));
    let weights: Vec<f64> = netlist.cells().iter().map(|c| c.area()).collect();
    let mut hg = Hypergraph::with_vertex_weights(weights);
    for (nid, _) in netlist.iter_nets() {
        let pins: Vec<u32> = netlist
            .net_pins(nid)
            .iter()
            .map(|&p| netlist.pin(p).cell().index() as u32)
            .collect();
        hg.add_net(&pins, 1.0);
    }
    hg.finalize();
    hg
}

/// FM refinement on the flat (uncoarsened) graph, from an alternating
/// starting assignment — the heaviest single refine call a V-cycle makes.
fn bench_fm_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("fm_refine_flat");
    group.sample_size(20);
    for cells in [2_000usize, 8_000] {
        let hg = hypergraph_from(cells);
        let start: Vec<u8> = (0..hg.num_vertices()).map(|v| (v % 2) as u8).collect();
        let config = BisectConfig::default();
        group.bench_with_input(BenchmarkId::from_parameter(cells), &hg, |b, hg| {
            b.iter(|| {
                let mut sides = start.clone();
                black_box(bench_hooks::fm_refine(hg, &mut sides, &config))
            })
        });
    }
    group.finish();
}

/// One coarse global pass over a freshly global-placed design: batch
/// candidate generation, parallel frozen-snapshot pricing, and the serial
/// re-validate/commit phase.
fn bench_coarse_batch_pricing(c: &mut Criterion) {
    let mut group = c.benchmark_group("coarse_global_pass");
    group.sample_size(10);
    for cells in [1_000usize, 4_000] {
        let netlist = netlist_of(&SynthConfig::named("k", cells, cells as f64 * 5.0e-12));
        let config = PlacerConfig::new(4);
        let chip = Chip::from_netlist(&netlist, &config).expect("valid");
        let model = ObjectiveModel::new(&netlist, &chip, &config).expect("valid");
        let (placement, _) = global::place(
            &netlist,
            &chip,
            &model,
            &config,
            &[],
            false,
            &mut StageRun::default(),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(cells),
            &placement,
            |b, placement| {
                b.iter(|| {
                    let mut objective =
                        IncrementalObjective::new(&netlist, &model, placement.clone());
                    let mut mesh = DensityMesh::coarse(&chip);
                    mesh.rebuild(&netlist, objective.placement());
                    let mut rng = SmallRng::seed_from_u64(7);
                    black_box(global_pass(
                        &mut objective,
                        &mut mesh,
                        &netlist,
                        &chip,
                        config.coarse_target_region_bins,
                        &mut rng,
                        &mut StageRun::default(),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// The cell-shifting kernels (DESIGN.md §17): the Eq. 16 single-row
/// boundary solve in isolation, and one full row-parallel shift pass
/// (plan + commit) at 10k cells from a global-placed start.
fn bench_shift_kernels(c: &mut Criterion) {
    use tvp_core::coarse::shift::{bench_hooks as shift_hooks, shift_pass_stats};
    use tvp_core::ShiftStrategy;

    let mut group = c.benchmark_group("shift_kernels");
    group.sample_size(20);

    // Single-row boundary solve: a congested 64-bin density profile.
    let densities: Vec<f64> = (0..64)
        .map(|i| {
            if i % 7 == 0 {
                2.5
            } else {
                0.4 + 0.01 * i as f64
            }
        })
        .collect();
    group.bench_function("row_solve_64", |b| {
        b.iter(|| black_box(shift_hooks::row_scale_factors(black_box(&densities), 1.10)))
    });

    // Full pass at 10k: every x row and y row planned and committed once.
    let cells = 10_000usize;
    let netlist = netlist_of(&SynthConfig::named("k", cells, cells as f64 * 5.0e-12));
    let config = PlacerConfig::new(4);
    let chip = Chip::from_netlist(&netlist, &config).expect("valid");
    let model = ObjectiveModel::new(&netlist, &chip, &config).expect("valid");
    let (placement, _) = global::place(
        &netlist,
        &chip,
        &model,
        &config,
        &[],
        false,
        &mut StageRun::default(),
    );
    group.sample_size(10);
    group.bench_function("full_pass_10k", |b| {
        b.iter(|| {
            let mut objective = IncrementalObjective::new(&netlist, &model, placement.clone());
            let mut mesh = DensityMesh::coarse(&chip);
            mesh.rebuild(&netlist, objective.placement());
            black_box(shift_pass_stats(
                &mut objective,
                &mut mesh,
                &netlist,
                &chip,
                config.coarse_max_density,
                ShiftStrategy::WholeRow,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fm_pass,
    bench_coarse_batch_pricing,
    bench_shift_kernels
);
criterion_main!(benches);
