//! Criterion benchmarks for the legalization stages: cell shifting,
//! moves/swaps, and the row-based detailed legalizer.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tvp_bench::netlist_of;
use tvp_bookshelf::synth::SynthConfig;
use tvp_core::coarse::{self, DensityMesh};
use tvp_core::objective::{IncrementalObjective, ObjectiveModel};
use tvp_core::{detail, global};
use tvp_core::{Chip, PlacerConfig, StageRun};

fn fixture(
    cells: usize,
) -> (
    tvp_netlist::Netlist,
    Chip,
    ObjectiveModel,
    PlacerConfig,
    tvp_core::Placement,
) {
    let netlist = netlist_of(&SynthConfig::named("b", cells, cells as f64 * 5.0e-12));
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
    (netlist, chip, model, config, placement)
}

fn bench_coarse(c: &mut Criterion) {
    let (netlist, chip, model, config, placement) = fixture(1_000);
    let mut group = c.benchmark_group("coarse_legalize");
    group.sample_size(10);
    group.bench_function("1000_cells", |b| {
        b.iter(|| {
            let mut objective = IncrementalObjective::new(&netlist, &model, placement.clone());
            black_box(coarse::legalize(
                &mut objective,
                &netlist,
                &chip,
                &config,
                &mut StageRun::default(),
            ));
        })
    });
    group.finish();
}

fn bench_detail(c: &mut Criterion) {
    let (netlist, chip, model, config, placement) = fixture(1_000);
    // Pre-run coarse once so detail sees its usual input.
    let mut objective = IncrementalObjective::new(&netlist, &model, placement);
    coarse::legalize(
        &mut objective,
        &netlist,
        &chip,
        &config,
        &mut StageRun::default(),
    );
    let coarse_placement = objective.placement().clone();
    let mut group = c.benchmark_group("detail_legalize");
    group.sample_size(10);
    group.bench_function("1000_cells", |b| {
        b.iter(|| {
            let mut objective =
                IncrementalObjective::new(&netlist, &model, coarse_placement.clone());
            black_box(detail::legalize(
                &mut objective,
                &netlist,
                &chip,
                config.detail_row_window,
                &mut StageRun::default(),
            ));
        })
    });
    group.finish();
}

fn bench_density_mesh(c: &mut Criterion) {
    let (netlist, chip, _, _, placement) = fixture(4_000);
    c.bench_function("density_mesh_rebuild_4000", |b| {
        let mut mesh = DensityMesh::coarse(&chip);
        b.iter(|| {
            mesh.rebuild(&netlist, &placement);
            black_box(mesh.max_density())
        })
    });
}

criterion_group!(benches, bench_coarse, bench_detail, bench_density_mesh);
criterion_main!(benches);
