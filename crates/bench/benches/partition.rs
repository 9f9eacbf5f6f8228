//! Criterion micro-benchmarks for the multilevel bisector — the inner loop
//! of global placement (hMetis's role in the paper).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tvp_bench::netlist_of;
use tvp_bookshelf::synth::SynthConfig;
use tvp_partition::{bisect, BisectConfig, FixedSide, Hypergraph};

fn hypergraph_from(cells: usize) -> Hypergraph {
    let netlist = netlist_of(&SynthConfig::named("b", cells, cells as f64 * 5.0e-12));
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

fn bench_bisect(c: &mut Criterion) {
    let mut group = c.benchmark_group("bisect");
    group.sample_size(20);
    for cells in [500usize, 2_000, 8_000] {
        let hg = hypergraph_from(cells);
        let free = vec![FixedSide::Free; cells];
        group.bench_with_input(BenchmarkId::from_parameter(cells), &hg, |b, hg| {
            b.iter(|| black_box(bisect(hg, &free, &BisectConfig::default(), None)))
        });
    }
    group.finish();
}

fn bench_restarts(c: &mut Criterion) {
    let mut group = c.benchmark_group("bisect_restarts");
    group.sample_size(15);
    let hg = hypergraph_from(2_000);
    let free = vec![FixedSide::Free; hg.num_vertices()];
    for starts in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(starts), &starts, |b, &s| {
            let config = BisectConfig::default().with_starts(s);
            b.iter(|| black_box(bisect(&hg, &free, &config, None)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bisect, bench_restarts);
criterion_main!(benches);
