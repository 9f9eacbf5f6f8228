//! Baseline comparison backing the paper's §1 argument: recursive-
//! bisection global placement vs a quadratic (force-directed) baseline,
//! both feeding the identical legalization stages, on circuits *without*
//! IO pads — the regime where the paper says partitioning wins.

use std::time::Instant;
use tvp_bench::{netlist_of, pct, print_row, Args};
use tvp_core::global::force_directed_place;
use tvp_core::objective::{IncrementalObjective, ObjectiveModel};
use tvp_core::{coarse, detail, global};
use tvp_core::{Chip, PlacerConfig, StageRun};
use tvp_netlist::Netlist;

struct Outcome {
    wirelength: f64,
    ilv: f64,
    seconds: f64,
}

fn run_flow(netlist: &Netlist, config: &PlacerConfig, force_directed: bool) -> Outcome {
    let start = Instant::now();
    let chip = Chip::from_netlist(netlist, config).expect("valid config");
    let model = ObjectiveModel::new(netlist, &chip, config).expect("valid model");
    let run = &mut StageRun::default();
    let placement = if force_directed {
        force_directed_place(netlist, &chip, &model, config)
    } else {
        global::place(netlist, &chip, &model, config, &[], false, run).0
    };
    let mut objective = IncrementalObjective::new(netlist, &model, placement);
    coarse::legalize(&mut objective, netlist, &chip, config, run);
    detail::legalize(
        &mut objective,
        netlist,
        &chip,
        config.detail_row_window,
        run,
    );
    detail::refine(
        &mut objective,
        netlist,
        &chip,
        config.legal_refine_passes,
        run,
    );
    assert_eq!(
        detail::check_legal(netlist, &chip, objective.placement()),
        None
    );
    Outcome {
        wirelength: objective.total_wirelength(),
        ilv: objective.total_ilv(),
        seconds: start.elapsed().as_secs_f64(),
    }
}

fn main() {
    let args = Args::parse(0);
    let suite = args.suite();
    println!(
        "Global-placement baseline comparison over {} benchmarks (scale = {})",
        suite.len(),
        args.scale
    );
    print_row(&[
        "benchmark".into(),
        "cells".into(),
        "bisect WL".into(),
        "force WL".into(),
        "dWL %".into(),
        "bisect ILV".into(),
        "force ILV".into(),
        "time x".into(),
    ]);
    let mut wl_gain = 0.0;
    for config_s in &suite {
        let netlist = netlist_of(config_s);
        let config = PlacerConfig::new(4);
        let bisect = run_flow(&netlist, &config, false);
        let force = run_flow(&netlist, &config, true);
        let d = pct(force.wirelength, bisect.wirelength);
        wl_gain += d;
        print_row(&[
            config_s.name.clone(),
            netlist.num_cells().to_string(),
            format!("{:.4e}", bisect.wirelength),
            format!("{:.4e}", force.wirelength),
            format!("{d:+.1}"),
            format!("{:.0}", bisect.ilv),
            format!("{:.0}", force.ilv),
            format!("{:.2}", force.seconds / bisect.seconds),
        ]);
    }
    println!();
    println!(
        "force-directed baseline averages {:+.1}% wirelength vs recursive bisection \
         (paper §1: partitioning suits pad-less 3D ICs better)",
        wl_gain / suite.len() as f64
    );
}
