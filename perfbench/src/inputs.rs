//! Workload inputs, generated from the benchmark seed.
//!
//! Designs come from the paper's Table 1 statistics (`synth::ibm_suite`)
//! and reach the program only as Bookshelf text: files on disk for the
//! place workload, inline `.nodes/.nets/.wts` in the job body for the
//! daemon.

use std::path::{Path, PathBuf};
use tvp_bookshelf::synth::{generate, ibm_suite, SynthConfig};
use tvp_bookshelf::{write_nets, write_nodes, write_wts, Design, DesignBuilderOptions};
use tvp_serve::json::{obj, s, Value};

/// Designs per workload: one round places each once. Eight keep the
/// seed-to-seed spread of a run's medians and quality means small.
pub const DESIGNS: usize = 8;

/// Device layers every workload places onto.
pub const LAYERS: usize = 4;

/// Seed of design `index` under benchmark seed `seed` (splitmix64, so
/// neighbouring seeds give unrelated designs). Kept to 53 bits: job
/// bodies carry the seed as a JSON number.
pub fn design_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(DESIGNS as u64)
        .wrapping_add(index as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}

/// Scale of ibm01 (Table 1: 12,282 cells) every workload places: about
/// 1,000 cells. Jobs this size give a run dozens to hundreds of samples,
/// which keeps its medians steady on a shared host.
const SCALE: f64 = 1.0 / 12.0;

/// Design `index` of the set for benchmark seed `seed`.
fn ibm01(seed: u64, index: usize) -> SynthConfig {
    let base = ibm_suite(SCALE).swap_remove(0);
    base.with_seed(design_seed(seed, index))
}

/// One design written to disk for the place workload.
pub struct PlaceDesign {
    /// `.aux` manifest path.
    pub aux: PathBuf,
    /// Placer seed (the design's own seed).
    pub seed: u64,
}

/// Writes the design set under `dir` as Bookshelf files.
///
/// # Errors
///
/// Propagates generation and I/O failures.
pub fn place_designs(seed: u64, dir: &Path) -> Result<Vec<PlaceDesign>, String> {
    (0..DESIGNS)
        .map(|i| {
            let config = ibm01(seed, i);
            let netlist = generate(&config).map_err(|e| format!("generate: {e}"))?;
            let name = format!("ibm01s{i}");
            Design::from_netlist(name.clone(), netlist)
                .save(dir, DesignBuilderOptions::default())
                .map_err(|e| format!("write {}: {e}", dir.display()))?;
            Ok(PlaceDesign {
                aux: dir.join(format!("{name}.aux")),
                seed: config.seed,
            })
        })
        .collect()
}

/// One inline design for the daemon workload.
pub struct ServeDesign {
    /// Job name.
    pub name: String,
    /// Placer seed sent with the job.
    pub seed: u64,
    /// `.nodes` text.
    pub nodes: String,
    /// `.nets` text.
    pub nets: String,
    /// `.wts` text.
    pub wts: String,
    /// The `POST /jobs` body.
    pub body: String,
}

/// Renders the design set as inline job bodies.
///
/// # Errors
///
/// Propagates generation failures.
pub fn serve_designs(seed: u64) -> Result<Vec<ServeDesign>, String> {
    (0..DESIGNS)
        .map(|i| {
            let config = ibm01(seed, i);
            let netlist = generate(&config).map_err(|e| format!("generate: {e}"))?;
            let name = format!("ibm01s{i}");
            let (nodes, nets, wts, _) = Design::from_netlist(name.clone(), netlist)
                .to_files(DesignBuilderOptions::default());
            let (nodes, nets, wts) = (write_nodes(&nodes), write_nets(&nets), write_wts(&wts));
            let body = obj(vec![
                ("name", s(name.clone())),
                ("seed", Value::Num(config.seed as f64)),
                ("layers", Value::Num(LAYERS as f64)),
                ("nodes", s(nodes.clone())),
                ("nets", s(nets.clone())),
                ("wts", s(wts.clone())),
            ])
            .to_json();
            Ok(ServeDesign {
                name,
                seed: config.seed,
                nodes,
                nets,
                wts,
                body,
            })
        })
        .collect()
}
