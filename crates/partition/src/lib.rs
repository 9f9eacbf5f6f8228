//! Multilevel hypergraph bisection for recursive-bisection placement.
//!
//! The DAC'07 flow uses hMetis for min-cut bisection inside its 3D recursive
//! bisection global placer. hMetis is closed source, so this crate provides
//! a from-scratch multilevel bisector with the same interface properties the
//! placer needs:
//!
//! * **min-cut objective** on weighted hypergraphs (weighted hyperedge cut),
//! * **balance tolerance** derived from region whitespace,
//! * **fixed vertices** so terminal propagation can pin external
//!   connectivity to a side,
//! * **random restarts** as a quality/runtime knob (the paper's §7 effort
//!   experiment).
//!
//! The algorithm is the classic V-cycle: first-choice coarsening →
//! greedy BFS initial partition → Fiduccia–Mattheyses refinement at every
//! level, repeated over `num_starts` seeds, keeping the best cut.
//!
//! # Example
//!
//! ```
//! use tvp_partition::{bisect, BisectConfig, FixedSide, Hypergraph};
//!
//! let mut hg = Hypergraph::new(4);
//! hg.add_net(&[0, 1], 1.0);
//! hg.add_net(&[2, 3], 1.0);
//! hg.add_net(&[1, 2], 1.0);
//! let config = BisectConfig::default();
//! let result = bisect(&hg, &[FixedSide::Free; 4], &config, None);
//! assert!(result.clone().check_balance(&config).is_ok());
//! // The only 2-2 balanced bisection with cut 1 splits {0,1} | {2,3}.
//! assert_eq!(result.cut, 1.0);
//! assert_eq!(result.side(0), result.side(1));
//! assert_eq!(result.side(2), result.side(3));
//! ```

mod coarsen;
mod config;
mod fm;
mod hypergraph;
mod initial;
mod kway;
mod multilevel;

pub use config::BisectConfig;
pub use hypergraph::Hypergraph;
pub use kway::{partition_kway, KwayPartition};
pub use multilevel::{
    bisect, bisect_fixed_profiled, BisectProfile, Bisection, FixedSide, ImbalanceError,
    LevelProfile,
};

/// Cooperative cancellation probe: polled between refinement chunks; a
/// `true` return ends the bisection early with the best legal assignment
/// found so far. Must be cheap (an atomic load or a clock read) — the FM
/// kernel polls it every ~1k heap operations.
pub type StopFn = dyn Fn() -> bool + Sync;

pub(crate) use fm::refine;

/// Benchmark-only hooks into the internal kernels. Hidden from docs and
/// semver-exempt: the criterion suite needs to time one FM refinement in
/// isolation (no coarsening, no restarts) without making the kernel API
/// public.
#[doc(hidden)]
pub mod bench_hooks {
    use crate::fm::FmWorkspace;
    use crate::multilevel::FixedSide;
    use crate::{BisectConfig, Hypergraph};

    /// Runs FM refinement on `sides` in place (up to `config.max_passes`
    /// passes) and returns the cut improvement. `hg` must be finalized.
    pub fn fm_refine(hg: &Hypergraph, sides: &mut [u8], config: &BisectConfig) -> f64 {
        let fixed = vec![FixedSide::Free; hg.num_vertices()];
        let mut ws = FmWorkspace::default();
        crate::fm::refine(hg, sides, &fixed, config, &mut ws, None)
    }
}
