//! The multilevel V-cycle driver and its public result types.

use crate::coarsen::{coarsen_once, CoarseLevel, CoarsenWorkspace};
use crate::fm::FmWorkspace;
use crate::initial::initial_partition;
use crate::{refine, BisectConfig, Hypergraph, StopFn};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::borrow::Cow;
use tvp_parallel as parallel;

/// Pre-assignment of a vertex for terminal propagation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FixedSide {
    /// The bisector may place the vertex on either side.
    #[default]
    Free,
    /// The vertex is pinned to side 0.
    Side0,
    /// The vertex is pinned to side 1.
    Side1,
}

/// Result of a bisection.
#[derive(Clone, PartialEq, Debug)]
pub struct Bisection {
    /// Side (0 or 1) of each vertex.
    pub sides: Vec<u8>,
    /// Weighted hyperedge cut of the assignment.
    pub cut: f64,
    /// Total vertex weight on each side.
    pub side_weights: [f64; 2],
}

impl Bisection {
    /// Side of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn side(&self, v: u32) -> u8 {
        self.sides[v as usize]
    }

    /// Weight imbalance: `|w0 - w1| / (w0 + w1)`, 0 for a perfect split.
    pub fn imbalance(&self) -> f64 {
        let [w0, w1] = self.side_weights;
        let total = w0 + w1;
        if total == 0.0 {
            0.0
        } else {
            (w0 - w1).abs() / total
        }
    }

    /// Validates the split against `config`'s balance tolerance instead
    /// of silently accepting an out-of-tolerance one (which the FM
    /// refiner can produce on pathological weight distributions, e.g.
    /// one vertex dominating the total weight, or when a cancelled run
    /// stopped before rebalancing).
    ///
    /// # Errors
    ///
    /// Returns [`ImbalanceError`] (carrying this assignment) when side
    /// 0's weight fraction deviates from `config.target_fraction` by more
    /// than `config.tolerance`. Typical recovery: retry with
    /// [`BisectConfig::relaxed`], and accept the carried best effort once
    /// retries are exhausted.
    pub fn check_balance(self, config: &BisectConfig) -> Result<Self, Box<ImbalanceError>> {
        let [w0, w1] = self.side_weights;
        let total = w0 + w1;
        if total == 0.0 {
            return Ok(self);
        }
        let fraction = w0 / total;
        // Small epsilon so float noise at the boundary never flips a pass
        // into a retry.
        if (fraction - config.target_fraction).abs() <= config.tolerance + 1e-9 {
            Ok(self)
        } else {
            Err(Box::new(ImbalanceError {
                fraction,
                target_fraction: config.target_fraction,
                tolerance: config.tolerance,
                bisection: self,
            }))
        }
    }
}

/// Bisects a hypergraph, honoring per-vertex side pins (all
/// [`FixedSide::Free`] for an unconstrained split).
///
/// Runs `config.num_starts` independent multilevel V-cycles with seeds
/// `config.seed + i` and returns the assignment with the smallest cut
/// (ties broken by balance). The result is not checked against the
/// balance tolerance; see [`Bisection::check_balance`].
///
/// The starts are embarrassingly parallel: each V-cycle owns its RNG and
/// touches no shared state, so they run through the worker pool and the
/// winner is picked by folding the candidates **in start order** — the
/// exact comparison sequence of the serial loop, so the result is bitwise
/// identical for every thread count.
///
/// `stop` is a cooperative cancellation probe, polled between coarsening
/// levels and every ~1k heap operations inside FM refinement. Once it
/// returns `true`, each running start finishes by rolling back to the
/// best legal assignment it has seen, so the returned [`Bisection`] is
/// always consistent — just less refined than an uncancelled run's.
///
/// If the hypergraph was not [finalized](Hypergraph::finalize), a
/// finalized copy is made internally (callers that bisect repeatedly
/// should finalize once themselves).
///
/// # Panics
///
/// Panics if `fixed.len() != hg.num_vertices()`.
pub fn bisect(
    hg: &Hypergraph,
    fixed: &[FixedSide],
    config: &BisectConfig,
    stop: Option<&StopFn>,
) -> Bisection {
    assert_eq!(fixed.len(), hg.num_vertices());
    let hg = prepared(hg);
    let hg = hg.as_ref();

    let candidates = parallel::map_indexed(config.num_starts.max(1), |start| {
        let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(start as u64));
        let sides = solve(hg, fixed, config, &mut rng, stop, None);
        summarize(hg, sides)
    });
    fold_best(candidates)
}

/// Wall-time breakdown of a bisection's phases, reported by
/// [`bisect_fixed_profiled`]. Times are summed across all starts, levels,
/// and passes; `levels` is the deepest V-cycle's level count.
#[derive(Clone, PartialEq, Default, Debug)]
pub struct BisectProfile {
    /// Total time contracting levels (matching + coarse-net build).
    pub coarsen_ms: f64,
    /// Total time in the coarsest-level greedy initial partition.
    pub initial_ms: f64,
    /// Total time in FM refinement, across every level of every start.
    pub refine_ms: f64,
    /// Coarsening depth of the deepest V-cycle.
    pub levels: usize,
    /// Per-depth breakdown: index 0 is the caller's (finest) graph, index
    /// `d` the graph after `d` contractions. Each entry accumulates that
    /// depth's coarsen and FM-refine time across every start; the
    /// coarsest depth additionally absorbs the initial partition into its
    /// refine window's sibling field [`BisectProfile::initial_ms`].
    pub per_level: Vec<LevelProfile>,
}

/// One depth of the V-cycle in a [`BisectProfile`].
#[derive(Clone, Copy, PartialEq, Default, Debug)]
pub struct LevelProfile {
    /// Vertex count of the graph at this depth.
    pub vertices: usize,
    /// Time contracting this depth's graph into the next (0 at the
    /// coarsest depth, which is never contracted).
    pub coarsen_ms: f64,
    /// FM refinement time on this depth's graph.
    pub refine_ms: f64,
}

/// [`bisect`] (without cancellation) with a per-phase wall-time
/// breakdown.
///
/// A diagnostic entry point for benchmarking harnesses: the starts run
/// **serially** so the phase timings don't overlap, making this slower
/// than [`bisect`] for `num_starts > 1` on multi-core hosts. The
/// returned assignment is selected by the same fold as the production
/// path.
///
/// # Panics
///
/// Panics if `fixed.len() != hg.num_vertices()`.
pub fn bisect_fixed_profiled(
    hg: &Hypergraph,
    fixed: &[FixedSide],
    config: &BisectConfig,
) -> (Bisection, BisectProfile) {
    assert_eq!(fixed.len(), hg.num_vertices());
    let hg = prepared(hg);
    let hg = hg.as_ref();
    let mut profile = BisectProfile::default();
    let candidates: Vec<Bisection> = (0..config.num_starts.max(1))
        .map(|start| {
            let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(start as u64));
            let sides = solve(hg, fixed, config, &mut rng, None, Some(&mut profile));
            summarize(hg, sides)
        })
        .collect();
    (fold_best(candidates), profile)
}

/// Picks the best candidate **in start order** — the exact comparison
/// sequence of the serial loop, so the winner is identical for every
/// thread count.
fn fold_best(candidates: Vec<Bisection>) -> Bisection {
    let mut best: Option<Bisection> = None;
    for candidate in candidates {
        let better = match &best {
            None => true,
            Some(b) => {
                candidate.cut < b.cut - 1e-12
                    || (candidate.cut <= b.cut + 1e-12 && candidate.imbalance() < b.imbalance())
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    // At least one candidate always exists; the empty fallback keeps this
    // path panic-free regardless.
    best.unwrap_or(Bisection {
        sides: Vec::new(),
        cut: 0.0,
        side_weights: [0.0; 2],
    })
}

/// Returns `hg` finalized, borrowing when it already is.
fn prepared(hg: &Hypergraph) -> Cow<'_, Hypergraph> {
    if hg_is_ready(hg) {
        Cow::Borrowed(hg)
    } else {
        let mut owned = hg.clone();
        owned.finalize();
        Cow::Owned(owned)
    }
}

/// A bisection whose side weights violate the configured balance
/// tolerance (returned by [`Bisection::check_balance`]). Carries the
/// rejected assignment so a caller that exhausts its retries can still
/// accept the best effort.
#[derive(Clone, PartialEq, Debug)]
pub struct ImbalanceError {
    /// The out-of-tolerance assignment.
    pub bisection: Bisection,
    /// Weight fraction side 0 actually received.
    pub fraction: f64,
    /// The target fraction the config asked for.
    pub target_fraction: f64,
    /// Allowed deviation from the target fraction.
    pub tolerance: f64,
}

impl std::fmt::Display for ImbalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bisection imbalance: side 0 holds {:.3} of the weight, target {:.3} ± {:.3}",
            self.fraction, self.target_fraction, self.tolerance
        )
    }
}

impl std::error::Error for ImbalanceError {}

fn hg_is_ready(hg: &Hypergraph) -> bool {
    hg.has_incidence()
}

fn summarize(hg: &Hypergraph, sides: Vec<u8>) -> Bisection {
    let cut = hg.cut(&sides);
    let mut side_weights = [0.0; 2];
    for (v, &s) in sides.iter().enumerate() {
        side_weights[s as usize] += hg.vertex_weight(v as u32);
    }
    Bisection {
        sides,
        cut,
        side_weights,
    }
}

/// One V-cycle: coarsen level by level onto a stack, partition the
/// coarsest level, then project and refine on the way back up.
///
/// The finest level stays borrowed from the caller; only coarsened levels
/// materialize vertices (each [`CoarseLevel`] owns its contracted graph,
/// fine→coarse map, and fixed-side vector). One [`CoarsenWorkspace`] and
/// one [`FmWorkspace`] are shared by every level so scratch buffers are
/// allocated once per V-cycle, not once per level per pass. The
/// down-sweep/up-sweep order replays the old recursion exactly — same RNG
/// draws, same refine sequence — so results are bitwise identical to the
/// recursive formulation.
fn solve(
    hg: &Hypergraph,
    fixed: &[FixedSide],
    config: &BisectConfig,
    rng: &mut SmallRng,
    stop: Option<&StopFn>,
    mut prof: Option<&mut BisectProfile>,
) -> Vec<u8> {
    let mut ws = CoarsenWorkspace::default();
    let mut fm_ws = FmWorkspace::default();
    let mut levels: Vec<CoarseLevel> = Vec::new();

    // Phase timer: zero-cost when no profile is attached (the production
    // path passes `None`, so the hot loop never reads the clock).
    macro_rules! timed {
        ($field:ident, $expr:expr) => {{
            let t = prof.as_ref().map(|_| std::time::Instant::now());
            let r = $expr;
            if let (Some(p), Some(t)) = (prof.as_deref_mut(), t) {
                p.$field += t.elapsed().as_secs_f64() * 1e3;
            }
            r
        }};
        // Variant that also charges the time to the per-depth entry.
        ($field:ident, $depth:expr, $vertices:expr, $expr:expr) => {{
            let t = prof.as_ref().map(|_| std::time::Instant::now());
            let r = $expr;
            if let (Some(p), Some(t)) = (prof.as_deref_mut(), t) {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                p.$field += ms;
                let (depth, vertices) = ($depth, $vertices);
                if p.per_level.len() <= depth {
                    p.per_level.resize(depth + 1, LevelProfile::default());
                }
                p.per_level[depth].vertices = vertices;
                p.per_level[depth].$field += ms;
            }
            r
        }};
    }

    // Down-sweep: contract until small enough or matching stalls. A
    // cancelled run stops contracting and falls through to the initial
    // partition + (immediately cancelled) refinement, so it still returns
    // a legal assignment for the full graph.
    loop {
        if stop.is_some_and(|s| s()) {
            break;
        }
        let next = {
            let (cur_hg, cur_fixed) = match levels.last() {
                Some(l) => (&l.hg, l.fixed.as_slice()),
                None => (hg, fixed),
            };
            if cur_hg.num_vertices() <= config.coarsen_until {
                break;
            }
            timed!(
                coarsen_ms,
                levels.len(),
                cur_hg.num_vertices(),
                coarsen_once(cur_hg, cur_fixed, rng, &mut ws)
            )
        };
        match next {
            Some(level) => levels.push(level),
            None => break,
        }
    }
    if let Some(p) = prof.as_deref_mut() {
        p.levels = p.levels.max(levels.len());
    }

    // Partition and refine the coarsest level.
    let (coarsest_hg, coarsest_fixed) = match levels.last() {
        Some(l) => (&l.hg, l.fixed.as_slice()),
        None => (hg, fixed),
    };
    let mut sides = timed!(
        initial_ms,
        initial_partition(coarsest_hg, coarsest_fixed, config, rng)
    );
    timed!(
        refine_ms,
        levels.len(),
        coarsest_hg.num_vertices(),
        refine(
            coarsest_hg,
            &mut sides,
            coarsest_fixed,
            config,
            &mut fm_ws,
            stop
        )
    );

    // Up-sweep: project through each level's map and refine on its fine
    // graph (the next level down the stack, or the caller's graph).
    for i in (0..levels.len()).rev() {
        let projected: Vec<u8> = levels[i].map.iter().map(|&c| sides[c as usize]).collect();
        sides = projected;
        let (fine_hg, fine_fixed) = match i.checked_sub(1).map(|j| &levels[j]) {
            Some(l) => (&l.hg, l.fixed.as_slice()),
            None => (hg, fixed),
        };
        timed!(
            refine_ms,
            i,
            fine_hg.num_vertices(),
            refine(fine_hg, &mut sides, fine_fixed, config, &mut fm_ws, stop)
        );
    }
    sides
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Unconstrained, uncancelled bisection.
    fn bisect_free(hg: &Hypergraph, config: &BisectConfig) -> Bisection {
        bisect(hg, &vec![FixedSide::Free; hg.num_vertices()], config, None)
    }

    /// `k` cliques of `size` vertices, chained by single bridge nets.
    fn clique_chain(k: usize, size: usize) -> Hypergraph {
        let mut hg = Hypergraph::new(k * size);
        for c in 0..k {
            let base = (c * size) as u32;
            for i in 0..size as u32 {
                for j in (i + 1)..size as u32 {
                    hg.add_net(&[base + i, base + j], 1.0);
                }
            }
            if c + 1 < k {
                hg.add_net(&[base, base + size as u32], 0.5);
            }
        }
        hg.finalize();
        hg
    }

    #[test]
    fn finds_small_cut_on_clique_chain() {
        let hg = clique_chain(4, 8);
        let result = bisect_free(&hg, &BisectConfig::default());
        // The ideal split separates cliques {0,1} from {2,3}: cut 0.5.
        assert!(
            result.cut <= 1.0,
            "cut {} should not break cliques",
            result.cut
        );
        assert!(result.imbalance() <= 0.2 + 1e-9);
    }

    #[test]
    fn multilevel_handles_larger_random_graph() {
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 2000u32;
        let mut hg = Hypergraph::new(n as usize);
        // Ring of 2-pin nets + random chords: known cut exists (2 ring nets).
        for i in 0..n {
            hg.add_net(&[i, (i + 1) % n], 1.0);
        }
        for _ in 0..500 {
            let a = rng.random_range(0..n);
            let b = (a + rng.random_range(1..20)) % n;
            if a != b {
                hg.add_net(&[a, b], 1.0);
            }
        }
        hg.finalize();
        let result = bisect_free(&hg, &BisectConfig::default().with_starts(2));
        // A random split cuts ~50% of 2500 nets; multilevel should be far
        // below that, and balance must hold.
        assert!(result.cut < 250.0, "cut {} is too large", result.cut);
        assert!(result.imbalance() <= 0.2 + 1e-9);
        assert_eq!(result.cut, hg.cut(&result.sides), "reported cut is real");
    }

    #[test]
    fn fixed_vertices_are_respected_end_to_end() {
        let hg = clique_chain(4, 8);
        let n = hg.num_vertices();
        let mut fixed = vec![FixedSide::Free; n];
        fixed[0] = FixedSide::Side1;
        fixed[n - 1] = FixedSide::Side0;
        let result = bisect(&hg, &fixed, &BisectConfig::default(), None);
        assert_eq!(result.side(0), 1);
        assert_eq!(result.side((n - 1) as u32), 0);
    }

    #[test]
    fn unfinalized_graph_is_accepted() {
        let mut hg = Hypergraph::new(4);
        hg.add_net(&[0, 1], 1.0);
        hg.add_net(&[2, 3], 1.0);
        // No finalize() on purpose.
        let result = bisect_free(&hg, &BisectConfig::default());
        assert_eq!(result.sides.len(), 4);
    }

    #[test]
    fn empty_graph() {
        let hg = Hypergraph::new(0);
        let result = bisect_free(&hg, &BisectConfig::default());
        assert!(result.sides.is_empty());
        assert_eq!(result.cut, 0.0);
    }

    #[test]
    fn vertices_without_nets_are_balanced() {
        let hg = Hypergraph::new(10);
        let result = bisect_free(&hg, &BisectConfig::default());
        assert!(result.imbalance() <= 0.2 + 1e-9);
    }

    #[test]
    fn restarts_never_hurt() {
        let hg = clique_chain(6, 6);
        let one = bisect_free(&hg, &BisectConfig::default().with_starts(1));
        let many = bisect_free(&hg, &BisectConfig::default().with_starts(8));
        assert!(many.cut <= one.cut + 1e-9);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let hg = clique_chain(4, 8);
        let a = bisect_free(&hg, &BisectConfig::default().with_seed(42));
        let b = bisect_free(&hg, &BisectConfig::default().with_seed(42));
        assert_eq!(a, b);
    }

    #[test]
    fn check_balance_rejects_only_out_of_tolerance_splits() {
        let config = BisectConfig::default();
        let split = |w0: f64, w1: f64| Bisection {
            sides: Vec::new(),
            cut: 0.0,
            side_weights: [w0, w1],
        };
        assert!(split(5.0, 5.0).check_balance(&config).is_ok());
        assert!(split(0.0, 0.0).check_balance(&config).is_ok());
        let err = split(9.0, 1.0).check_balance(&config).unwrap_err();
        assert_eq!(err.fraction, 0.9);
        assert_eq!(err.bisection, split(9.0, 1.0));
        let relaxed = BisectConfig {
            tolerance: 0.45,
            ..config
        };
        assert!(split(9.0, 1.0).check_balance(&relaxed).is_ok());
    }

    #[test]
    fn parallel_starts_match_serial_bitwise() {
        let hg = clique_chain(6, 6);
        let config = BisectConfig::default().with_starts(8);
        let serial = parallel::with_threads(1, || bisect_free(&hg, &config));
        for threads in [2, 4] {
            let par = parallel::with_threads(threads, || bisect_free(&hg, &config));
            assert_eq!(serial, par, "threads = {threads}");
        }
    }
}
