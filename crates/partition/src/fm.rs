//! Fiduccia–Mattheyses refinement on flat SoA state with an incremental
//! gain array and a lazy priority queue.
//!
//! Classic FM adapted to `f64` net weights. Per-pass state lives in a
//! reusable [`FmWorkspace`] of flat arrays — net side-occupancy counters,
//! a per-vertex gain array, a locked bitset, and the tentative move log —
//! so a multilevel V-cycle allocates them once, not once per level per
//! pass.
//!
//! Four properties make the pass fast:
//!
//! * **Fused parallel initialization.** The per-net side counters and the
//!   per-vertex starting gains are elementwise maps, computed in chunked
//!   sweeps through `tvp-parallel`. Each element depends only on the
//!   committed `sides`, so the filled arrays are bitwise identical for
//!   every thread count.
//! * **Critical-net gain updates.** Committing a move updates neighbor
//!   gains only on *critical* nets — those whose side counts cross the
//!   0/1 thresholds — via the textbook four-rule delta, instead of
//!   recomputing every neighbor's full gain on every incident net. Work
//!   per commit drops from O(Σ|e|·deg) to O(Σ_critical |e|).
//! * **O(1) staleness checks.** Every gain change pushes a fresh heap
//!   entry, so an entry is current exactly when its key equals the gain
//!   array's value — popping validates with one comparison instead of a
//!   full gain recomputation.
//! * **Integer heap keys.** A heap entry is one `u128` that orders like
//!   `(gain, vertex)`: the gain's order-preserving bit image above the
//!   vertex id. Every sift compares integers instead of running a float
//!   `partial_cmp` and a tie-break, and the pop order is the float
//!   order's for every non-NaN gain, so partitions are bitwise unchanged.
//!
//! Each pass tentatively moves every free vertex once (best-gain first,
//! balance permitting) and rolls back to the best prefix. A cooperative
//! stop callback is polled between chunks of pops; on cancellation the
//! pass still rolls back to the best prefix seen, so callers always
//! receive a legal (if less refined) assignment.

use crate::multilevel::FixedSide;
use crate::{BisectConfig, Hypergraph, StopFn};
use std::collections::BinaryHeap;
use tvp_parallel as parallel;

/// Chunking floor for the per-pass initialization sweeps. Gain and
/// counter fills are a few ns per element, so chunks must be large to
/// amortize dispatch.
const INIT_MIN_CHUNK: usize = 4096;

/// Below this many elements the initialization sweeps run inline (same
/// chunk boundaries, so bitwise identical to the dispatched result).
const INIT_SERIAL_BELOW: usize = 1 << 15;

/// The stop callback is polled every `STOP_POLL_MASK + 1` heap pops.
const STOP_POLL_MASK: u64 = 0x3FF;

/// Heap entry: one integer key that orders exactly like `(gain, vertex)`
/// — the gain's order-preserving bit image in the high 64 bits, the
/// vertex in the low 32 — so every sift compares integers. −0.0 is keyed
/// as +0.0, the two being equal gains; NaN never occurs (gains are sums
/// of finite net weights).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct Candidate(u128);

const SIGN: u64 = 1 << 63;

impl Candidate {
    #[inline]
    fn new(gain: f64, vertex: u32) -> Self {
        let bits = if gain == 0.0 { 0 } else { gain.to_bits() };
        // Non-negative floats order like their bits; set the sign bit so
        // they sort above every negative. Negative floats order inversely
        // to their bits; flipping them all puts them below, in order.
        let key = if bits & SIGN == 0 { bits | SIGN } else { !bits };
        Self((key as u128) << 32 | vertex as u128)
    }

    #[inline]
    fn gain(self) -> f64 {
        let key = (self.0 >> 32) as u64;
        f64::from_bits(if key & SIGN != 0 { key & !SIGN } else { !key })
    }

    #[inline]
    fn vertex(self) -> u32 {
        self.0 as u32
    }
}

/// Flat scratch state for FM passes, reused across the levels and passes
/// of one V-cycle (and across V-cycles when the caller keeps it alive).
#[derive(Default)]
pub(crate) struct FmWorkspace {
    /// Side-occupancy counts per net.
    count: Vec<[u32; 2]>,
    /// Current gain of each vertex, maintained incrementally.
    gain: Vec<f64>,
    /// Locked bitset (one bit per vertex).
    locked: Vec<u64>,
    /// Recycled backing storage for the candidate heap.
    heap_buf: Vec<Candidate>,
    /// Tentative move log for best-prefix rollback.
    moves: Vec<u32>,
    /// Vertices whose gain changed during the current commit.
    touched: Vec<u32>,
    /// Commit stamp per vertex, deduplicating `touched` pushes.
    touch_stamp: Vec<u32>,
}

#[inline]
fn is_locked(locked: &[u64], v: u32) -> bool {
    locked[(v >> 6) as usize] >> (v & 63) & 1 == 1
}

#[inline]
fn lock(locked: &mut [u64], v: u32) {
    locked[(v >> 6) as usize] |= 1u64 << (v & 63);
}

/// In-place FM refinement of `sides`. Returns the total cut improvement.
///
/// `fixed[v]` pins vertices; pinned vertices are never moved. `sides` must
/// be consistent with `fixed` on entry. A `stop` callback that returns
/// `true` ends refinement early with the best assignment found so far.
pub(crate) fn refine(
    hg: &Hypergraph,
    sides: &mut [u8],
    fixed: &[FixedSide],
    config: &BisectConfig,
    ws: &mut FmWorkspace,
    stop: Option<&StopFn>,
) -> f64 {
    let n = hg.num_vertices();
    debug_assert_eq!(sides.len(), n);
    debug_assert_eq!(fixed.len(), n);
    let total = hg.total_vertex_weight();
    // Classic FM slack: a side must always be allowed to grow by at least
    // one (heaviest) vertex past its target, or perfectly balanced states
    // would be local minima with no legal moves at all.
    let wmax = (0..n as u32)
        .map(|v| hg.vertex_weight(v))
        .fold(0.0f64, f64::max);
    let max_side = [
        config
            .max_side0(total)
            .max(config.target_fraction * total + wmax),
        config
            .max_side1(total)
            .max((1.0 - config.target_fraction) * total + wmax),
    ];

    let mut total_improvement = 0.0;
    for _ in 0..config.max_passes {
        if stop.is_some_and(|s| s()) {
            break;
        }
        let improvement = fm_pass(hg, sides, fixed, max_side, ws, stop);
        total_improvement += improvement;
        if improvement <= 0.0 {
            break;
        }
    }
    total_improvement
}

/// Starting gain of `v` from the committed counters: +w for every net the
/// move would uncut, −w for every net it would newly cut.
fn gain_of(hg: &Hypergraph, v: u32, sides: &[u8], count: &[[u32; 2]]) -> f64 {
    let s = sides[v as usize] as usize;
    let t = 1 - s;
    let mut g = 0.0;
    for &e in hg.vertex_nets(v) {
        let c = count[e as usize];
        let w = hg.net_weight(e);
        if c[t] > 0 {
            if c[s] == 1 {
                g += w; // net becomes uncut
            }
        } else {
            g -= w; // net becomes cut
        }
    }
    g
}

/// One FM pass; returns the cut improvement it achieved (≥ 0).
fn fm_pass(
    hg: &Hypergraph,
    sides: &mut [u8],
    fixed: &[FixedSide],
    max_side: [f64; 2],
    ws: &mut FmWorkspace,
    stop: Option<&StopFn>,
) -> f64 {
    let n = hg.num_vertices();

    // Fused initialization: the per-net side counters and the per-vertex
    // gains are independent elementwise maps over the committed `sides`,
    // chunked through the pool (identical results at any thread count).
    ws.count.clear();
    ws.count.resize(hg.num_nets(), [0u32; 2]);
    {
        let sides: &[u8] = sides;
        parallel::for_each_chunk_mut(
            &mut ws.count,
            INIT_MIN_CHUNK,
            INIT_SERIAL_BELOW,
            |start, chunk| {
                for (off, c) in chunk.iter_mut().enumerate() {
                    for &v in hg.net((start + off) as u32) {
                        c[sides[v as usize] as usize] += 1;
                    }
                }
            },
        );
    }
    ws.gain.clear();
    ws.gain.resize(n, 0.0);
    {
        let sides: &[u8] = sides;
        let count: &[[u32; 2]] = &ws.count;
        parallel::for_each_chunk_mut(
            &mut ws.gain,
            INIT_MIN_CHUNK,
            INIT_SERIAL_BELOW,
            |start, chunk| {
                for (off, g) in chunk.iter_mut().enumerate() {
                    *g = gain_of(hg, (start + off) as u32, sides, count);
                }
            },
        );
    }
    let mut side_weight = [0.0f64; 2];
    for v in 0..n {
        side_weight[sides[v] as usize] += hg.vertex_weight(v as u32);
    }

    ws.locked.clear();
    ws.locked.resize(n.div_ceil(64), 0);
    ws.touch_stamp.clear();
    ws.touch_stamp.resize(n, 0);
    let mut stamp = 0u32;

    // Build the heap in one O(n) heapify from the recycled buffer.
    ws.heap_buf.clear();
    for v in 0..n as u32 {
        if fixed[v as usize] == FixedSide::Free {
            ws.heap_buf.push(Candidate::new(ws.gain[v as usize], v));
        } else {
            lock(&mut ws.locked, v);
        }
    }
    let mut heap = BinaryHeap::from(std::mem::take(&mut ws.heap_buf));

    // Tentative move sequence with best-prefix rollback.
    ws.moves.clear();
    let mut cum_gain = 0.0;
    let mut best_gain = 0.0;
    let mut best_len = 0usize;
    let mut pops = 0u64;

    // Updates a neighbor's gain during a commit and remembers it for one
    // fresh heap push once the commit's arithmetic is complete.
    macro_rules! bump {
        ($u:expr, $delta:expr) => {{
            let u: u32 = $u;
            if !is_locked(&ws.locked, u) {
                ws.gain[u as usize] += $delta;
                if ws.touch_stamp[u as usize] != stamp {
                    ws.touch_stamp[u as usize] = stamp;
                    ws.touched.push(u);
                }
            }
        }};
    }

    while let Some(top) = heap.pop() {
        let (gain, vertex) = (top.gain(), top.vertex());
        pops += 1;
        if pops & STOP_POLL_MASK == 0 && stop.is_some_and(|s| s()) {
            // Cancelled: fall through to the best-prefix rollback below so
            // the caller still gets the best legal assignment seen.
            break;
        }
        let vi = vertex as usize;
        if is_locked(&ws.locked, vertex) || gain != ws.gain[vi] {
            continue; // already moved this pass, or a stale entry
        }
        let s = sides[vi] as usize;
        let t = 1 - s;
        let w = hg.vertex_weight(vertex);
        if side_weight[t] + w > max_side[t] {
            // Balance forbids this move now; lock it for this pass so we
            // don't spin on it.
            lock(&mut ws.locked, vertex);
            continue;
        }

        // Commit the tentative move: lock first so the critical-net scans
        // below skip the mover, flip `sides` last so the scans still see
        // the pre-move side assignment the counters describe.
        lock(&mut ws.locked, vertex);
        side_weight[s] -= w;
        side_weight[t] += w;
        stamp += 1;
        ws.touched.clear();
        for &e in hg.vertex_nets(vertex) {
            let we = hg.net_weight(e);
            let pins = hg.net(e);
            let c = &ws.count[e as usize];
            // Before the counter update (mover still counted on side s):
            if c[t] == 0 {
                // The net was uncut; every free pin loses its −w term.
                for &u in pins {
                    bump!(u, we);
                }
            } else if c[t] == 1 {
                // The lone side-t pin was about to uncut the net.
                for &u in pins {
                    if sides[u as usize] as usize == t {
                        bump!(u, -we);
                        break;
                    }
                }
            }
            let c = &mut ws.count[e as usize];
            c[s] -= 1;
            c[t] += 1;
            let c = &ws.count[e as usize];
            // After the counter update (mover now counted on side t):
            if c[s] == 0 {
                // The net is uncut on side t; every free pin gains −w.
                for &u in pins {
                    bump!(u, -we);
                }
            } else if c[s] == 1 {
                // One pin remains on side s; moving it would uncut.
                for &u in pins {
                    if u != vertex && sides[u as usize] as usize == s {
                        bump!(u, we);
                        break;
                    }
                }
            }
        }
        sides[vi] = t as u8;
        for &u in &ws.touched {
            heap.push(Candidate::new(ws.gain[u as usize], u));
        }
        ws.moves.push(vertex);
        cum_gain += gain;
        if cum_gain > best_gain + 1e-12 {
            best_gain = cum_gain;
            best_len = ws.moves.len();
        }
    }

    // Roll back moves past the best prefix.
    for &v in &ws.moves[best_len..] {
        sides[v as usize] ^= 1;
    }
    // Recycle the heap's backing storage for the next pass.
    ws.heap_buf = heap.into_vec();
    ws.heap_buf.clear();
    best_gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::FixedSide;

    fn refine_fresh(
        hg: &Hypergraph,
        sides: &mut [u8],
        fixed: &[FixedSide],
        config: &BisectConfig,
    ) -> f64 {
        refine(hg, sides, fixed, config, &mut FmWorkspace::default(), None)
    }

    /// Two tight clusters joined by one weak net; start with a bad split.
    fn clustered() -> Hypergraph {
        let mut hg = Hypergraph::new(8);
        for c in [0u32, 4] {
            hg.add_net(&[c, c + 1], 4.0);
            hg.add_net(&[c + 1, c + 2], 4.0);
            hg.add_net(&[c + 2, c + 3], 4.0);
            hg.add_net(&[c, c + 3], 4.0);
        }
        hg.add_net(&[0, 4], 1.0);
        hg.finalize();
        hg
    }

    /// The float comparator the integer key replaced: gain by
    /// `partial_cmp`, then vertex.
    fn float_order(a: (f64, u32), b: (f64, u32)) -> std::cmp::Ordering {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.cmp(&b.1))
    }

    #[test]
    fn heap_key_orders_like_the_float_comparator() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xF1D0);
        // Ties, both zeros, integer-valued and tiny gains of both signs,
        // and the extremes of the finite range.
        let special = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.0,
            -2.0,
            3.0,
            0.5,
            -0.5,
            1e-300,
            -1e-300,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
        ];
        let mut pairs: Vec<(f64, u32)> = Vec::new();
        for &g in &special {
            for v in [0u32, 1, 7, u32::MAX] {
                pairs.push((g, v));
            }
        }
        for _ in 0..400 {
            let g = match rng.random_range(0..4) {
                0 => rng.random_range(-8i32..8) as f64,
                1 => rng.random_range(-1.0e-12..1.0e-12),
                2 => rng.random_range(-1.0e6..1.0e6),
                _ => special[rng.random_range(0..special.len())],
            };
            pairs.push((g, rng.random_range(0..16)));
        }
        for &a in &pairs {
            let ka = Candidate::new(a.0, a.1);
            let canonical = if a.0 == 0.0 { 0.0 } else { a.0 };
            assert_eq!(ka.gain().to_bits(), canonical.to_bits(), "decode {a:?}");
            assert_eq!(ka.vertex(), a.1);
            for &b in &pairs {
                let kb = Candidate::new(b.0, b.1);
                assert_eq!(ka.cmp(&kb), float_order(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn recovers_natural_clusters() {
        let hg = clustered();
        // Interleaved start: cut = all 8 cluster nets + maybe bridge.
        let mut sides = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let before = hg.cut(&sides);
        let fixed = vec![FixedSide::Free; 8];
        let gain = refine_fresh(&hg, &mut sides, &fixed, &BisectConfig::default());
        let after = hg.cut(&sides);
        assert!((before - gain - after).abs() < 1e-9, "gain accounting");
        assert_eq!(after, 1.0, "optimal split cuts only the bridge net");
        assert_eq!(sides[0], sides[1]);
        assert_eq!(sides[0], sides[2]);
        assert_eq!(sides[0], sides[3]);
        assert_ne!(sides[0], sides[4]);
    }

    #[test]
    fn respects_fixed_vertices() {
        let hg = clustered();
        let mut sides = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let mut fixed = vec![FixedSide::Free; 8];
        // Pin vertex 4 to side 0: the bridge can be uncut only by moving
        // the whole second cluster, which balance forbids... pin it and
        // verify it never moves.
        fixed[4] = FixedSide::Side1;
        sides[4] = 1;
        refine_fresh(&hg, &mut sides, &fixed, &BisectConfig::default());
        assert_eq!(sides[4], 1);
    }

    #[test]
    fn respects_balance() {
        // A star: center connected to 6 leaves. Unbalanced moves would put
        // everything on one side.
        let mut hg = Hypergraph::new(7);
        for leaf in 1..7u32 {
            hg.add_net(&[0, leaf], 1.0);
        }
        hg.finalize();
        let mut sides = vec![0, 0, 0, 1, 1, 1, 1];
        let cfg = BisectConfig {
            tolerance: 0.1,
            ..BisectConfig::default()
        };
        refine_fresh(&hg, &mut sides, &[FixedSide::Free; 7], &cfg);
        let w0 = sides.iter().filter(|&&s| s == 0).count();
        assert!((3..=4).contains(&w0), "split {w0}/7 violates tolerance");
    }

    #[test]
    fn no_negative_improvement() {
        let hg = clustered();
        let mut sides = vec![0, 0, 0, 0, 1, 1, 1, 1]; // already optimal
        let before = hg.cut(&sides);
        let gain = refine_fresh(
            &hg,
            &mut sides,
            &[FixedSide::Free; 8],
            &BisectConfig::default(),
        );
        assert!(gain >= 0.0);
        assert!(hg.cut(&sides) <= before);
    }

    #[test]
    fn workspace_reuse_is_equivalent_to_fresh_state() {
        // Run the same refinement twice through one workspace and once
        // through a fresh one; stale scratch must never leak through.
        let hg = clustered();
        let fixed = vec![FixedSide::Free; 8];
        let config = BisectConfig::default();
        let mut ws = FmWorkspace::default();
        let mut warmup = vec![0, 1, 1, 0, 1, 0, 0, 1];
        refine(&hg, &mut warmup, &fixed, &config, &mut ws, None);
        let mut reused = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let mut fresh = reused.clone();
        let g1 = refine(&hg, &mut reused, &fixed, &config, &mut ws, None);
        let g2 = refine_fresh(&hg, &mut fresh, &fixed, &config);
        assert_eq!(reused, fresh);
        assert_eq!(g1, g2);
    }

    #[test]
    fn stop_callback_halts_refinement_and_leaves_sides_legal() {
        let hg = clustered();
        let fixed = vec![FixedSide::Free; 8];
        let mut sides = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let before: Vec<u8> = sides.clone();
        let stop = || true;
        let gain = refine(
            &hg,
            &mut sides,
            &fixed,
            &BisectConfig::default(),
            &mut FmWorkspace::default(),
            Some(&stop),
        );
        // An immediately-firing stop means no pass ran at all.
        assert_eq!(gain, 0.0);
        assert_eq!(sides, before);
        assert!(sides.iter().all(|&s| s <= 1), "sides stay 0/1");
    }

    #[test]
    fn incremental_gains_match_fresh_recomputation() {
        // After a full pass the incremental gain array must agree with a
        // from-scratch recomputation for every unlocked configuration the
        // next pass would start from (counters describe `sides` exactly).
        let hg = clustered();
        let fixed = vec![FixedSide::Free; 8];
        let mut sides = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let mut ws = FmWorkspace::default();
        refine(
            &hg,
            &mut sides,
            &fixed,
            &BisectConfig::default(),
            &mut ws,
            None,
        );
        // Rebuild counters from the final sides and compare gain_of
        // against a second refine's initial state: a zero-gain fixpoint
        // must report no improvement.
        let second = refine(
            &hg,
            &mut sides,
            &fixed,
            &BisectConfig::default(),
            &mut ws,
            None,
        );
        assert_eq!(second, 0.0, "refinement converged to a fixpoint");
    }
}
