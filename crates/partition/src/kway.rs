//! K-way partitioning by recursive bisection.
//!
//! The placer's 3D recursive bisection effectively builds a k-way
//! partition level by level; this module packages the same construction
//! as a standalone API for users who want `k` balanced parts directly
//! (e.g. one part per device layer).

use crate::{bisect, BisectConfig, FixedSide, Hypergraph};
use tvp_parallel as parallel;

/// Below this many vertices a subtree is recursed serially: the bisection
/// itself is microseconds, so handing both halves to the worker pool
/// costs more than it saves. Results are identical either way — sibling
/// subtrees share no state and their seeds derive from tree depth alone.
const KWAY_PARALLEL_MIN_VERTICES: usize = 256;

/// Result of a k-way partition.
#[derive(Clone, PartialEq, Debug)]
pub struct KwayPartition {
    /// Part index (0..k) of each vertex.
    pub parts: Vec<u32>,
    /// Number of parts.
    pub k: u32,
    /// Weighted hyperedge cut: total weight of nets spanning ≥ 2 parts.
    pub cut: f64,
    /// Weighted connectivity metric: Σ over nets of `w·(λ − 1)` where `λ`
    /// is the number of parts the net touches.
    pub connectivity: f64,
    /// Total vertex weight per part.
    pub part_weights: Vec<f64>,
}

impl KwayPartition {
    /// Largest relative deviation of any part from the mean part weight.
    pub fn imbalance(&self) -> f64 {
        let total: f64 = self.part_weights.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let mean = total / self.part_weights.len() as f64;
        self.part_weights
            .iter()
            .map(|w| (w - mean).abs() / mean)
            .fold(0.0, f64::max)
    }
}

/// Partitions `hg` into `k` balanced parts by recursive bisection.
///
/// Uneven `k` splits allocate `ceil/floor` halves with matching target
/// fractions, so any `k ≥ 1` is supported.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn partition_kway(hg: &Hypergraph, k: u32, config: &BisectConfig) -> KwayPartition {
    assert!(k >= 1, "k must be at least 1");
    let n = hg.num_vertices();
    let all: Vec<u32> = (0..n as u32).collect();
    // `all` is the identity ordering, so the returned slice-aligned parts
    // are already indexed by vertex.
    let parts = split_recursive(hg, &all, 0, k, config, 0);

    // Metrics.
    let mut cut = 0.0;
    let mut connectivity = 0.0;
    let mut touched: Vec<u32> = Vec::new();
    for e in 0..hg.num_nets() as u32 {
        touched.clear();
        for &v in hg.net(e) {
            let p = parts[v as usize];
            if !touched.contains(&p) {
                touched.push(p);
            }
        }
        if touched.len() > 1 {
            cut += hg.net_weight(e);
            connectivity += hg.net_weight(e) * (touched.len() - 1) as f64;
        }
    }
    let mut part_weights = vec![0.0; k as usize];
    for (v, &p) in parts.iter().enumerate() {
        part_weights[p as usize] += hg.vertex_weight(v as u32);
    }
    KwayPartition {
        parts,
        k,
        cut,
        connectivity,
        part_weights,
    }
}

/// Recursively partitions `vertices` into parts `first_part..first_part+k`
/// and returns the part of each vertex, aligned with the `vertices` slice.
///
/// Returning assignments (instead of scattering into a shared array)
/// keeps the two sibling recursions free of shared mutable state, so
/// large subtrees run concurrently via [`parallel::join`].
fn split_recursive(
    hg: &Hypergraph,
    vertices: &[u32],
    first_part: u32,
    k: u32,
    config: &BisectConfig,
    depth: u64,
) -> Vec<u32> {
    if k == 1 || vertices.is_empty() {
        return vec![first_part; vertices.len()];
    }
    let k0 = k.div_ceil(2);
    let k1 = k - k0;

    // Build the sub-hypergraph induced on `vertices`.
    let mut local_of = vec![u32::MAX; hg.num_vertices()];
    let mut weights = Vec::with_capacity(vertices.len());
    for (i, &v) in vertices.iter().enumerate() {
        local_of[v as usize] = i as u32;
        weights.push(hg.vertex_weight(v));
    }
    let mut sub = Hypergraph::with_vertex_weights(weights);
    let mut pins = Vec::new();
    for e in 0..hg.num_nets() as u32 {
        pins.clear();
        for &v in hg.net(e) {
            let l = local_of[v as usize];
            if l != u32::MAX {
                pins.push(l);
            }
        }
        if pins.len() >= 2 {
            sub.add_net(&pins, hg.net_weight(e));
        }
    }
    sub.finalize();

    let sub_config = BisectConfig {
        target_fraction: k0 as f64 / k as f64,
        seed: config.seed.wrapping_add(depth.wrapping_mul(0x9E37_79B9)),
        ..config.clone()
    };
    let fixed = vec![FixedSide::Free; vertices.len()];
    let result = bisect(&sub, &fixed, &sub_config, None);

    // Split into sides, remembering each vertex's position in `vertices`
    // so the children's results can be scattered back into alignment.
    let mut side0 = Vec::new();
    let mut side1 = Vec::new();
    let mut idx0 = Vec::new();
    let mut idx1 = Vec::new();
    for (i, &v) in vertices.iter().enumerate() {
        if result.side(i as u32) == 0 {
            side0.push(v);
            idx0.push(i);
        } else {
            side1.push(v);
            idx1.push(i);
        }
    }
    // Degenerate guard: force an even split so recursion terminates.
    if side0.is_empty() || side1.is_empty() {
        let mut merged = side0;
        merged.append(&mut side1);
        let mut merged_idx = idx0;
        merged_idx.append(&mut idx1);
        let half = merged.len() * k0 as usize / k as usize;
        let half = half.max(1).min(merged.len().saturating_sub(1)).max(1);
        side1 = merged.split_off(half);
        side0 = merged;
        idx1 = merged_idx.split_off(half);
        idx0 = merged_idx;
    }
    let (r0, r1) = if vertices.len() >= KWAY_PARALLEL_MIN_VERTICES {
        parallel::join(
            || split_recursive(hg, &side0, first_part, k0, config, depth * 2 + 1),
            || split_recursive(hg, &side1, first_part + k0, k1, config, depth * 2 + 2),
        )
    } else {
        (
            split_recursive(hg, &side0, first_part, k0, config, depth * 2 + 1),
            split_recursive(hg, &side1, first_part + k0, k1, config, depth * 2 + 2),
        )
    };
    let mut out = vec![0u32; vertices.len()];
    for (j, &i) in idx0.iter().enumerate() {
        out[i] = r0[j];
    }
    for (j, &i) in idx1.iter().enumerate() {
        out[i] = r1[j];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// `k` cliques chained by weak bridges — the natural k-way answer is
    /// one clique per part.
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
                hg.add_net(&[base, base + size as u32], 0.1);
            }
        }
        hg.finalize();
        hg
    }

    #[test]
    fn four_way_recovers_four_cliques() {
        let hg = clique_chain(4, 8);
        let result = partition_kway(&hg, 4, &BisectConfig::default());
        assert_eq!(result.k, 4);
        // Each clique must land in one part.
        for c in 0..4 {
            let first = result.parts[c * 8];
            for i in 0..8 {
                assert_eq!(result.parts[c * 8 + i], first, "clique {c} split");
            }
        }
        // Cut = the 3 bridges only.
        assert!((result.cut - 0.3).abs() < 1e-9, "cut {}", result.cut);
        assert!(
            result.imbalance() < 1e-9,
            "perfectly balanced by construction"
        );
    }

    #[test]
    fn parts_cover_the_requested_range() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut hg = Hypergraph::new(90);
        for _ in 0..200 {
            let a = rng.random_range(0..90u32);
            let b = rng.random_range(0..90u32);
            if a != b {
                hg.add_net(&[a, b], 1.0);
            }
        }
        hg.finalize();
        for k in [1u32, 2, 3, 5, 7] {
            let result = partition_kway(&hg, k, &BisectConfig::default());
            let used: std::collections::HashSet<u32> = result.parts.iter().copied().collect();
            assert!(used.iter().all(|&p| p < k));
            assert_eq!(used.len(), k as usize, "k = {k}: every part used");
            assert!(
                result.imbalance() < 0.5,
                "k = {k}: imbalance {}",
                result.imbalance()
            );
            assert!(result.connectivity >= result.cut);
        }
    }

    #[test]
    fn one_way_is_trivial() {
        let hg = clique_chain(2, 4);
        let result = partition_kway(&hg, 1, &BisectConfig::default());
        assert!(result.parts.iter().all(|&p| p == 0));
        assert_eq!(result.cut, 0.0);
        assert_eq!(result.connectivity, 0.0);
    }

    #[test]
    fn connectivity_exceeds_cut_for_spanning_nets() {
        // One net touching all 4 parts: cut 1, connectivity 3.
        let mut hg = Hypergraph::new(8);
        hg.add_net(&[0, 2, 4, 6], 1.0);
        // Pair the vertices so bisection keeps {2i, 2i+1} together.
        for i in 0..4u32 {
            hg.add_net(&[2 * i, 2 * i + 1], 10.0);
        }
        hg.finalize();
        let result = partition_kway(&hg, 4, &BisectConfig::default());
        assert_eq!(result.cut, 1.0);
        assert_eq!(result.connectivity, 3.0);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_parts_rejected() {
        let hg = Hypergraph::new(4);
        let _ = partition_kway(&hg, 0, &BisectConfig::default());
    }

    #[test]
    fn parallel_recursion_matches_serial_bitwise() {
        // Large enough that the sibling recursion crosses
        // KWAY_PARALLEL_MIN_VERTICES and actually forks.
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 600u32;
        let mut hg = Hypergraph::new(n as usize);
        for i in 0..n {
            hg.add_net(&[i, (i + 1) % n], 1.0);
        }
        for _ in 0..300 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a != b {
                hg.add_net(&[a, b], 1.0);
            }
        }
        hg.finalize();
        let serial = parallel::with_threads(1, || partition_kway(&hg, 5, &BisectConfig::default()));
        for threads in [2, 4] {
            let par = parallel::with_threads(threads, || {
                partition_kway(&hg, 5, &BisectConfig::default())
            });
            assert_eq!(serial, par, "threads = {threads}");
        }
    }
}
