//! Property-based tests for the multilevel bisector.

use proptest::prelude::*;
use tvp_partition::{bisect, BisectConfig, Bisection, FixedSide, Hypergraph};

/// Random hypergraph: vertex weights plus nets of 2–6 distinct vertices.
fn hypergraph_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<u32>>)> {
    (4usize..40).prop_flat_map(|n| {
        let weights = prop::collection::vec(0.1f64..10.0, n);
        let nets = prop::collection::vec(
            prop::collection::hash_set(0..n as u32, 2..(n.min(6) + 1)),
            1..50,
        )
        .prop_map(|nets| {
            nets.into_iter()
                .map(|s| s.into_iter().collect::<Vec<u32>>())
                .collect::<Vec<_>>()
        });
        (weights, nets)
    })
}

/// Unconstrained, uncancelled bisection.
fn bisect_free(hg: &Hypergraph, config: &BisectConfig) -> Bisection {
    bisect(hg, &vec![FixedSide::Free; hg.num_vertices()], config, None)
}

fn build(weights: &[f64], nets: &[Vec<u32>]) -> Hypergraph {
    let mut hg = Hypergraph::with_vertex_weights(weights.to_vec());
    for net in nets {
        hg.add_net(net, 1.0);
    }
    hg.finalize();
    hg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bisection_invariants((weights, nets) in hypergraph_strategy()) {
        let hg = build(&weights, &nets);
        let result = bisect_free(&hg, &BisectConfig::default());

        // Every vertex got a side, and sides are 0/1.
        prop_assert_eq!(result.sides.len(), hg.num_vertices());
        prop_assert!(result.sides.iter().all(|&s| s <= 1));

        // The reported cut equals an independent recomputation.
        prop_assert!((result.cut - hg.cut(&result.sides)).abs() < 1e-9);

        // Reported side weights match the assignment.
        let mut w = [0.0f64; 2];
        for (v, &s) in result.sides.iter().enumerate() {
            w[s as usize] += hg.vertex_weight(v as u32);
        }
        prop_assert!((w[0] - result.side_weights[0]).abs() < 1e-9);
        prop_assert!((w[1] - result.side_weights[1]).abs() < 1e-9);

        // Balance: within tolerance plus the single-vertex FM slack.
        let total = hg.total_vertex_weight();
        let wmax = (0..hg.num_vertices() as u32)
            .map(|v| hg.vertex_weight(v))
            .fold(0.0f64, f64::max);
        let limit = 0.6 * total + wmax + 1e-9;
        prop_assert!(w[0] <= limit, "side0 = {}, limit = {}", w[0], limit);
        prop_assert!(w[1] <= limit, "side1 = {}, limit = {}", w[1], limit);
    }

    #[test]
    fn fixed_vertices_always_respected(
        (weights, nets) in hypergraph_strategy(),
        pins in prop::collection::vec(0usize..40, 1..6),
    ) {
        let hg = build(&weights, &nets);
        let n = hg.num_vertices();
        let mut fixed = vec![FixedSide::Free; n];
        for (i, &p) in pins.iter().enumerate() {
            let v = p % n;
            fixed[v] = if i % 2 == 0 { FixedSide::Side0 } else { FixedSide::Side1 };
        }
        let result = bisect(&hg, &fixed, &BisectConfig::default(), None);
        for (v, &f) in fixed.iter().enumerate() {
            match f {
                FixedSide::Side0 => prop_assert_eq!(result.sides[v], 0),
                FixedSide::Side1 => prop_assert_eq!(result.sides[v], 1),
                FixedSide::Free => {}
            }
        }
    }

    #[test]
    fn determinism((weights, nets) in hypergraph_strategy()) {
        let hg = build(&weights, &nets);
        let config = BisectConfig::default().with_seed(7);
        let a = bisect_free(&hg, &config);
        let b = bisect_free(&hg, &config);
        prop_assert_eq!(a, b);
    }

    /// The deterministic-merge contract: the multilevel V-cycle fans its
    /// starts across the worker pool, but the winner is folded in start
    /// order, so the full bisection (sides, cut, side weights) must be
    /// bitwise identical whether the pool has one worker or four.
    #[test]
    fn parallel_bisection_bitwise_equals_serial((weights, nets) in hypergraph_strategy()) {
        let hg = build(&weights, &nets);
        let config = BisectConfig::default().with_seed(11).with_starts(4);
        let serial = tvp_parallel::with_threads(1, || bisect_free(&hg, &config));
        for threads in [2usize, 4] {
            let parallel = tvp_parallel::with_threads(threads, || bisect_free(&hg, &config));
            prop_assert_eq!(&serial, &parallel,
                "bisection diverged between 1 and {} threads", threads);
        }
    }

    #[test]
    fn cut_never_exceeds_total_net_weight((weights, nets) in hypergraph_strategy()) {
        let hg = build(&weights, &nets);
        let result = bisect_free(&hg, &BisectConfig::default());
        prop_assert!(result.cut <= nets.len() as f64 + 1e-9);
        prop_assert!(result.cut >= 0.0);
    }
}
