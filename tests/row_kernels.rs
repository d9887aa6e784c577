//! Property tests for the multi-lane row kernels and the rerouted
//! edge-loop call sites:
//!
//! * every multi-lane sketch kernel is **bit-identical** to its scalar
//!   row path at every lane count 1–4, over ragged tails, empty rows,
//!   and every word-tail remainder;
//! * every oracle's `estimate_row` / `jaccard_row` matches the pairwise
//!   `estimate` / `jaccard` bit-for-bit (including HLL, whose row path
//!   has its own lane-parallel harmonic sums);
//! * the rerouted clustering, `tc_estimator`, and `baselines::*`
//!   kernels reproduce their pre-refactor per-pair references on seed
//!   graphs — a row sweep per source is the only path those kernels
//!   take;
//! * the row-buffer reuse contract: a warm buffer is resized, never
//!   reallocated.

use probgraph::algorithms::clustering::{self, SimilarityKind};
use probgraph::baselines::heuristics;
use probgraph::intersect::intersect_card;
use probgraph::oracle::{ExactOracle, IntersectionOracle, OracleVisitor};
use probgraph::{tc_estimator, BfEstimator, PgConfig, ProbGraph, Representation};
use proptest::prelude::*;

use pg_sketch::bitvec::{and_count_words, and_count_words_multi};
use pg_sketch::{
    BloomCollection, BottomKCollection, HyperLogLogCollection, KmvCollection, MinHashCollection,
    PositionTable, SetGeometry,
};

fn test_sets(n: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut state = seed ^ 0xA5A5_5A5A;
    (0..n)
        .map(|s| {
            let len = (pg_hash::splitmix64(&mut state) % 200) as usize + s % 7;
            let mut v: Vec<u32> = (0..len)
                .map(|_| (pg_hash::splitmix64(&mut state) % 4096) as u32)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect()
}

/// Every representation the ProbGraph can resolve, HLL included.
fn all_reps() -> Vec<(PgConfig, &'static str)> {
    let mk = |r| PgConfig::new(r, 0.3).with_seed(0xFEED);
    vec![
        (mk(Representation::Bloom { b: 1 }), "BF1-AND"),
        (mk(Representation::Bloom { b: 2 }), "BF2-AND"),
        (
            mk(Representation::Bloom { b: 2 }).with_bf_estimator(BfEstimator::Limit),
            "BF2-L",
        ),
        (
            mk(Representation::Bloom { b: 2 }).with_bf_estimator(BfEstimator::Or),
            "BF2-OR",
        ),
        (mk(Representation::KHash), "kH"),
        (mk(Representation::OneHash), "1H"),
        (mk(Representation::Kmv), "KMV"),
        (mk(Representation::Hll), "HLL"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The multi-lane AND+popcount word kernel equals the scalar kernel
    /// per lane, for every lane count 1–4 and every word-tail remainder
    /// (the AVX-512 path has a masked tail block; `words % 8` sweeps it).
    #[test]
    fn bitvec_multi_lane_matches_scalar(words in 0usize..40, seed in 0u64..1000) {
        let mut state = seed ^ 0xBEEF;
        let mk = |state: &mut u64| -> Vec<u64> {
            (0..words).map(|_| pg_hash::splitmix64(state)).collect()
        };
        let a = mk(&mut state);
        let bs: Vec<Vec<u64>> = (0..4).map(|_| mk(&mut state)).collect();
        let want: Vec<usize> = bs.iter().map(|b| and_count_words(&a, b)).collect();
        prop_assert_eq!(and_count_words_multi(&a, [&bs[0][..]]), [want[0]]);
        prop_assert_eq!(
            and_count_words_multi(&a, [&bs[0][..], &bs[1][..]]),
            [want[0], want[1]]
        );
        prop_assert_eq!(
            and_count_words_multi(&a, [&bs[0][..], &bs[1][..], &bs[2][..]]),
            [want[0], want[1], want[2]]
        );
        prop_assert_eq!(
            and_count_words_multi(&a, [&bs[0][..], &bs[1][..], &bs[2][..], &bs[3][..]]),
            [want[0], want[1], want[2], want[3]]
        );
    }

    /// The multi-lane kernel over a collection's pinned row and filter
    /// windows equals the scalar fused pass per lane, all lane counts.
    #[test]
    fn bloom_and_ones_multi_matches_scalar(seed in 0u64..500, bits in 1usize..700) {
        let sets = test_sets(9, seed);
        let col = BloomCollection::build(sets.len(), bits, 2, seed, |i| &sets[i]);
        let row = col.words(0);
        let w = |j: usize| col.words(j);
        let want: Vec<usize> = (1..=4).map(|j| col.and_ones(0, j)).collect();
        prop_assert_eq!(and_count_words_multi(row, [w(1)]), [want[0]]);
        prop_assert_eq!(and_count_words_multi(row, [w(1), w(2)]), [want[0], want[1]]);
        prop_assert_eq!(
            and_count_words_multi(row, [w(1), w(2), w(3)]),
            [want[0], want[1], want[2]]
        );
        prop_assert_eq!(
            and_count_words_multi(row, [w(1), w(2), w(3), w(4)]),
            [want[0], want[1], want[2], want[3]]
        );
    }

    /// HLL multi-lane union estimates are bit-identical to the scalar
    /// row pass and the pairwise union, all lane counts.
    #[test]
    fn hll_union_multi_matches_scalar(seed in 0u64..500) {
        let sets = test_sets(9, seed);
        let col = HyperLogLogCollection::build(sets.len(), 7, seed, |i| &sets[i]);
        let row = col.registers(0);
        let want: Vec<f64> = (1..=4)
            .map(|j| {
                let u = col.union_estimate_with_row(row, j);
                assert_eq!(u, col.estimate_union(0, j), "scalar row != pairwise");
                u
            })
            .collect();
        prop_assert_eq!(col.union_estimates_multi(row, [1]), [want[0]]);
        prop_assert_eq!(col.union_estimates_multi(row, [1, 2]), [want[0], want[1]]);
        prop_assert_eq!(
            col.union_estimates_multi(row, [1, 2, 3]),
            [want[0], want[1], want[2]]
        );
        prop_assert_eq!(
            col.union_estimates_multi(row, [1, 2, 3, 4]),
            [want[0], want[1], want[2], want[3]]
        );
    }

    /// The two-lane interleaved KMV walk is bit-identical to two scalar
    /// estimates, across lossless/sampled sketch combinations.
    #[test]
    fn kmv_x2_matches_scalar(seed in 0u64..500, k in 1usize..48) {
        let sets = test_sets(7, seed);
        let col = KmvCollection::build(sets.len(), k, seed, |i| &sets[i]);
        for i in 0..sets.len() {
            let s = col.sketch(i);
            for j in 0..sets.len() - 1 {
                let (e0, e1) = s.estimate_intersection_x2(col.sketch(j), col.sketch(j + 1));
                prop_assert_eq!(e0, s.estimate_intersection(col.sketch(j)));
                prop_assert_eq!(e1, s.estimate_intersection(col.sketch(j + 1)));
            }
        }
    }

    /// The 1-hash position kernel equals the pairwise merge, for
    /// intersection and for Jaccard, over lossless and sampled samples,
    /// empty ones, unequal (stratified) caps, and element ids up to
    /// `spread` times the universe, far above the set count.
    #[test]
    fn onehash_row_kernel_matches_pairwise_merge(
        seed in 0u64..500,
        k in 1usize..40,
        spread in 1u32..4000,
    ) {
        let mut sets = test_sets(14, seed);
        sets[3].clear();
        for v in &mut sets {
            v.iter_mut().for_each(|x| *x *= spread);
        }
        let assign: Vec<u8> = (0..sets.len()).map(|i| (i % 3) as u8).collect();
        let geoms = [
            SetGeometry::uniform(sets.len(), k),
            SetGeometry::stratified(vec![4 * k, 2 * k, k], assign),
        ];
        let js: Vec<u32> = (0..sets.len() as u32).rev().collect();
        let (mut inter, mut jacc) = (vec![0.0; js.len()], vec![0.0; js.len()]);
        let mut table = PositionTable::default();
        for geom in geoms {
            let col = BottomKCollection::build_on(geom, seed, |i| &sets[i][..]);
            for i in 0..sets.len() {
                col.intersection_row_into(i, &js, &mut table, &mut inter);
                col.jaccard_row_into(i, &js, &mut table, &mut jacc);
                for (t, &j) in js.iter().enumerate() {
                    let j = j as usize;
                    let (e, ej) = (col.estimate_intersection(i, j), col.estimate_jaccard(i, j));
                    prop_assert!(inter[t] == e, "({}, {}): {} vs {}", i, j, inter[t], e);
                    prop_assert!(jacc[t] == ej, "({}, {}): {} vs {}", i, j, jacc[t], ej);
                }
            }
        }
    }

    /// Pinned-row signature matching equals pairwise matching.
    #[test]
    fn khash_matches_multi_matches_scalar(seed in 0u64..500, k in 1usize..64) {
        let sets = test_sets(9, seed);
        let col = MinHashCollection::build(sets.len(), k, seed, |i| &sets[i]);
        let row = col.signature(0);
        for j in 1..=4usize {
            prop_assert_eq!(col.matches_with_row(row, j), col.matches(0, j));
        }
    }

    /// `estimate_row` and `jaccard_row` agree bit-for-bit with pairwise
    /// `estimate`/`jaccard` for every representation (HLL included), on
    /// ragged rows of every length 0..n — this covers every multi-lane
    /// kernel's 4/2/1 tail split inside the oracles.
    #[test]
    fn oracle_rows_match_pairwise_for_all_representations(
        n in 20usize..90,
        edge_factor in 2usize..10,
        seed in 0u64..200,
    ) {
        let g = pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed);
        struct RowCheck<'a>(&'a pg_graph::CsrGraph);
        impl OracleVisitor for RowCheck<'_> {
            type Output = Result<(), String>;
            fn visit<O: IntersectionOracle>(self, o: &O) -> Self::Output {
                let mut row = Vec::new();
                for v in 0..self.0.num_vertices() as u32 {
                    // Sweep prefixes so every tail length is exercised.
                    let nv = self.0.neighbors(v);
                    for len in [0, 1, 2, 3, nv.len().saturating_sub(1), nv.len()] {
                        let us = &nv[..len.min(nv.len())];
                        o.estimate_row(v, us, &mut row);
                        for (t, &u) in us.iter().enumerate() {
                            if row[t] != o.estimate(v, u) {
                                return Err(format!("estimate_row v={v} u={u}"));
                            }
                        }
                        o.jaccard_row(v, us, &mut row);
                        for (t, &u) in us.iter().enumerate() {
                            if row[t] != o.jaccard(v, u) {
                                return Err(format!("jaccard_row v={v} u={u}"));
                            }
                        }
                    }
                }
                Ok(())
            }
        }
        for (cfg, label) in all_reps() {
            let pg = ProbGraph::build(&g, &cfg);
            let res = pg.with_oracle(RowCheck(&g));
            prop_assert!(res.is_ok(), "{}: {:?}", label, res);
        }
    }

    /// The rerouted Jarvis–Patrick kernel (edges grouped by source into
    /// row sweeps) selects exactly the edges the pre-refactor per-pair
    /// loop selects, for every representation and similarity kind.
    #[test]
    fn rerouted_clustering_matches_per_pair_reference(
        n in 20usize..80,
        edge_factor in 2usize..8,
        seed in 0u64..100,
        tau in 0.0f64..0.6,
    ) {
        let g = pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed);
        let edges = g.edge_list();
        for kind in [
            SimilarityKind::CommonNeighbors,
            SimilarityKind::Jaccard,
            SimilarityKind::Overlap,
        ] {
            // Absolute-count threshold for CN, fractional for the others.
            let tau = if kind == SimilarityKind::CommonNeighbors { tau * 10.0 } else { tau };
            for (cfg, label) in all_reps() {
                let pg = ProbGraph::build(&g, &cfg);
                let c = clustering::jarvis_patrick_pg(&g, &pg, kind, tau);
                // Pre-refactor reference: per-pair similarity via the
                // pairwise estimator entry points.
                for (i, &(u, v)) in edges.iter().enumerate() {
                    let sim = match kind {
                        SimilarityKind::CommonNeighbors => {
                            pg.estimate_intersection(u, v).max(0.0)
                        }
                        SimilarityKind::Jaccard => pg.estimate_jaccard(u, v),
                        SimilarityKind::Overlap => {
                            let m = g.degree(u).min(g.degree(v));
                            if m == 0 {
                                0.0
                            } else {
                                (pg.estimate_intersection(u, v).max(0.0) / m as f64)
                                    .clamp(0.0, 1.0)
                            }
                        }
                    };
                    prop_assert!(
                        c.selected[i] == (sim > tau),
                        "{} {:?} edge {} ({},{})",
                        label,
                        kind,
                        i,
                        u,
                        v
                    );
                }
            }
        }
    }

    /// The rerouted `tc_estimate` (row sweeps through `with_oracle`)
    /// equals the pre-refactor per-edge `estimate_intersection` sum up to
    /// float association order.
    #[test]
    fn rerouted_tc_estimator_matches_per_pair_reference(
        n in 20usize..90,
        edge_factor in 2usize..10,
        seed in 0u64..100,
    ) {
        let g = pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed);
        for (cfg, label) in all_reps() {
            let pg = ProbGraph::build(&g, &cfg);
            let rerouted = tc_estimator::tc_estimate(&g, &pg);
            let mut per_pair = 0.0f64;
            for (u, v) in g.edges() {
                per_pair += pg.estimate_intersection(u, v).max(0.0);
            }
            per_pair /= 3.0;
            let tol = 1e-12 * per_pair.abs().max(1.0);
            prop_assert!(
                (rerouted - per_pair).abs() <= tol,
                "{label}: rerouted {rerouted} != per-pair {per_pair}"
            );
        }
    }

    /// The rerouted heuristics baselines equal their pre-refactor
    /// per-pair `intersect_card` loops exactly (integer summands).
    #[test]
    fn rerouted_heuristics_match_per_pair_reference(
        n in 20usize..80,
        edge_factor in 2usize..8,
        seed in 0u64..100,
        rho in 0.3f64..1.0,
    ) {
        let g = pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed);
        let dag = pg_graph::orient_by_degree(&g);
        // Reduced Execution reference: the pre-refactor loop.
        let coin = |s: u64, idx: u64| {
            let h = pg_hash::splitmix64_at(s ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            (h as f64 / u64::MAX as f64) < rho
        };
        let mut total = 0u64;
        for v in 0..dag.num_vertices() as u32 {
            if !coin(seed, v as u64) {
                continue;
            }
            let np = dag.neighbors_plus(v);
            for &u in np {
                total += intersect_card(np, dag.neighbors_plus(u)) as u64;
            }
        }
        let reference = total as f64 / rho;
        prop_assert_eq!(heuristics::reduced_execution_tc(&g, rho, seed), reference);
        // Partial Processing reference: replicate the deterministic
        // per-(owner, slot) retention sampler and the per-pair loop.
        let sampled: Vec<Vec<u32>> = (0..dag.num_vertices())
            .map(|v| {
                dag.neighbors_plus(v as u32)
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| coin(seed ^ 0x9a77, ((v as u64) << 24) | i as u64))
                    .map(|(_, &u)| u)
                    .collect()
            })
            .collect();
        let mut pp_total = 0u64;
        for v in 0..dag.num_vertices() {
            for &u in &sampled[v] {
                pp_total += intersect_card(&sampled[v], &sampled[u as usize]) as u64;
            }
        }
        let pp_reference = pp_total as f64 / (rho * rho * rho);
        prop_assert_eq!(heuristics::partial_processing_tc(&g, rho, seed), pp_reference);
    }
}

/// The heuristics' ProbGraph-composed forms run end-to-end for every
/// representation and stay on the same scale as their exact forms.
#[test]
fn heuristics_pg_variants_run_for_every_representation() {
    let g = pg_graph::gen::erdos_renyi_gnm(200, 200 * 15, 9);
    let exact = probgraph::algorithms::triangles::count_exact(&g) as f64;
    for (cfg, label) in all_reps() {
        let re = heuristics::reduced_execution_tc_pg(&g, &cfg, 0.5, 7);
        let pp = heuristics::partial_processing_tc_pg(&g, &cfg, 0.5, 7);
        for (name, est) in [("reduced", re), ("partial", pp)] {
            let rel = est / exact.max(1.0);
            assert!(
                (0.05..20.0).contains(&rel),
                "{label} {name}: est={est} exact={exact}"
            );
        }
    }
}

/// Warm row buffers are reused, never reallocated: after one sweep the
/// buffer's capacity is pinned at the widest row.
#[test]
fn row_buffer_reuse_contract_holds() {
    let g = pg_graph::gen::erdos_renyi_gnm(150, 150 * 10, 3);
    let o = ExactOracle::new(&g);
    let mut row = Vec::new();
    let max_deg = (0..g.num_vertices() as u32)
        .map(|v| g.neighbors(v).len())
        .max()
        .unwrap();
    // Warm-up sweep grows the buffer to the widest row.
    for v in 0..g.num_vertices() as u32 {
        o.estimate_row(v, g.neighbors(v), &mut row);
    }
    assert!(row.capacity() >= max_deg);
    let cap = row.capacity();
    let ptr = row.as_ptr();
    // Every further sweep reuses the same allocation.
    for v in 0..g.num_vertices() as u32 {
        o.estimate_row(v, g.neighbors(v), &mut row);
        assert_eq!(row.capacity(), cap);
        assert!(std::ptr::eq(ptr, row.as_ptr()));
    }
}

/// `forward_neighbors` is exactly the strictly-greater suffix, and the
/// forward runs partition the edge list in order — the invariant the
/// grouped edge kernels rely on.
#[test]
fn forward_runs_partition_edge_list() {
    for seed in 0..5u64 {
        let g = pg_graph::gen::erdos_renyi_gnm(120, 1400, seed);
        let edges = g.edge_list();
        let mut rebuilt = Vec::new();
        for u in 0..g.num_vertices() as u32 {
            for &v in g.forward_neighbors(u) {
                assert!(v > u);
                rebuilt.push((u, v));
            }
        }
        assert_eq!(rebuilt, edges);
    }
}

/// An exchange worker's row-range sub-store holds global element ids
/// above its own set count; its 1-hash rows still equal its pairwise
/// estimates, uniform and stratified.
#[test]
fn onehash_sub_store_rows_match_pairwise() {
    let g = pg_graph::gen::chung_lu(1200, 9000, 2.3, 5);
    let dag = pg_graph::orient_by_degree(&g);
    let cfg = PgConfig::new(Representation::OneHash, 0.5).with_seed(77);
    for cfg in [
        cfg.clone(),
        cfg.with_strata(pg_sketch::StrataSpec::skewed_default()),
    ] {
        let full = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
        let rows: Vec<u32> = (700..760).collect();
        let sub = ProbGraph::build_rows_stratified(
            rows.len(),
            full.resolved_params()
                .select(rows.iter().map(|&u| u as usize)),
            full.bf_estimator(),
            full.seed(),
            |i| dag.neighbors_plus(rows[i]),
        );
        let ids_above = (0..rows.len()).any(|i| {
            dag.neighbors_plus(rows[i])
                .iter()
                .any(|&x| x as usize >= rows.len())
        });
        assert!(ids_above, "the sub-store must hold ids above its set count");
        struct RowCheck(usize);
        impl OracleVisitor for RowCheck {
            type Output = Result<(), String>;
            fn visit<O: IntersectionOracle>(self, o: &O) -> Self::Output {
                let us: Vec<u32> = (0..self.0 as u32).collect();
                let mut row = Vec::new();
                for v in 0..self.0 as u32 {
                    o.estimate_row(v, &us, &mut row);
                    for (t, &u) in us.iter().enumerate() {
                        if row[t] != o.estimate(v, u) {
                            return Err(format!("estimate_row v={v} u={u}"));
                        }
                    }
                    o.jaccard_row(v, &us, &mut row);
                    for (t, &u) in us.iter().enumerate() {
                        if row[t] != o.jaccard(v, u) {
                            return Err(format!("jaccard_row v={v} u={u}"));
                        }
                    }
                }
                Ok(())
            }
        }
        sub.with_oracle(RowCheck(rows.len())).unwrap();
    }
}
