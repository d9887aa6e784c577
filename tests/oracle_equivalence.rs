//! Property tests for the monomorphized intersection-oracle layer:
//!
//! * every generic-oracle kernel, run with the **exact oracle**, is
//!   bit-identical to an independent exact reference implementation (the
//!   pre-refactor per-algorithm loops, reproduced here);
//! * every generic-oracle kernel, run through `ProbGraph::with_oracle`,
//!   is numerically identical (same seed) to the per-edge
//!   `estimate_intersection` / `estimate_jaccard` path it replaced, for
//!   Bloom (AND/Limit/OR), k-hash, 1-hash, and KMV;
//! * the new HLL representation tracks exact triangle counts within a
//!   sanity band on the generator families;
//! * every element-storing oracle answers a member query against a set's
//!   own elements exactly, and the Bloom 4-clique count is exactly the
//!   rank-suffix membership count, bounded by the exact count below and
//!   the unrestricted membership loop above.

use pg_graph::{orient_by_degree, OrientedDag};
use pg_sketch::{BloomCollection, StrataSpec};
use probgraph::algorithms::{cliques, clustering, clustering_coeff, triangles};
use probgraph::intersect::{intersect_card, intersect_set};
use probgraph::oracle::{ExactOracle, IntersectionOracle, OracleVisitor};
use probgraph::{BfEstimator, PgConfig, ProbGraph, Representation, SketchStoreIn};
use proptest::prelude::*;

/// Reference exact triangle count: the pre-refactor hand-written loop.
fn reference_tc(dag: &pg_graph::OrientedDag) -> u64 {
    let mut tc = 0u64;
    for v in 0..dag.num_vertices() as u32 {
        let np = dag.neighbors_plus(v);
        for &u in np {
            tc += intersect_card(np, dag.neighbors_plus(u)) as u64;
        }
    }
    tc
}

/// Reference exact 4-clique count: the pre-refactor hand-written loop.
fn reference_c4(dag: &pg_graph::OrientedDag) -> u64 {
    let mut c4 = 0u64;
    let mut c3 = Vec::new();
    for u in 0..dag.num_vertices() as u32 {
        let nu = dag.neighbors_plus(u);
        for &v in nu {
            intersect_set(nu, dag.neighbors_plus(v), &mut c3);
            for &w in &c3 {
                c4 += intersect_card(dag.neighbors_plus(w), &c3) as u64;
            }
        }
    }
    c4
}

/// Per-edge reference of the approximate triangle count: the pre-refactor
/// loop dispatching the representation enum on every edge.
fn reference_tc_pg(dag: &pg_graph::OrientedDag, pg: &ProbGraph) -> f64 {
    let mut tc = 0.0f64;
    for v in 0..dag.num_vertices() as u32 {
        for &u in dag.neighbors_plus(v) {
            tc += pg.estimate_intersection(v, u).max(0.0);
        }
    }
    tc
}

/// `C3 = N⁺_u ∩ N⁺_v`, sorted by ID, by a naive filter (independent of
/// the library's merge).
fn naive_c3(dag: &OrientedDag, u: u32, v: u32) -> Vec<u32> {
    let nv = dag.neighbors_plus(v);
    dag.neighbors_plus(u)
        .iter()
        .copied()
        .filter(|x| nv.binary_search(x).is_ok())
        .collect()
}

/// The per-member 4-clique loop the kernel ran before the member-sum hook,
/// against a ProbGraph's resolved oracle: `estimate_vs_members` for each
/// `w ∈ C3`, clamped at 0, summed in the order of a 1-thread run (per
/// vertex, then across vertices).
struct PerMember<'a>(&'a OrientedDag);
impl OracleVisitor for PerMember<'_> {
    type Output = f64;
    fn visit<O: IntersectionOracle>(self, o: &O) -> f64 {
        let dag = self.0;
        let mut acc = 0.0f64;
        for u in 0..dag.num_vertices() as u32 {
            let mut local = 0.0f64;
            for &v in dag.neighbors_plus(u) {
                let c3 = naive_c3(dag, u, v);
                for &w in &c3 {
                    local += o.estimate_vs_members(w, &c3).max(0.0);
                }
            }
            acc += local;
        }
        acc
    }
}

/// The Bloom filters a Bloom or counting-Bloom store answers queries from.
fn bloom_view(pg: &ProbGraph) -> &BloomCollection {
    match pg.store() {
        SketchStoreIn::Bloom(c) => c,
        SketchStoreIn::CountingBloom(c) => c.read_view(),
        _ => panic!("not a Bloom store"),
    }
}

/// Bloom 4-clique membership count over every oriented edge:
/// `Σ_{w∈C3} #{x ∈ C3 : contains(w, x)}`, restricted to `x` ranked above
/// `w` when `rank_suffix` holds. Without the restriction it is the
/// per-member loop the rank suffix replaced.
fn reference_c4_bloom(dag: &OrientedDag, pg: &ProbGraph, rank_suffix: bool) -> f64 {
    let col = bloom_view(pg);
    let rank = dag.rank();
    let mut c4 = 0u64;
    for u in 0..dag.num_vertices() as u32 {
        for &v in dag.neighbors_plus(u) {
            let c3 = naive_c3(dag, u, v);
            for &w in &c3 {
                for &x in &c3 {
                    let above = rank[x as usize] > rank[w as usize];
                    if (above || !rank_suffix) && col.contains(w as usize, x) {
                        c4 += 1;
                    }
                }
            }
        }
    }
    c4 as f64
}

/// The Bloom configurations whose 4-clique path the rank suffix serves.
fn bloom_clique_reps() -> Vec<(PgConfig, &'static str)> {
    let mk = |r| PgConfig::new(r, 0.25).with_seed(0xC11C);
    vec![
        (mk(Representation::Bloom { b: 1 }), "BF1"),
        (mk(Representation::Bloom { b: 2 }), "BF2"),
        (
            mk(Representation::Bloom { b: 2 }).with_bf_estimator(BfEstimator::Limit),
            "BF2-L",
        ),
        (mk(Representation::CountingBloom { b: 2 }), "CBF2"),
        (
            mk(Representation::Bloom { b: 2 }).with_strata(StrataSpec::skewed_default()),
            "BF2-strat",
        ),
    ]
}

fn non_exact_reps() -> Vec<(PgConfig, &'static str)> {
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
        (mk(Representation::CountingBloom { b: 2 }), "CBF2-AND"),
        (
            mk(Representation::CountingBloom { b: 2 }).with_bf_estimator(BfEstimator::Or),
            "CBF2-OR",
        ),
        (mk(Representation::KHash), "kH"),
        (mk(Representation::OneHash), "1H"),
        (mk(Representation::Kmv), "KMV"),
        (mk(Representation::Hll), "HLL"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The single generic triangle kernel backed by the exact oracle is
    /// bit-identical to the naive exact reference.
    #[test]
    fn exact_oracle_triangles_bit_identical(
        n in 10usize..120,
        edge_factor in 1usize..12,
        seed in 0u64..500,
    ) {
        let g = pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed);
        let dag = pg_graph::orient_by_degree(&g);
        prop_assert_eq!(triangles::count_exact_on_dag(&dag), reference_tc(&dag));
    }

    /// Same for the 4-clique kernel. Up to 200 vertices, so the kernel's
    /// per-source mark bitmap spans several 64-bit words.
    #[test]
    fn exact_oracle_cliques_bit_identical(
        n in 8usize..200,
        edge_factor in 1usize..10,
        seed in 0u64..500,
    ) {
        let g = pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed);
        let dag = pg_graph::orient_by_degree(&g);
        prop_assert_eq!(cliques::count_exact_on_dag(&dag), reference_c4(&dag));
    }

    /// The generic per-vertex triangle kernel with the exact oracle matches
    /// the naive per-vertex reference exactly.
    #[test]
    fn exact_oracle_per_vertex_triangles_bit_identical(
        n in 10usize..100,
        edge_factor in 1usize..10,
        seed in 0u64..500,
    ) {
        let g = pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed);
        let t = clustering_coeff::triangles_per_vertex(&g);
        for v in 0..n as u32 {
            let nv = g.neighbors(v);
            let mut want = 0u64;
            for &u in nv {
                want += intersect_card(nv, g.neighbors(u)) as u64;
            }
            prop_assert!(t[v as usize] == want / 2, "v={v}: {} != {}", t[v as usize], want / 2);
        }
    }

    /// Every sketch-backed generic kernel equals the per-edge
    /// enum-dispatch path with the same seed, for every representation the
    /// pre-refactor code supported. Individual estimates are bit-identical
    /// (see `estimate_row_matches_pairwise_for_all_representations`); the
    /// kernel totals may differ only by parallel-reduction association,
    /// bounded here at ulp scale.
    #[test]
    fn hoisted_kernels_match_per_edge_dispatch(
        n in 20usize..120,
        edge_factor in 2usize..14,
        seed in 0u64..200,
    ) {
        let g = pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed);
        let dag = pg_graph::orient_by_degree(&g);
        for (cfg, label) in non_exact_reps() {
            let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
            let hoisted = triangles::count_approx_on_dag(&dag, &pg);
            let per_edge = reference_tc_pg(&dag, &pg);
            let tol = 1e-12 * per_edge.abs().max(1.0);
            prop_assert!(
                (hoisted - per_edge).abs() <= tol,
                "{label}: hoisted {hoisted} != per-edge {per_edge}"
            );
        }
    }

    /// The Jarvis–Patrick generic kernel selects exactly the edges the
    /// per-pair similarity path selects, for exact and sketched oracles.
    #[test]
    fn clustering_kernel_matches_per_pair_path(
        n in 20usize..100,
        edge_factor in 2usize..10,
        seed in 0u64..200,
        tau in 0.0f64..0.6,
    ) {
        use probgraph::algorithms::similarity as sim;
        let g = pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed);
        let kind = clustering::SimilarityKind::Jaccard;
        // Exact kernel vs per-pair exact similarity.
        let c = clustering::jarvis_patrick_exact(&g, kind, tau);
        let edges = g.edge_list();
        for (i, &(u, v)) in edges.iter().enumerate() {
            prop_assert_eq!(c.selected[i], sim::jaccard(&g, u, v) > tau);
        }
        // Sketched kernel vs per-pair estimate_jaccard.
        for (cfg, label) in non_exact_reps() {
            let pg = ProbGraph::build(&g, &cfg);
            let cpg = clustering::jarvis_patrick_pg(&g, &pg, kind, tau);
            for (i, &(u, v)) in edges.iter().enumerate() {
                prop_assert!(
                    cpg.selected[i] == (pg.estimate_jaccard(u, v) > tau),
                    "{label} edge {i}"
                );
            }
        }
    }

    /// `estimate_row` agrees with pairwise `estimate` for every oracle the
    /// ProbGraph can resolve (the Bloom row path has its own fused code).
    #[test]
    fn estimate_row_matches_pairwise_for_all_representations(
        n in 20usize..90,
        edge_factor in 2usize..10,
        seed in 0u64..200,
    ) {
        let g = pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed);
        struct RowCheck<'a>(&'a pg_graph::CsrGraph);
        impl OracleVisitor for RowCheck<'_> {
            type Output = Result<(), (u32, u32, f64, f64)>;
            fn visit<O: IntersectionOracle>(self, o: &O) -> Self::Output {
                let mut row = Vec::new();
                for v in 0..self.0.num_vertices() as u32 {
                    let nv = self.0.neighbors(v);
                    o.estimate_row(v, nv, &mut row);
                    for (t, &u) in nv.iter().enumerate() {
                        let pair = o.estimate(v, u);
                        if row[t] != pair {
                            return Err((v, u, row[t], pair));
                        }
                    }
                }
                Ok(())
            }
        }
        for (cfg, label) in non_exact_reps() {
            let pg = ProbGraph::build(&g, &cfg);
            prop_assert!(pg.with_oracle(RowCheck(&g)).is_ok(), "{}", label);
        }
    }

    /// Bloom 4-clique counts (plain, Limit, counting, stratified) equal
    /// the naive rank-suffix membership count exactly, at 1 and 2
    /// threads alike. Each case also runs a Chung–Lu graph of 120–356
    /// vertices with the same mean degree: its hubs have the lowest IDs
    /// and the highest ranks, so rank order runs against ID order, and a
    /// sixth to nearly all of its `C3` sets are empty or hold one member.
    #[test]
    fn bloom_cliques_equal_rank_suffix_reference(
        n in 30usize..90,
        edge_factor in 2usize..14,
        seed in 0u64..200,
    ) {
        let graphs = [
            ("G(n, m)", pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed)),
            ("Chung-Lu", pg_graph::gen::chung_lu(n * 4, n * 4 * edge_factor, 2.5, seed)),
        ];
        for (family, g) in graphs {
            let dag = orient_by_degree(&g);
            for (cfg, label) in bloom_clique_reps() {
                let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
                let want = reference_c4_bloom(&dag, &pg, true);
                let t1 = pg_parallel::with_threads(1, || cliques::count_approx_on_dag(&dag, &pg));
                let t2 = pg_parallel::with_threads(2, || cliques::count_approx_on_dag(&dag, &pg));
                prop_assert!(t1 == want, "{family}, {label}: kernel {t1} != reference {want}");
                prop_assert!(
                    t1.to_bits() == t2.to_bits(),
                    "{family}, {label}: 1 thread {t1} != 2 threads {t2}"
                );
            }
        }
    }

    /// k-hash and uniform 1-hash 4-clique counts keep the bits of the
    /// per-member loop (same summation order at 1 thread). The exact
    /// count's equivalent is `exact_oracle_cliques_bit_identical`.
    #[test]
    fn minhash_cliques_keep_per_member_bits(
        n in 30usize..90,
        edge_factor in 2usize..14,
        seed in 0u64..200,
    ) {
        let g = pg_graph::gen::erdos_renyi_gnm(n, n * edge_factor, seed);
        let dag = orient_by_degree(&g);
        pg_parallel::with_threads(1, || {
            for rep in [Representation::KHash, Representation::OneHash] {
                let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &PgConfig::new(rep, 0.3));
                let got = cliques::count_approx_on_dag(&dag, &pg);
                let want = pg.with_oracle(PerMember(&dag));
                prop_assert!(got.to_bits() == want.to_bits(), "{rep:?}: {got} != {want}");
            }
            Ok(())
        })?;
    }
}

/// A member query against a set's own elements is exact for every oracle
/// that stores elements, uniform and stratified:
/// `estimate_vs_members(w, N⁺_w) == |N⁺_w|` for every `w`. Bloom has no
/// false negatives, every MinHash sample is drawn from the set, and the
/// 1-hash scale must use `w`'s own stratum's sample size.
#[test]
fn member_queries_against_own_set_are_exact() {
    struct OwnSet<'a>(&'a OrientedDag);
    impl OracleVisitor for OwnSet<'_> {
        /// The first `(w, estimate, |N⁺_w|)` that disagrees, if any.
        type Output = Option<(u32, f64, usize)>;
        fn visit<O: IntersectionOracle>(self, o: &O) -> Self::Output {
            (0..self.0.num_vertices() as u32).find_map(|w| {
                let nw = self.0.neighbors_plus(w);
                let est = o.estimate_vs_members(w, nw);
                (est != nw.len() as f64).then_some((w, est, nw.len()))
            })
        }
    }
    let reps = [
        Representation::Bloom { b: 1 },
        Representation::Bloom { b: 2 },
        Representation::CountingBloom { b: 2 },
        Representation::KHash,
        Representation::OneHash,
    ];
    for seed in [1u64, 2, 3] {
        let g = pg_graph::gen::chung_lu(1 << 10, 1 << 14, 2.5, seed);
        let dag = orient_by_degree(&g);
        assert_eq!(
            OwnSet(&dag).visit(&ExactOracle::new(&dag)),
            None,
            "exact, seed {seed}"
        );
        for rep in reps {
            for strata in [None, Some(StrataSpec::skewed_default())] {
                let label = format!("{rep:?}, stratified {}, seed {seed}", strata.is_some());
                let mut cfg = PgConfig::new(rep, 0.25).with_seed(seed);
                if let Some(spec) = strata {
                    cfg = cfg.with_strata(spec);
                }
                let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
                assert_eq!(pg.with_oracle(OwnSet(&dag)), None, "{label}");
            }
        }
    }
}

/// Pinned on one seeded input: every Bloom 4-clique count sits at or above
/// the exact count (no false negatives) and strictly below the
/// unrestricted per-member loop it replaced, whose extra hits are all
/// lower-ranked false positives. A reintroduced false-positive path fails
/// here.
#[test]
fn bloom_cliques_between_exact_and_unrestricted_loop() {
    let g = pg_graph::gen::erdos_renyi_gnm(160, 160 * 24, 5);
    let dag = orient_by_degree(&g);
    let exact = cliques::count_exact_on_dag(&dag) as f64;
    assert!(exact > 0.0);
    for (cfg, label) in bloom_clique_reps() {
        let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
        let count = cliques::count_approx_on_dag(&dag, &pg);
        let unrestricted = reference_c4_bloom(&dag, &pg, false);
        assert!(exact <= count, "{label}: {count} below exact {exact}");
        assert!(
            count < unrestricted,
            "{label}: {count} not below the unrestricted loop's {unrestricted}"
        );
    }
}

/// The HLL representation is wired end-to-end and lands in a sane band on
/// the generator families (its inclusion–exclusion error scales with the
/// union, so the band is looser than the element-based sketches').
#[test]
fn hll_triangle_counts_sane_on_generator_families() {
    // Dense families where |N∩N'| is a large fraction of the union — the
    // regime where inclusion–exclusion estimators are usable.
    let dense = [
        ("complete-60", pg_graph::gen::complete(60)),
        (
            "er-dense",
            pg_graph::gen::erdos_renyi_gnm(300, 300 * 40, 11),
        ),
        (
            "dimacs-c500-9",
            pg_graph::gen::instance("dimacs-c500-9", 4).unwrap(),
        ),
    ];
    for (name, g) in dense {
        let exact = triangles::count_exact(&g) as f64;
        assert!(exact > 0.0, "{name}");
        let est = triangles::count_approx(&g, &PgConfig::new(Representation::Hll, 0.33));
        let rel = est / exact;
        assert!(
            (0.2..5.0).contains(&rel),
            "{name}: est={est} exact={exact} rel={rel}"
        );
    }
    // Triangle-free graph: clamped estimates must stay near zero relative
    // to the m·d scale.
    let bip = pg_graph::gen::complete_bipartite(40, 40);
    let est = triangles::count_approx(&bip, &PgConfig::new(Representation::Hll, 0.33));
    let exact_scale = (bip.num_edges() * 40) as f64;
    assert!(est < 0.25 * exact_scale, "est={est} scale={exact_scale}");
}

/// HLL works through every algorithm family that accepts it (everything
/// except 4-cliques, which needs element queries).
#[test]
fn hll_reaches_every_estimate_based_algorithm() {
    let g = pg_graph::gen::erdos_renyi_gnm(150, 150 * 20, 3);
    let cfg = PgConfig::new(Representation::Hll, 0.33);
    let pg = ProbGraph::build(&g, &cfg);
    // Clustering.
    let c = clustering::jarvis_patrick_pg(&g, &pg, clustering::SimilarityKind::Jaccard, 0.2);
    assert!(c.num_edges <= g.num_edges());
    // Clustering coefficients.
    let gc = clustering_coeff::global_clustering_pg(&g, &pg);
    assert!((0.0..=1.0).contains(&gc));
    for c in clustering_coeff::local_clustering_pg(&g, &pg) {
        assert!((0.0..=1.0).contains(&c));
    }
    // Link prediction.
    let out = probgraph::algorithms::link_prediction::evaluate_pg(&g, 0.15, 5, &cfg);
    assert!(out.num_removed > 0);
    // Per-pair similarity measures.
    let (u, v) = g.edges().next().unwrap();
    assert!(pg.estimate_intersection(u, v) >= 0.0);
    assert!((0.0..=1.0).contains(&pg.estimate_jaccard(u, v)));
}

/// The exact oracle over a CSR graph reproduces the similarity module's
/// closed forms exactly.
#[test]
fn exact_oracle_similarity_matches_closed_forms() {
    use probgraph::algorithms::similarity as sim;
    let g = pg_graph::gen::kronecker(8, 8, 5);
    let o = ExactOracle::new(&g);
    for (u, v) in g.edges().take(300) {
        assert_eq!(
            sim::common_neighbors_with(&o, u, v),
            sim::common_neighbors(&g, u, v) as f64
        );
        assert_eq!(sim::jaccard_with(&o, u, v), sim::jaccard(&g, u, v));
        assert_eq!(sim::overlap_with(&o, u, v), sim::overlap(&g, u, v));
        assert_eq!(
            sim::total_neighbors_with(&o, u, v) as usize,
            sim::total_neighbors(&g, u, v)
        );
    }
}
