//! Differential pinning for degree-stratified sketch geometry: the
//! 1-stratum configuration must be **bit-identical** to the uniform
//! stack it lowers onto, across every store variant (BF1 / BF2 /
//! BF2-Limit / BF2-OR / CBF / k-hash / 1-hash / KMV / HLL) and every
//! build path.
//!
//! * **Offline build**: `StrataSpec::uniform()` resolves to the exact
//!   snapshot bytes of the spec-less build — same params, `None`
//!   stratification, identical estimator answers.
//! * **Streaming**: `stream_from` + batches under the 1-stratum spec
//!   lands on the uniform stream's bytes.
//! * **Sharded serving**: `ShardedProbGraph::with_shards` under the
//!   1-stratum spec publishes epochs byte-equal to uniform lanes.
//! * **Row builds**: an explicit 1-stratum `StratifiedParams` table
//!   through `build_rows_stratified` lowers onto `build_rows`.
//! * **Collapse**: a multi-stratum spec whose resolved per-stratum
//!   params come out equal collapses back to the uniform fast path.
//!
//! Snapshot bytes are the equality oracle: they cover every word,
//! counter, signature, element, hash, and register of every store, plus
//! the geometry header — stricter than any per-field comparison.
//!
//! One accuracy gate rides along: on a fixed skewed input, a two-stratum
//! BF2 plan counts triangles no less accurately than the uniform plan at
//! the same budget.

use pg_sketch::{StrataSpec, StratifiedParams};
use probgraph::algorithms::triangles;
use probgraph::oracle::MutableOracle;
use probgraph::serving::ShardedProbGraph;
use probgraph::{BfEstimator, PgConfig, ProbGraph, Representation};
use proptest::prelude::*;

/// The nine store variants of the acceptance matrix.
fn all_cfgs() -> Vec<(PgConfig, &'static str)> {
    let mk = |r| PgConfig::new(r, 0.3).with_seed(0xD1FF);
    vec![
        (mk(Representation::Bloom { b: 1 }), "BF1"),
        (mk(Representation::Bloom { b: 2 }), "BF2"),
        (
            mk(Representation::Bloom { b: 2 }).with_bf_estimator(BfEstimator::Limit),
            "BF2-L",
        ),
        (
            mk(Representation::Bloom { b: 2 }).with_bf_estimator(BfEstimator::Or),
            "BF2-OR",
        ),
        (mk(Representation::CountingBloom { b: 2 }), "CBF2"),
        (mk(Representation::KHash), "kH"),
        (mk(Representation::OneHash), "1H"),
        (mk(Representation::Kmv), "KMV"),
        (mk(Representation::Hll), "HLL"),
    ]
}

/// The full bit-identity check: both graphs re-serialize to the same
/// snapshot, the stratified one reports no stratification, and the
/// estimator answers match on a sample of pairs.
fn assert_lowered(uni: &ProbGraph, strat: &ProbGraph, pairs: &[(u32, u32)], label: &str) {
    assert!(
        strat.stratified_params().is_none(),
        "{label}: 1-stratum build kept a stratum table"
    );
    assert_eq!(strat.params(), uni.params(), "{label}: params differ");
    assert_eq!(
        strat.snapshot_to_bytes(),
        uni.snapshot_to_bytes(),
        "{label}: snapshot bytes differ"
    );
    for &(u, v) in pairs {
        assert_eq!(
            strat.estimate_intersection(u, v),
            uni.estimate_intersection(u, v),
            "{label}: estimate ({u},{v})"
        );
        assert_eq!(
            strat.estimate_jaccard(u, v),
            uni.estimate_jaccard(u, v),
            "{label}: jaccard ({u},{v})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: for random graphs, the 1-stratum spec is bit-identical
    /// to the uniform build for every representation, through both the
    /// offline and the streaming build paths.
    #[test]
    fn one_stratum_spec_is_bit_identical_to_uniform(
        n in 12usize..48,
        density in 2usize..8,
        seed in 0u64..500,
        split_pct in 0usize..101,
    ) {
        let m = (n * density).min(n * (n - 1) / 2);
        let g = pg_graph::gen::erdos_renyi_gnm(n, m, seed);
        let edges = g.edge_list();
        let split = edges.len() * split_pct / 100;
        for (cfg, label) in all_cfgs() {
            let scfg = cfg.clone().with_strata(StrataSpec::uniform());
            let uni = ProbGraph::build(&g, &cfg);
            let strat = ProbGraph::build(&g, &scfg);
            assert_lowered(&uni, &strat, &edges, label);

            // Streaming: same prefix + batch + single-edge tail on both.
            let stream = |c: &PgConfig| {
                let mut pg =
                    ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), c, &edges[..split]);
                if let Some((last, bulk)) = edges[split..].split_last() {
                    pg.apply_batch(bulk);
                    pg.insert_edge(last.0, last.1);
                }
                pg
            };
            let (su, ss) = (stream(&cfg), stream(&scfg));
            assert_lowered(&su, &ss, &edges, label);
            prop_assert!(
                ss.snapshot_to_bytes() == strat.snapshot_to_bytes(),
                "{}: streamed and offline 1-stratum builds diverged", label
            );
        }
    }
}

/// Sharded serving under the 1-stratum spec publishes epochs byte-equal
/// to uniform lanes, for every representation and several shard counts.
#[test]
fn one_stratum_sharded_serving_lowers_onto_uniform_lanes() {
    let g = pg_graph::gen::erdos_renyi_gnm(90, 800, 21);
    let edges = g.edge_list();
    for (cfg, label) in all_cfgs() {
        let scfg = cfg.clone().with_strata(StrataSpec::uniform());
        for shards in [1usize, 3] {
            let ingest = |c: &PgConfig| {
                let mut srv =
                    ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), c, shards);
                for chunk in edges.chunks(97) {
                    srv.apply_batch(chunk);
                    srv.publish_epoch();
                }
                srv
            };
            let (su, ss) = (ingest(&cfg), ingest(&scfg));
            assert!(
                ss.stratified_params().is_none(),
                "{label} x{shards}: server kept a 1-stratum table"
            );
            assert_eq!(
                ss.snapshot().snapshot_to_bytes(),
                su.snapshot().snapshot_to_bytes(),
                "{label} x{shards}: published snapshots differ"
            );
        }
    }
}

/// An explicit 1-stratum `StratifiedParams` table through
/// `build_rows_stratified` lowers onto `build_rows` bit-for-bit.
#[test]
fn explicit_one_stratum_table_lowers_in_build_rows() {
    let g = pg_graph::gen::erdos_renyi_gnm(70, 500, 5);
    let n = g.num_vertices();
    let pairs = g.edge_list();
    for (cfg, label) in all_cfgs() {
        let uni = ProbGraph::build(&g, &cfg);
        let table = StratifiedParams::new(vec![uni.params()], vec![0u8; n]);
        let rows = ProbGraph::build_rows_stratified(n, table, cfg.bf_estimator, uni.seed(), |i| {
            g.neighbors(i as u32)
        });
        assert_lowered(&uni, &rows, &pairs, label);
    }
}

/// A multi-stratum spec with all-equal multipliers must never keep an
/// all-equal parameter table: either the strata resolve identically and
/// the build collapses onto the uniform fast path bit-for-bit, or the
/// per-stratum integer arithmetic genuinely produced distinct params
/// (k-hash's per-stratum remainders can differ) and the table says so.
#[test]
fn equal_multiplier_spec_collapses_when_params_agree() {
    let g = pg_graph::gen::erdos_renyi_gnm(90, 800, 21);
    let flat = StrataSpec::new(vec![0.05, 0.15], vec![1, 1, 1]);
    let mut collapsed = 0usize;
    for (cfg, label) in all_cfgs() {
        let strat = ProbGraph::build(&g, &cfg.clone().with_strata(flat.clone()));
        match strat.stratified_params() {
            None => {
                let uni = ProbGraph::build(&g, &cfg);
                assert_lowered(&uni, &strat, &g.edge_list(), label);
                collapsed += 1;
            }
            Some(sp) => {
                let first = sp.strata()[0];
                assert!(
                    sp.strata().iter().any(|&p| p != first),
                    "{label}: all-equal stratum table survived the collapse"
                );
            }
        }
    }
    assert!(collapsed > 0, "no variant exercised the collapse path");
}

/// The complement: the skewed default spec on a skewed graph must *not*
/// collapse, must survive a snapshot round trip bit-identically, and a
/// 1-shard serving ingest must land on the serial stream's bytes.
#[test]
fn skewed_spec_stays_stratified_and_round_trips() {
    let g = pg_graph::gen::erdos_renyi_gnm(800, 24_000, 3);
    let edges = g.edge_list();
    for (cfg, label) in all_cfgs() {
        let scfg = cfg.clone().with_strata(StrataSpec::skewed_default());
        let pg = ProbGraph::build(&g, &scfg);
        let sp = pg
            .stratified_params()
            .unwrap_or_else(|| panic!("{label}: skewed spec collapsed"));
        assert!(sp.n_strata() > 1, "{label}: collapsed table survived");
        let bytes = pg.snapshot_to_bytes();
        let back =
            ProbGraph::from_snapshot_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(back.snapshot_to_bytes(), bytes, "{label}: round trip");
        assert_eq!(
            back.stratified_params(),
            Some(sp),
            "{label}: stratum table lost in the round trip"
        );

        // Serial stream == sharded ingest, both stratified.
        let serial = ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), &scfg, &edges);
        let mut srv = ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), &scfg, 3);
        srv.apply_batch(&edges);
        srv.publish_epoch();
        assert_eq!(
            srv.snapshot().snapshot_to_bytes(),
            serial.snapshot_to_bytes(),
            "{label}: sharded stratified ingest diverged from the serial stream"
        );
    }
}

/// The stratified accuracy gate. Input: a Chung–Lu power-law graph
/// (n = 8192, m = 131,072, γ = 2.0, seed 7), oriented by degree, with the
/// undirected CSR bytes as the budget base and s = 0.15. The stratified
/// plan gives the top 5 % of vertices by degree twice the base stratum's
/// bytes. It must resolve at least two strata, and its total triangle
/// count must be no further from exact than the uniform plan's (0.3637
/// against 0.4128 when this gate was written). Both plans pin the AND
/// estimator (Eq. 2), the one this ordering was measured under, so a
/// change of the library default does not change what the gate checks.
#[test]
fn stratified_bf2_tc_error_at_most_uniform_on_skewed_input() {
    let g = pg_graph::gen::chung_lu(8192, 131_072, 2.0, 7);
    let dag = pg_graph::orient_by_degree(&g);
    let exact = triangles::count_exact_on_dag(&dag) as f64;
    let bf2 = Representation::Bloom { b: 2 };
    let relerr = |cfg: PgConfig| {
        let pg = ProbGraph::build_dag(
            &dag,
            g.memory_bytes(),
            &cfg.with_bf_estimator(BfEstimator::And),
        );
        let strata = pg.stratified_params().map_or(1, |sp| sp.n_strata());
        let err = (triangles::count_approx_on_dag(&dag, &pg) / exact - 1.0).abs();
        (err, strata)
    };
    let (uniform, _) = relerr(PgConfig::new(bf2, 0.15));
    let spec = StrataSpec::new(vec![0.05], vec![2, 1]);
    let (stratified, strata) = relerr(PgConfig::stratified(bf2, 0.15, spec));
    assert!(
        strata >= 2,
        "the stratified plan collapsed to {strata} stratum"
    );
    assert!(
        stratified <= uniform,
        "stratified BF2 TC error {stratified:.4} exceeds uniform's {uniform:.4}"
    );
}
