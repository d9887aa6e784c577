//! Golden snapshot digests: the bytes every store variant serializes to,
//! pinned as constants.
//!
//! Every other snapshot test compares two builds of the *same* code
//! (build vs stream, save vs load, one stratum vs uniform). A change that
//! moved the uniform and the stratified layouts together would pass all of
//! them. This suite instead pins the XXH64 of `snapshot_to_bytes()` and the
//! sketch `memory_bytes()` for a fixed recipe, so any change to sketch
//! bits, layout or the v3 wire format fails here.
//!
//! Matrix: nine store variants × {uniform, `StrataSpec::skewed_default()`}
//! × {`build`, `stream_from` over half the edges + `apply_batch` of the
//! rest}, on `gen::erdos_renyi_gnm(800, 24_000, 3)` at s = 0.3 — the
//! recipe under which every variant resolves to three strata. The
//! digests are thread-count independent (`PG_THREADS=1` and `2` agree).
//! The constants are recorded once and must never be edited to make a
//! change pass.

use pg_graph::{gen, CsrGraph};
use pg_hash::xxh64;
use pg_sketch::StrataSpec;
use probgraph::{BfEstimator, PgConfig, ProbGraph, Representation};

/// The nine store variants (same matrix as the snapshot fault suite).
fn variants() -> Vec<(&'static str, PgConfig)> {
    let bf2 = || PgConfig::new(Representation::Bloom { b: 2 }, 0.3);
    vec![
        ("bf1", PgConfig::new(Representation::Bloom { b: 1 }, 0.3)),
        ("bf2", bf2()),
        ("bf2_limit", bf2().with_bf_estimator(BfEstimator::Limit)),
        ("bf2_or", bf2().with_bf_estimator(BfEstimator::Or)),
        (
            "cbf",
            PgConfig::new(Representation::CountingBloom { b: 2 }, 0.3),
        ),
        ("khash", PgConfig::new(Representation::KHash, 0.3)),
        ("onehash", PgConfig::new(Representation::OneHash, 0.3)),
        ("kmv", PgConfig::new(Representation::Kmv, 0.3)),
        ("hll", PgConfig::new(Representation::Hll, 0.3)),
    ]
}

fn graph() -> CsrGraph {
    gen::erdos_renyi_gnm(800, 24_000, 3)
}

/// `(variant, layout, path, xxh64(snapshot_to_bytes()), memory_bytes())`.
#[rustfmt::skip]
const GOLDEN: [(&str, &str, &str, u64, usize); 36] = [
    ("bf1", "uniform", "build", 16583230093443208099, 60800),
    ("bf1", "uniform", "stream", 16583230093443208099, 60800),
    ("bf1", "skewed", "build", 5639492070027783993, 60544),
    ("bf1", "skewed", "stream", 9310570023864091514, 60544),
    ("bf2", "uniform", "build", 6635018793318733830, 60800),
    ("bf2", "uniform", "stream", 6635018793318733830, 60800),
    ("bf2", "skewed", "build", 17851837563539088939, 60544),
    ("bf2", "skewed", "stream", 1639503518730189955, 60544),
    ("bf2_limit", "uniform", "build", 10911280255503195069, 60800),
    ("bf2_limit", "uniform", "stream", 10911280255503195069, 60800),
    ("bf2_limit", "skewed", "build", 7289818365869380423, 60544),
    ("bf2_limit", "skewed", "stream", 2948111414668768065, 60544),
    ("bf2_or", "uniform", "build", 6611206765950751922, 60800),
    ("bf2_or", "uniform", "stream", 6611206765950751922, 60800),
    ("bf2_or", "skewed", "build", 3399607271939013448, 60544),
    ("bf2_or", "skewed", "stream", 10803766400224615205, 60544),
    ("cbf", "uniform", "build", 13860559055927067861, 35200),
    ("cbf", "uniform", "stream", 13860559055927067861, 35200),
    ("cbf", "skewed", "build", 1626879096570527929, 39040),
    ("cbf", "skewed", "stream", 13313554929569777189, 39040),
    ("khash", "uniform", "build", 4474313320640656148, 60800),
    ("khash", "uniform", "stream", 4474313320640656148, 60800),
    ("khash", "skewed", "build", 10467343933556294915, 61280),
    ("khash", "skewed", "stream", 9115393380614685948, 61280),
    ("onehash", "uniform", "build", 10184664938257386386, 57604),
    ("onehash", "uniform", "stream", 10184664938257386386, 57604),
    ("onehash", "skewed", "build", 13788437748442490658, 58372),
    ("onehash", "skewed", "stream", 6471673016135152133, 58372),
    ("kmv", "uniform", "build", 13669913167379375826, 60800),
    ("kmv", "uniform", "stream", 13669913167379375826, 60800),
    ("kmv", "skewed", "build", 1663907325208329987, 60992),
    ("kmv", "skewed", "stream", 14270099187144608966, 60992),
    ("hll", "uniform", "build", 7274063229530883827, 54400),
    ("hll", "uniform", "stream", 7274063229530883827, 54400),
    ("hll", "skewed", "build", 18039735214535156543, 60544),
    ("hll", "skewed", "stream", 11625554910273497944, 60544),
];

#[test]
fn snapshot_bytes_and_memory_match_golden_digests() {
    let g = graph();
    let edges = g.edge_list();
    let split = edges.len() / 2;
    let mut got = Vec::with_capacity(GOLDEN.len());
    for (tag, cfg) in variants() {
        for (layout, cfg) in [
            ("uniform", cfg.clone()),
            ("skewed", cfg.with_strata(StrataSpec::skewed_default())),
        ] {
            let built = ProbGraph::build(&g, &cfg);
            let mut streamed =
                ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), &cfg, &edges[..split]);
            streamed.apply_batch(&edges[split..]);
            for (path, pg) in [("build", &built), ("stream", &streamed)] {
                if layout == "skewed" {
                    let n_strata = pg.stratified_params().map_or(1, |sp| sp.n_strata());
                    assert_eq!(n_strata, 3, "{tag}/{path}: recipe must stratify");
                }
                let digest = xxh64(&pg.snapshot_to_bytes(), 0);
                got.push((tag, layout, path, digest, pg.memory_bytes()));
            }
        }
    }
    let mismatched: Vec<String> = GOLDEN
        .iter()
        .zip(&got)
        .filter(|(want, have)| want != have)
        .map(|(want, have)| format!("want {want:?}\n  got {have:?}"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} of {} golden snapshots changed:\n{}",
        mismatched.len(),
        GOLDEN.len(),
        mismatched.join("\n")
    );
}
