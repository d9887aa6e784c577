//! Differential harness for the streaming `MutableOracle` path: every
//! in-place incremental update must be indistinguishable from a
//! from-scratch rebuild.
//!
//! For random edge-stream prefixes (proptest-generated graphs and split
//! points):
//!
//! * **bit-identical sketches** for the naturally-mergeable
//!   representations — Bloom word windows + cached popcounts, k-hash
//!   signature slots, HLL register windows;
//! * **estimator-identical outputs** for the sample-based ones — KMV and
//!   bottom-k `estimate` / `estimate_row_into` agree exactly after the
//!   lazy re-sort restores their sorted-slice views;
//! * **algorithm-identical results** — triangle counting and
//!   Jarvis–Patrick clustering through `with_oracle` agree between the
//!   two build paths;
//! * the `estimate_row_into` buffer-reuse contract holds **across a
//!   mutation**: a warm row buffer is truncated, never reallocated, and
//!   every slot is overwritten after an `insert_edge`.

use probgraph::algorithms::{clustering, triangles};
use probgraph::oracle::{IntersectionOracle, MutableOracle, OracleVisitor};
use probgraph::serving::ShardedProbGraph;
use probgraph::{BfEstimator, PgConfig, ProbGraph, Representation, SketchStore};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// The configurations under differential test: every representation, and
/// every Bloom estimator variant (the estimator tail reads the mutated
/// sizes, so all three must stay consistent).
fn all_cfgs() -> Vec<(PgConfig, &'static str)> {
    let mk = |r| PgConfig::new(r, 0.3).with_seed(0xD1FF);
    vec![
        (mk(Representation::Bloom { b: 1 }), "BF1"),
        (mk(Representation::Bloom { b: 2 }), "BF2"),
        (mk(Representation::CountingBloom { b: 2 }), "CBF2"),
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

/// Streams `edges[..split]`, applies the rest in two uneven batches (the
/// second of size 1 when possible, so the single-edge path is always
/// exercised), and returns the incrementally-built ProbGraph.
fn stream_in_batches(
    n: usize,
    base_bytes: usize,
    cfg: &PgConfig,
    edges: &[(u32, u32)],
    split: usize,
) -> ProbGraph {
    let mut pg = ProbGraph::stream_from(n, base_bytes, cfg, &edges[..split]);
    let rest = &edges[split..];
    if let Some((last, bulk)) = rest.split_last() {
        pg.apply_batch(bulk);
        pg.insert_edge(last.0, last.1);
    }
    pg
}

/// Bit-identical sketch comparison for Bloom/k-hash/HLL; the sample-based
/// stores (KMV, bottom-k) are pinned through their estimators instead.
fn assert_stores_bit_identical(inc: &ProbGraph, full: &ProbGraph, label: &str) {
    match (inc.store(), full.store()) {
        (SketchStore::Bloom(a), SketchStore::Bloom(b)) => {
            for i in 0..full.len() {
                assert_eq!(a.words(i), b.words(i), "{label}: words of set {i}");
                assert_eq!(
                    a.count_ones(i),
                    b.count_ones(i),
                    "{label}: cached popcount of set {i}"
                );
            }
        }
        (SketchStore::CountingBloom(a), SketchStore::CountingBloom(b)) => {
            for i in 0..full.len() {
                assert_eq!(
                    a.read_view().words(i),
                    b.read_view().words(i),
                    "{label}: view words of set {i}"
                );
                assert_eq!(
                    a.read_view().count_ones(i),
                    b.read_view().count_ones(i),
                    "{label}: cached popcount of set {i}"
                );
                assert_eq!(
                    a.counter_words(i),
                    b.counter_words(i),
                    "{label}: counters of set {i}"
                );
            }
        }
        (SketchStore::KHash(a), SketchStore::KHash(b)) => {
            for i in 0..full.len() {
                assert_eq!(a.signature(i), b.signature(i), "{label}: signature {i}");
            }
        }
        (SketchStore::Hll(a), SketchStore::Hll(b)) => {
            for i in 0..full.len() {
                assert_eq!(a.registers(i), b.registers(i), "{label}: registers {i}");
            }
        }
        (SketchStore::OneHash(_), SketchStore::OneHash(_))
        | (SketchStore::Kmv(_), SketchStore::Kmv(_)) => {}
        _ => panic!("{label}: build paths resolved different representations"),
    }
}

/// Row-sweep visitor: estimates every vertex's row against all vertices
/// through the batched `estimate_row` path into one reused buffer.
struct AllRows<'a> {
    us: &'a [u32],
}

impl OracleVisitor for AllRows<'_> {
    type Output = Vec<f64>;
    fn visit<O: IntersectionOracle>(self, o: &O) -> Vec<f64> {
        let mut out = Vec::new();
        let mut row = Vec::new();
        for &v in self.us {
            o.estimate_row(v, self.us, &mut row);
            out.extend_from_slice(&row);
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole differential property: incremental build == rebuild, for
    /// every representation, at a random stream prefix.
    #[test]
    fn incremental_build_matches_rebuild(
        n in 12usize..48,
        density in 2usize..8,
        seed in 0u64..500,
        split_pct in 0usize..101,
    ) {
        let m = (n * density).min(n * (n - 1) / 2);
        let g = pg_graph::gen::erdos_renyi_gnm(n, m, seed);
        let edges = g.edge_list();
        let split = edges.len() * split_pct / 100;
        let us: Vec<u32> = (0..g.num_vertices() as u32).collect();
        for (cfg, label) in all_cfgs() {
            let full = ProbGraph::build(&g, &cfg);
            let inc = stream_in_batches(g.num_vertices(), g.memory_bytes(), &cfg, &edges, split);
            prop_assert!(inc.params() == full.params(), "{}: params differ", label);
            for v in 0..g.num_vertices() {
                prop_assert!(
                    inc.set_size(v) == full.set_size(v),
                    "{}: size of {} differs", label, v
                );
            }
            assert_stores_bit_identical(&inc, &full, label);
            // Estimator equivalence: pairwise and batched row paths.
            for &(u, v) in &edges {
                prop_assert!(
                    inc.estimate_intersection(u, v) == full.estimate_intersection(u, v),
                    "{}: estimate ({},{}) differs", label, u, v
                );
                prop_assert!(
                    inc.estimate_jaccard(u, v) == full.estimate_jaccard(u, v),
                    "{}: jaccard ({},{}) differs", label, u, v
                );
            }
            let rows_inc = inc.with_oracle(AllRows { us: &us });
            let rows_full = full.with_oracle(AllRows { us: &us });
            prop_assert!(rows_inc == rows_full, "{}: estimate_row_into sweep differs", label);
        }
    }

    /// Deletion differential (PR 5's tentpole): for the removal-capable
    /// counting-Bloom representation, any interleaving of inserts and
    /// removals must land bit-identically (derived view words, cached
    /// popcounts, counters) and estimator-identically on a from-scratch
    /// rebuild of the **surviving** edge set.
    #[test]
    fn insert_remove_interleavings_match_survivor_rebuild(
        n in 12usize..48,
        density in 2usize..8,
        seed in 0u64..500,
        split_pct in 0usize..101,
        remove_mod in 2usize..5,
    ) {
        let m = (n * density).min(n * (n - 1) / 2);
        let g = pg_graph::gen::erdos_renyi_gnm(n, m, seed);
        let edges = g.edge_list();
        let split = edges.len() * split_pct / 100;
        let us: Vec<u32> = (0..g.num_vertices() as u32).collect();
        for b in [1usize, 2] {
            let cfg = PgConfig::new(Representation::CountingBloom { b }, 0.3).with_seed(0xD1FF);
            let mut pg =
                ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), &cfg, &edges[..split]);
            prop_assert!(pg.remove_supported(), "b={}", b);
            // Interleave: insert the remaining edges in small batches,
            // removing every `remove_mod`-th already-inserted edge in
            // between — batched removals plus one single-edge removal per
            // round so both removal paths stay exercised.
            let mut removed = vec![false; edges.len()];
            let mut inserted = split;
            while inserted < edges.len() {
                let chunk_end = (inserted + 5).min(edges.len());
                pg.apply_batch(&edges[inserted..chunk_end]);
                inserted = chunk_end;
                let victims: Vec<usize> = (0..inserted)
                    .filter(|&t| t % remove_mod == 0 && !removed[t])
                    .collect();
                if let Some((&last, bulk)) = victims.split_last() {
                    let batch: Vec<(u32, u32)> = bulk.iter().map(|&t| edges[t]).collect();
                    pg.remove_batch(&batch);
                    pg.remove_edge(edges[last].0, edges[last].1);
                    for t in victims {
                        removed[t] = true;
                    }
                }
            }
            let survivors: Vec<(u32, u32)> = (0..edges.len())
                .filter(|&t| !removed[t])
                .map(|t| edges[t])
                .collect();
            let g2 = pg_graph::CsrGraph::from_edges(g.num_vertices(), &survivors);
            // Same budget resolution as the streamed graph: base_bytes is
            // the *original* CSR footprint, not the shrunken survivor one.
            let full = ProbGraph::build_over(
                g.num_vertices(),
                g.memory_bytes(),
                |v| g2.neighbors(v as u32),
                &cfg,
            );
            prop_assert!(pg.params() == full.params(), "b={}: params differ", b);
            for v in 0..g.num_vertices() {
                prop_assert!(
                    pg.set_size(v) == full.set_size(v),
                    "b={}: size of {} differs", b, v
                );
            }
            assert_stores_bit_identical(&pg, &full, "CBF-removal");
            for &(u, v) in &edges {
                prop_assert!(
                    pg.estimate_intersection(u, v) == full.estimate_intersection(u, v),
                    "b={}: estimate ({},{}) differs", b, u, v
                );
                prop_assert!(
                    pg.estimate_jaccard(u, v) == full.estimate_jaccard(u, v),
                    "b={}: jaccard ({},{}) differs", b, u, v
                );
            }
            let rows_pg = pg.with_oracle(AllRows { us: &us });
            let rows_full = full.with_oracle(AllRows { us: &us });
            prop_assert!(rows_pg == rows_full, "b={}: row sweep differs", b);
        }
    }

    /// Dirty streams follow CSR rebuild semantics for every
    /// representation: self-loops are dropped and duplicate edges within
    /// a batch (either orientation) are applied once, so streaming a
    /// dirty edge list lands exactly where building from it does.
    #[test]
    fn dirty_streams_match_csr_rebuild_semantics(
        n in 8usize..32,
        density in 2usize..6,
        seed in 0u64..500,
    ) {
        let m = (n * density).min(n * (n - 1) / 2);
        let g = pg_graph::gen::erdos_renyi_gnm(n, m, seed);
        let clean = g.edge_list();
        // Dirty the stream: every edge once, a prefix again in flipped
        // orientation, and a sprinkle of self-loops.
        let mut dirty = clean.clone();
        for &(u, v) in clean.iter().take(clean.len() / 3) {
            dirty.push((v, u));
        }
        for v in 0..(n as u32).min(5) {
            dirty.push((v, v));
        }
        for (cfg, label) in all_cfgs() {
            let streamed =
                ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), &cfg, &dirty);
            let full = ProbGraph::build(&g, &cfg);
            for v in 0..g.num_vertices() {
                prop_assert!(
                    streamed.set_size(v) == full.set_size(v),
                    "{}: size of {} differs", label, v
                );
            }
            assert_stores_bit_identical(&streamed, &full, label);
            for &(u, v) in clean.iter().take(150) {
                prop_assert!(
                    streamed.estimate_intersection(u, v) == full.estimate_intersection(u, v),
                    "{}: estimate ({},{}) differs", label, u, v
                );
            }
        }
    }

    /// Algorithms through `with_oracle` agree between the build paths:
    /// triangle counting over incrementally-streamed DAG sets, and
    /// Jarvis–Patrick clustering over streamed full neighborhoods.
    #[test]
    fn algorithms_agree_between_build_paths(
        n in 16usize..40,
        density in 3usize..9,
        seed in 0u64..500,
        split_pct in 0usize..101,
    ) {
        let m = (n * density).min(n * (n - 1) / 2);
        let g = pg_graph::gen::erdos_renyi_gnm(n, m, seed);
        let dag = pg_graph::orient_by_degree(&g);
        let arcs: Vec<(u32, u32)> = (0..dag.num_vertices() as u32)
            .flat_map(|v| dag.neighbors_plus(v).iter().map(move |&u| (v, u)))
            .collect();
        let split = arcs.len() * split_pct / 100;
        let edges = g.edge_list();
        let esplit = edges.len() * split_pct / 100;
        for (cfg, label) in all_cfgs() {
            // Oriented sets: stream the DAG arcs in two chunks.
            let full_dag = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
            let mut inc_dag =
                ProbGraph::stream_from(dag.num_vertices(), g.memory_bytes(), &cfg, &[]);
            inc_dag.apply_arcs(&arcs[..split]);
            inc_dag.apply_arcs(&arcs[split..]);
            // f64 reductions group their terms by thread count, so
            // compare runs at one fixed count (serial) exactly.
            let (tc_full, tc_inc) = pg_parallel::with_threads(1, || {
                (
                    triangles::count_approx_on_dag(&dag, &full_dag),
                    triangles::count_approx_on_dag(&dag, &inc_dag),
                )
            });
            prop_assert!(tc_full == tc_inc, "{}: triangle count differs", label);
            // Full neighborhoods: clustering decisions are per-edge bools,
            // deterministic under any schedule.
            let full = ProbGraph::build(&g, &cfg);
            let inc = stream_in_batches(g.num_vertices(), g.memory_bytes(), &cfg, &edges, esplit);
            let c_full = clustering::jarvis_patrick_pg(
                &g, &full, clustering::SimilarityKind::Jaccard, 0.2,
            );
            let c_inc = clustering::jarvis_patrick_pg(
                &g, &inc, clustering::SimilarityKind::Jaccard, 0.2,
            );
            prop_assert!(c_full.selected == c_inc.selected, "{}: selected edges differ", label);
            prop_assert!(
                c_full.num_clusters == c_inc.num_clusters,
                "{}: cluster count differs", label
            );
        }
    }
}

/// Runs `body` (the sharded writer) while a reader thread continuously
/// pins epochs off `reader` and row-sweeps them — queries racing ingest
/// on real threads. Returns after asserting the reader completed at
/// least one sweep and every pinned snapshot was internally consistent
/// (stable epoch, full-width rows, sizes matching the pinned universe).
fn race_reader_during<F: FnOnce()>(reader: &probgraph::ServingReader, us: &[u32], body: F) {
    let stop = AtomicBool::new(false);
    let sweeps = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let mut sweeps = 0usize;
            loop {
                let done = stop.load(Ordering::Relaxed);
                let snap = reader.snapshot();
                let epoch = snap.epoch();
                assert_eq!(snap.len(), us.len(), "pinned snapshot universe");
                let rows = snap.with_oracle(AllRows { us });
                assert_eq!(rows.len(), us.len() * us.len(), "row sweep width");
                assert!(rows.iter().all(|x| x.is_finite()), "row sweep values");
                // The pin must hold the epoch stable for the whole sweep.
                assert_eq!(snap.epoch(), epoch, "epoch moved under a pin");
                sweeps += 1;
                if done {
                    return sweeps;
                }
            }
        });
        body();
        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap()
    });
    assert!(sweeps >= 1, "reader thread never completed a sweep");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Concurrent differential property (PR 8's tentpole): random write
    /// batches routed through N shard lanes, published as epochs while a
    /// reader thread row-sweeps pinned snapshots mid-ingest. The final
    /// drained epoch must equal the serial from-scratch rebuild — the
    /// same bit-identity standard as the single-writer suite above, for
    /// every representation and shard count.
    #[test]
    fn sharded_concurrent_ingest_matches_rebuild(
        n in 16usize..48,
        density in 2usize..8,
        seed in 0u64..500,
        chunk in 3usize..17,
        shards in 1usize..5,
    ) {
        let m = (n * density).min(n * (n - 1) / 2);
        let g = pg_graph::gen::erdos_renyi_gnm(n, m, seed);
        let edges = g.edge_list();
        let us: Vec<u32> = (0..g.num_vertices() as u32).collect();
        for (cfg, label) in all_cfgs() {
            let full = ProbGraph::build(&g, &cfg);
            let mut srv =
                ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), &cfg, shards);
            prop_assert!(srv.shards() == shards.min(g.num_vertices()), "{}: shard count", label);
            let reader = srv.reader();
            race_reader_during(&reader, &us, || {
                for c in edges.chunks(chunk) {
                    srv.apply_batch(c);
                    srv.publish_epoch();
                }
            });
            prop_assert!(
                srv.epoch() == edges.chunks(chunk).count() as u64,
                "{}: one epoch per published batch", label
            );
            let snap = srv.snapshot();
            prop_assert!(snap.params() == full.params(), "{}: params differ", label);
            for v in 0..g.num_vertices() {
                prop_assert!(
                    snap.set_size(v) == full.set_size(v),
                    "{}: size of {} differs", label, v
                );
            }
            assert_stores_bit_identical(&snap, &full, label);
            for &(u, v) in &edges {
                prop_assert!(
                    snap.estimate_intersection(u, v) == full.estimate_intersection(u, v),
                    "{}: estimate ({},{}) differs", label, u, v
                );
            }
            let rows_snap = snap.with_oracle(AllRows { us: &us });
            let rows_full = full.with_oracle(AllRows { us: &us });
            prop_assert!(rows_snap == rows_full, "{}: row sweep differs", label);
        }
    }

    /// Sharded deletion differential: counting-Bloom insert/remove
    /// interleavings through the shard queues — staged, drained in
    /// parallel, published per round under a racing reader — land
    /// bit-identically on a rebuild of the surviving edge set, exactly
    /// like the serial interleaving suite above.
    #[test]
    fn sharded_insert_remove_interleave_matches_survivor_rebuild(
        n in 16usize..48,
        density in 2usize..8,
        seed in 0u64..500,
        shards in 2usize..5,
        remove_mod in 2usize..5,
    ) {
        let m = (n * density).min(n * (n - 1) / 2);
        let g = pg_graph::gen::erdos_renyi_gnm(n, m, seed);
        let edges = g.edge_list();
        let us: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let cfg = PgConfig::new(Representation::CountingBloom { b: 2 }, 0.3).with_seed(0xD1FF);
        let mut srv =
            ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), &cfg, shards);
        prop_assert!(srv.remove_supported());
        let reader = srv.reader();
        let mut removed = vec![false; edges.len()];
        race_reader_during(&reader, &us, || {
            let mut inserted = 0usize;
            while inserted < edges.len() {
                let chunk_end = (inserted + 5).min(edges.len());
                // Stage the round's inserts and removals together, so the
                // queued-segment ordering path (not just the apply-now
                // path) is under differential test.
                srv.stage_batch(&edges[inserted..chunk_end]);
                inserted = chunk_end;
                let victims: Vec<usize> = (0..inserted)
                    .filter(|&t| t % remove_mod == 0 && !removed[t])
                    .collect();
                let batch: Vec<(u32, u32)> = victims.iter().map(|&t| edges[t]).collect();
                for t in victims {
                    removed[t] = true;
                }
                srv.stage_removals(&batch);
                srv.publish_epoch();
            }
        });
        let survivors: Vec<(u32, u32)> = (0..edges.len())
            .filter(|&t| !removed[t])
            .map(|t| edges[t])
            .collect();
        let g2 = pg_graph::CsrGraph::from_edges(g.num_vertices(), &survivors);
        let full = ProbGraph::build_over(
            g.num_vertices(),
            g.memory_bytes(),
            |v| g2.neighbors(v as u32),
            &cfg,
        );
        let snap = srv.snapshot();
        for v in 0..g.num_vertices() {
            prop_assert!(
                snap.set_size(v) == full.set_size(v),
                "size of {} differs", v
            );
        }
        assert_stores_bit_identical(&snap, &full, "sharded-CBF-removal");
        for &(u, v) in &edges {
            prop_assert!(
                snap.estimate_intersection(u, v) == full.estimate_intersection(u, v),
                "estimate ({},{}) differs", u, v
            );
        }
    }
}

/// Stratified geometry under the streaming differential: an edge stream
/// applied incrementally into an empty store carrying the rebuild's own
/// resolved stratum table must land bit-identically on the from-scratch
/// stratified build, for every representation. (The geometry is pinned
/// explicitly via `build_rows_stratified` because budget *resolution*
/// legitimately differs between paths: an offline build stratifies by
/// the real degree ranks, a cold stream by the ids of an empty graph.)
#[test]
fn stratified_incremental_build_matches_rebuild() {
    use pg_sketch::StrataSpec;
    let g = pg_graph::gen::erdos_renyi_gnm(800, 24_000, 3);
    let edges = g.edge_list();
    let us: Vec<u32> = (0..60u32).collect();
    for (cfg, label) in all_cfgs() {
        let cfg = cfg.with_strata(StrataSpec::skewed_default());
        let full = ProbGraph::build(&g, &cfg);
        let sp = full
            .stratified_params()
            .unwrap_or_else(|| panic!("{label}: recipe collapsed to uniform"))
            .clone();
        let mut inc = ProbGraph::build_rows_stratified(
            g.num_vertices(),
            sp,
            cfg.bf_estimator,
            cfg.seed,
            |_| &[][..],
        );
        let (last, bulk) = edges.split_last().unwrap();
        for chunk in bulk.chunks(997) {
            inc.apply_batch(chunk);
        }
        inc.insert_edge(last.0, last.1);
        assert_eq!(
            inc.stratified_params(),
            full.stratified_params(),
            "{label}: stratum tables differ"
        );
        for v in 0..g.num_vertices() {
            assert_eq!(inc.set_size(v), full.set_size(v), "{label}: size of {v}");
        }
        assert_stores_bit_identical(&inc, &full, label);
        for &(u, v) in edges.iter().take(300) {
            assert_eq!(
                inc.estimate_intersection(u, v),
                full.estimate_intersection(u, v),
                "{label}: estimate ({u},{v})"
            );
        }
        let rows_inc = inc.with_oracle(AllRows { us: &us });
        let rows_full = full.with_oracle(AllRows { us: &us });
        assert!(rows_inc == rows_full, "{label}: row sweep differs");
    }
}

/// Interleaved insert/remove of the *same* edge follows rebuild
/// semantics: an insert→remove cycle is a perfect no-op (counters,
/// derived bits, cached popcounts, sizes all restored), and a
/// remove→re-insert cycle restores the edge exactly — at any point in
/// the cycle the store equals a rebuild of the then-current edge set.
#[test]
fn same_edge_insert_remove_cycle_matches_rebuild() {
    let g = pg_graph::gen::erdos_renyi_gnm(40, 200, 7);
    let edges = g.edge_list();
    let (a, b) = (0..g.num_vertices() as u32)
        .flat_map(|u| ((u + 1)..g.num_vertices() as u32).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("graph is not complete");
    for bhash in [1usize, 2] {
        let cfg = PgConfig::new(Representation::CountingBloom { b: bhash }, 0.3).with_seed(0xD1FF);
        let baseline = ProbGraph::build(&g, &cfg);
        let mut pg = ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), &cfg, &edges);
        // Fresh edge in, same edge out — back to the baseline exactly.
        pg.insert_edge(a, b);
        pg.remove_edge(a, b);
        assert_stores_bit_identical(&pg, &baseline, "insert-remove cycle");
        for v in 0..g.num_vertices() {
            assert_eq!(pg.set_size(v), baseline.set_size(v), "cycle v={v}");
        }
        // Present edge out, same edge back in — baseline again, and the
        // intermediate state equals a rebuild without the edge.
        let (eu, ev) = edges[edges.len() / 2];
        pg.remove_edge(eu, ev);
        let survivors: Vec<(u32, u32)> = edges.iter().copied().filter(|&e| e != (eu, ev)).collect();
        let g2 = pg_graph::CsrGraph::from_edges(g.num_vertices(), &survivors);
        let without = ProbGraph::build_over(
            g.num_vertices(),
            g.memory_bytes(),
            |v| g2.neighbors(v as u32),
            &cfg,
        );
        assert_stores_bit_identical(&pg, &without, "mid-cycle");
        pg.insert_edge(eu, ev);
        assert_stores_bit_identical(&pg, &baseline, "remove-reinsert cycle");
        for (u, v) in g.edges().take(200) {
            assert_eq!(
                pg.estimate_intersection(u, v),
                baseline.estimate_intersection(u, v),
                "cycle estimate ({u},{v})"
            );
        }
    }
}

/// The `estimate_row_into` reuse contract across a mutation: a row sweep
/// warms the buffer, an `insert_edge` mutates the sketches, and the next
/// sweep over a *narrower* row must truncate the warm buffer in place —
/// no reallocation, no stale slots — while reflecting the new edge.
#[test]
fn row_buffer_reuse_contract_survives_mutation() {
    let g = pg_graph::gen::erdos_renyi_gnm(60, 400, 3);
    let edges = g.edge_list();
    let wide: Vec<u32> = (0..g.num_vertices() as u32).collect();
    // A fresh edge between the two lowest-degree vertices not yet joined.
    let (a, b) = (0..g.num_vertices() as u32)
        .flat_map(|u| ((u + 1)..g.num_vertices() as u32).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("graph is not complete");
    for (cfg, label) in all_cfgs() {
        let mut pg = ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), &cfg, &edges);
        struct Sweep<'a> {
            us: &'a [u32],
            buf: &'a mut Vec<f64>,
            v: u32,
        }
        impl OracleVisitor for Sweep<'_> {
            type Output = ();
            fn visit<O: IntersectionOracle>(self, o: &O) {
                o.estimate_row(self.v, self.us, self.buf);
            }
        }
        let mut buf = Vec::new();
        // 1. Wide sweep warms the buffer to n slots.
        pg.with_oracle(Sweep {
            us: &wide,
            buf: &mut buf,
            v: a,
        });
        assert_eq!(buf.len(), wide.len(), "{label}: warm width");
        let warm_ptr = buf.as_ptr();
        let warm_cap = buf.capacity();
        // 2. Mutate: sketches and sizes change underneath the buffer.
        pg.insert_edge(a, b);
        // 3. Narrow sweep after the mutation reuses the same allocation.
        let narrow = &wide[..wide.len() / 2];
        pg.with_oracle(Sweep {
            us: narrow,
            buf: &mut buf,
            v: a,
        });
        assert_eq!(buf.len(), narrow.len(), "{label}: truncated width");
        assert!(
            std::ptr::eq(warm_ptr, buf.as_ptr()) && buf.capacity() == warm_cap,
            "{label}: warm row buffer was reallocated across a mutation"
        );
        // Every surviving slot was overwritten with post-mutation values:
        // compare against a rebuild of the mutated graph.
        let mut with_new = edges.clone();
        with_new.push((a.min(b), a.max(b)));
        let g2 = pg_graph::CsrGraph::from_edges(g.num_vertices(), &with_new);
        let rebuilt = ProbGraph::build_over(
            g.num_vertices(),
            g.memory_bytes(),
            |v| g2.neighbors(v as u32),
            &cfg,
        );
        for (t, &u) in narrow.iter().enumerate() {
            assert_eq!(
                buf[t],
                rebuilt.estimate_intersection(a, u),
                "{label}: stale slot {t} after mutation"
            );
        }
    }
}
