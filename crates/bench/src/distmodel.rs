//! Communication-volume model for the distributed-memory analysis of
//! §VIII-F — pinned against the real exchange.
//!
//! The paper's distributed claim is about transferred bytes: sketches are
//! small and never split across nodes, so exchanging sketches instead of
//! raw CSR neighborhoods cuts communication "up to 4×". The repo now has a
//! real multi-process exchange (`probgraph::exchange`) that counts bytes
//! on the socket, so this model is no longer free to hand-wave; it must
//! predict those measured bytes.
//!
//! Two early modeling bugs the measured exchange exposed, both fixed here:
//!
//! 1. **Per-cut-edge double counting.** The old model charged one sketch
//!    per *cut edge*. A boundary vertex referenced by many vertices of the
//!    same remote part is shipped **once per (vertex, remote part)** —
//!    both in any sane implementation and in the exact baseline the ratio
//!    divides by. The model now deduplicates exactly like the exchange's
//!    ship sets.
//! 2. **Hardcoded wire sizes.** Payload bytes were guessed from the
//!    in-memory layout (e.g. `4k` for 1-hash, whose wire format actually
//!    carries 8 bytes per stored element plus per-set tables). Sizes are
//!    now **derived from `snapshot_to_bytes` itself** ([`wire_cost`]), so
//!    they cannot drift from the serializer.
//!
//! Prices are per stratum: a shipped vertex pays its own stratum's bytes.
//! A uniform store is the one-stratum table — it serializes to the uniform
//! bytes, so its probes return the uniform coefficients.
//!
//! The model mirrors the exchange protocol term for term: per ordered
//! pair, ship-set rows are chunked, each chunk pays one frame header plus
//! the snapshot's fixed overhead, and an empty ship set still costs its
//! one handshake frame. For representations whose snapshot arrays are
//! per-set aligned (all of them; the probed marginals are constant) the
//! prediction matches the measured byte count exactly.

use pg_graph::{CsrGraph, OrientedDag, VertexId};
use pg_sketch::{SketchParams, StratifiedParams};
use probgraph::pg::BfEstimator;
use probgraph::ProbGraph;

/// Frame header bytes per payload — must match
/// `probgraph::exchange::FRAME_HEADER_LEN` (asserted in the tests).
pub const FRAME_OVERHEAD: u64 = 40;

/// Fixed bytes of an exact-rows payload beyond its per-set/per-element
/// terms (the row-count word).
pub const EXACT_PAYLOAD_FIXED: u64 = 4;

/// Bytes on the wire for one full intersection round over all part pairs.
#[derive(Clone, Copy, Debug)]
pub struct CommVolume {
    /// Exact CSR neighborhood exchange.
    pub exact_bytes: u64,
    /// Sketch exchange.
    pub sketch_bytes: u64,
}

impl CommVolume {
    /// `exact / sketch` — the reduction factor the paper reports. When
    /// **both** sides are zero (single part, edgeless graph) there is no
    /// communication to reduce and the ratio is `1.0`, not `0/0`'s NaN or
    /// the old `INFINITY`.
    pub fn reduction(&self) -> f64 {
        if self.exact_bytes == 0 && self.sketch_bytes == 0 {
            return 1.0;
        }
        self.exact_bytes as f64 / self.sketch_bytes as f64
    }
}

/// Balanced pseudo-random assignment of vertices to `p` parts.
pub fn random_partition(n: usize, p: usize, seed: u64) -> Vec<u32> {
    assert!(p >= 1);
    (0..n)
        .map(|v| (pg_hash::splitmix64_at(seed ^ v as u64) % p as u64) as u32)
        .collect()
}

/// Wire-format cost coefficients of one snapshot payload, **probed from
/// the serializer**, per stratum: a payload holding `s_j` sets of stratum
/// `j` with `e_j` stored elements between them costs
/// `fixed_per_payload + Σ_j per_set[j]·s_j + per_elem[j]·e_j` bytes.
#[derive(Clone, Debug)]
pub struct WireCost {
    /// Header + section table (+ stratum parameter table) of an empty
    /// snapshot.
    pub fixed_per_payload: u64,
    /// Marginal bytes per additional empty set, by stratum (including a
    /// stratified set's assignment byte).
    pub per_set: Vec<u64>,
    /// Marginal bytes per stored element, by stratum (0 for fixed-size
    /// sketches).
    pub per_elem: Vec<u64>,
    /// Stored elements cap per set, by stratum (`k` for bottom-k/KMV,
    /// 0 = none).
    pub elem_cap: Vec<usize>,
}

impl WireCost {
    /// Stored elements for a row of `degree` neighbors in stratum `j`.
    pub fn capped_elems(&self, j: usize, degree: usize) -> u64 {
        if self.per_elem[j] == 0 {
            0
        } else {
            degree.min(self.elem_cap[j]) as u64
        }
    }
}

/// Derives the [`WireCost`] of a resolved parameter table by serializing
/// micro snapshots through the same `build_rows_stratified` +
/// `snapshot_to_bytes` path the exchange workers use: a zero-set baseline,
/// then one (empty set, single-element set) probe pair per stratum. The
/// coefficients therefore cannot drift from the wire format — if the
/// snapshot layout changes, so does the model.
pub fn wire_cost(sp: &StratifiedParams, est: BfEstimator, seed: u64) -> WireCost {
    let snap_len = |assign: Vec<u8>, rows: &[&[u32]]| -> u64 {
        let sub = StratifiedParams::new(sp.strata().to_vec(), assign);
        let pg = ProbGraph::build_rows_stratified(rows.len(), sub, est, seed, |i| rows[i]);
        pg.snapshot_to_bytes().len() as u64
    };
    let b00 = snap_len(Vec::new(), &[]);
    let mut cost = WireCost {
        fixed_per_payload: b00,
        per_set: Vec::new(),
        per_elem: Vec::new(),
        elem_cap: Vec::new(),
    };
    for (j, p) in sp.strata().iter().enumerate() {
        let bj0 = snap_len(vec![j as u8], &[&[]]);
        let bj1 = snap_len(vec![j as u8], &[&[7]]);
        cost.per_set.push(bj0 - b00);
        cost.per_elem.push(bj1 - bj0);
        cost.elem_cap.push(match *p {
            SketchParams::OneHash { k } | SketchParams::Kmv { k } => k,
            _ => 0,
        });
    }
    cost
}

/// Predicted bytes per ordered part pair `(sketch, exact)`, mirroring the
/// exchange protocol exactly: ship sets — the distinct vertices owned by
/// `q` that appear in the `N⁺` row of at least one vertex owned by `r` —
/// are chunked into `chunk_sets`-row payloads, each payload pays one
/// [`FRAME_OVERHEAD`] header plus the format's fixed cost, each shipped
/// vertex pays **its own stratum's** per-set and per-element bytes
/// (`sp.stratum_of(u)`), and an empty ship set still costs one handshake
/// frame. The exact baseline ships 4 bytes per row and per element.
/// Diagonal entries are zero.
pub fn model_pair_bytes(
    dag: &OrientedDag,
    parts: &[u32],
    p: usize,
    sp: &StratifiedParams,
    cost: &WireCost,
    chunk_sets: usize,
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let chunk = chunk_sets.max(1) as u64;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); p * p];
    for v in 0..dag.num_vertices() {
        let r = parts[v] as usize;
        for &u in dag.neighbors_plus(v as VertexId) {
            let q = parts[u as usize] as usize;
            if q != r {
                buckets[q * p + r].push(u);
            }
        }
    }
    let mut sketch = vec![vec![0u64; p]; p];
    let mut exact = vec![vec![0u64; p]; p];
    for (idx, b) in buckets.iter_mut().enumerate() {
        let (q, r) = (idx / p, idx % p);
        if q == r {
            continue;
        }
        b.sort_unstable();
        b.dedup();
        if b.is_empty() {
            sketch[q][r] = FRAME_OVERHEAD;
            exact[q][r] = FRAME_OVERHEAD;
            continue;
        }
        let sets = b.len() as u64;
        let n_chunks = sets.div_ceil(chunk);
        let mut sketch_bytes = n_chunks * (FRAME_OVERHEAD + cost.fixed_per_payload);
        let mut elems_raw = 0u64;
        for &u in b.iter() {
            let j = sp.stratum_of(u as usize);
            let d = dag.out_degree(u);
            sketch_bytes += cost.per_set[j] + cost.per_elem[j] * cost.capped_elems(j, d);
            elems_raw += d as u64;
        }
        sketch[q][r] = sketch_bytes;
        exact[q][r] = n_chunks * (FRAME_OVERHEAD + EXACT_PAYLOAD_FIXED) + 4 * sets + 4 * elems_raw;
    }
    (sketch, exact)
}

/// Models one neighborhood-exchange round over the oriented DAG: total
/// predicted bytes for the sketch round and the exact-adjacency baseline,
/// shipping each boundary vertex **once per (vertex, remote part)**.
pub fn model_volume(
    dag: &OrientedDag,
    parts: &[u32],
    p: usize,
    sp: &StratifiedParams,
    cost: &WireCost,
    chunk_sets: usize,
) -> CommVolume {
    let (sketch, exact) = model_pair_bytes(dag, parts, p, sp, cost, chunk_sets);
    CommVolume {
        exact_bytes: exact.iter().flatten().sum(),
        sketch_bytes: sketch.iter().flatten().sum(),
    }
}

/// Convenience: the model for a graph sketched under `cfg`-style inputs —
/// orients the graph by degree (the TC/4-clique orientation the exchange
/// uses) and probes the wire cost of the resolved parameter table.
pub fn model_volume_for(
    g: &CsrGraph,
    pg: &ProbGraph,
    parts: &[u32],
    p: usize,
    chunk_sets: usize,
) -> CommVolume {
    let dag = pg_graph::orient_by_degree(g);
    let sp = pg.resolved_params();
    let cost = wire_cost(sp, pg.bf_estimator(), pg.seed());
    model_volume(&dag, parts, p, sp, &cost, chunk_sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_graph::{gen, orient_by_degree};
    use probgraph::{PgConfig, Representation};

    /// A one-stratum table with hand-set fixed-size sketch costs.
    fn flat_cost(fixed_per_payload: u64, per_set: u64) -> (StratifiedParams, WireCost) {
        let sp = StratifiedParams::uniform(SketchParams::KHash { k: 1 });
        let cost = WireCost {
            fixed_per_payload,
            per_set: vec![per_set],
            per_elem: vec![0],
            elem_cap: vec![0],
        };
        (sp, cost)
    }

    #[test]
    fn partition_is_balanced_and_deterministic() {
        let p = random_partition(10_000, 4, 9);
        assert_eq!(p, random_partition(10_000, 4, 9));
        for part in 0..4u32 {
            let cnt = p.iter().filter(|&&x| x == part).count();
            assert!((2000..3000).contains(&cnt), "part {part}: {cnt}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn frame_overhead_matches_the_exchange() {
        assert_eq!(
            FRAME_OVERHEAD as usize,
            probgraph::exchange::FRAME_HEADER_LEN
        );
    }

    #[test]
    fn single_part_has_no_communication_and_reduction_one() {
        let g = gen::complete(20);
        let dag = orient_by_degree(&g);
        let parts = vec![0u32; 20];
        let (sp, cost) = flat_cost(100, 64);
        let v = model_volume(&dag, &parts, 1, &sp, &cost, 512);
        assert_eq!(v.exact_bytes, 0);
        assert_eq!(v.sketch_bytes, 0);
        // The 0/0 round trips to "no reduction", not infinity or NaN.
        assert_eq!(v.reduction(), 1.0);
    }

    #[test]
    fn boundary_vertices_are_charged_once_per_remote_part() {
        // Star: center 0, leaves 1..=4. Degree orientation points every
        // leaf at the center, so N⁺(leaf) = {0} and N⁺(0) = {}.
        let g = gen::star(5);
        let dag = orient_by_degree(&g);
        assert_eq!(
            dag.out_degree(0),
            0,
            "center must sink under degree orientation"
        );
        // Center in part 0, all leaves in part 1: four cut edges all
        // referencing the single boundary vertex 0.
        let parts = vec![0u32, 1, 1, 1, 1];
        let (sp, cost) = flat_cost(96, 72);
        let (sketch, exact) = model_pair_bytes(&dag, &parts, 2, &sp, &cost, 512);
        // One payload chunk shipping exactly ONE set (not four): the old
        // per-cut-edge model would have charged 4 × per_set here.
        assert_eq!(sketch[0][1], FRAME_OVERHEAD + 96 + 72);
        assert_eq!(exact[0][1], FRAME_OVERHEAD + EXACT_PAYLOAD_FIXED + 4);
        // Nothing flows the other way beyond the handshake frame.
        assert_eq!(sketch[1][0], FRAME_OVERHEAD);
        assert_eq!(exact[1][0], FRAME_OVERHEAD);
    }

    #[test]
    fn wire_cost_is_probed_not_hardcoded() {
        // 1-hash wire payloads carry 8 bytes per stored element (element
        // + its hash) plus per-set tables — the old `4k` guess undershot
        // by more than half. The probe must see the real marginals.
        let probe = |p| wire_cost(&StratifiedParams::uniform(p), BfEstimator::default(), 42);
        let cost = probe(SketchParams::OneHash { k: 16 });
        assert_eq!(cost.per_elem, [8], "bottom-k stores element + hash");
        assert!(
            cost.per_set[0] >= 12,
            "per-set offset/len/size tables undercounted: {}",
            cost.per_set[0]
        );
        assert_eq!(cost.elem_cap, [16]);

        // Fixed-size sketches have no per-element term.
        let bf = probe(SketchParams::Bloom {
            bits_per_set: 256,
            b: 2,
        });
        assert_eq!(bf.per_elem, [0]);
        assert_eq!(bf.per_set, [256 / 8 + 4 + 4], "filter words + ones + sizes");

        let kmv = probe(SketchParams::Kmv { k: 8 });
        assert_eq!(kmv.per_elem, [8], "KMV stores a 64-bit hash per element");
    }

    #[test]
    fn sketches_reduce_volume_on_dense_graphs() {
        // Dense graph, 25 % budget measured against the oriented DAG the
        // wire actually ships (a sketch replaces an `N⁺` row, so `s` is a
        // fraction of that row's bytes): exact rows cost ~4·d⁺ bytes, the
        // sketch about a quarter of that plus overheads.
        let g = gen::erdos_renyi_gnm(300, 300 * 75, 3);
        let dag = orient_by_degree(&g);
        let dag_bytes = 4 * (g.num_vertices() + 1) + 4 * g.num_edges();
        let pg = ProbGraph::build_dag(
            &dag,
            dag_bytes,
            &PgConfig::new(Representation::Bloom { b: 2 }, 0.25),
        );
        let parts = random_partition(300, 4, 1);
        let sp = pg.resolved_params();
        let cost = wire_cost(sp, pg.bf_estimator(), pg.seed());
        let v = model_volume(&dag, &parts, 4, sp, &cost, 512);
        assert!(v.reduction() > 2.0, "reduction={}", v.reduction());
    }

    #[test]
    fn bigger_sketches_shrink_the_modeled_reduction() {
        let g = gen::erdos_renyi_gnm(200, 200 * 50, 5);
        let dag = orient_by_degree(&g);
        let parts = random_partition(200, 2, 2);
        let (sp, small) = flat_cost(96, 32);
        let (_, large) = flat_cost(96, 128);
        let rs = model_volume(&dag, &parts, 2, &sp, &small, 512).reduction();
        let rl = model_volume(&dag, &parts, 2, &sp, &large, 512).reduction();
        assert!(
            rs > rl,
            "smaller sketches must model a larger reduction: {rs} vs {rl}"
        );
    }

    #[test]
    fn stratified_wire_cost_probes_per_stratum_marginals() {
        use pg_sketch::StrataSpec;
        let g = gen::erdos_renyi_gnm(800, 24_000, 3);
        let cfg = PgConfig::stratified(Representation::OneHash, 0.3, StrataSpec::skewed_default());
        let pg = ProbGraph::build(&g, &cfg);
        let sp = pg
            .stratified_params()
            .expect("collapsed to uniform")
            .clone();
        let cost = wire_cost(&sp, pg.bf_estimator(), pg.seed());
        assert_eq!(cost.per_set.len(), sp.n_strata());
        // Every stratum stores element + hash on the wire, and the wider
        // stratum 0 cannot cap fewer elements than the base stratum.
        for j in 0..sp.n_strata() {
            assert_eq!(cost.per_elem[j], 8, "stratum {j}");
            match sp.strata()[j] {
                SketchParams::OneHash { k } => assert_eq!(cost.elem_cap[j], k),
                other => panic!("unexpected stratum params {other:?}"),
            }
        }
        assert!(cost.elem_cap[0] > *cost.elem_cap.last().unwrap());
        // The stratified fixed overhead carries the stratum table on top
        // of the uniform snapshot overhead.
        let uniform = wire_cost(
            &StratifiedParams::uniform(sp.strata()[0]),
            pg.bf_estimator(),
            pg.seed(),
        );
        assert!(cost.fixed_per_payload > uniform.fixed_per_payload);
    }

    /// Stratified sibling of the exact pinning test below: per-vertex,
    /// per-stratum charging must reproduce the measured socket bytes of a
    /// stratified exchange byte for byte.
    #[cfg(unix)]
    #[test]
    fn stratified_model_matches_measured_exchange_bytes_exactly() {
        use pg_sketch::StrataSpec;
        use probgraph::exchange::{run_exchange, ExchangeOptions};
        let g = gen::erdos_renyi_gnm(800, 24_000, 3);
        let dag = orient_by_degree(&g);
        let n = dag.num_vertices();
        for rep in [Representation::Bloom { b: 2 }, Representation::OneHash] {
            let cfg = PgConfig::stratified(rep, 0.3, StrataSpec::skewed_default());
            let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
            let sp = pg
                .stratified_params()
                .unwrap_or_else(|| panic!("{rep:?}: collapsed to uniform"));
            let parts = random_partition(n, 3, 7);
            let opts = ExchangeOptions {
                chunk_sets: 64,
                ..ExchangeOptions::default()
            };
            let report = run_exchange(&dag, &pg, &parts, 3, &opts).expect("exchange runs");
            let cost = wire_cost(sp, pg.bf_estimator(), pg.seed());
            let (sketch, exact) = model_pair_bytes(&dag, &parts, 3, sp, &cost, 64);
            assert_eq!(
                sketch, report.sketch_pair_bytes,
                "{rep:?}: modeled stratified sketch bytes diverge from the socket"
            );
            assert_eq!(
                exact, report.exact_pair_bytes,
                "{rep:?}: modeled exact bytes diverge from the socket"
            );
        }
    }

    /// The pinning test the whole module exists for: the model's per-pair
    /// predictions must equal the bytes the real multi-process exchange
    /// counts on its sockets, byte for byte.
    #[cfg(unix)]
    #[test]
    fn model_matches_measured_exchange_bytes_exactly() {
        use probgraph::exchange::{run_exchange, ExchangeOptions};
        let g = gen::kronecker(8, 8, 42);
        let dag = orient_by_degree(&g);
        let n = dag.num_vertices();
        for rep in [Representation::Bloom { b: 2 }, Representation::OneHash] {
            let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &PgConfig::new(rep, 0.25));
            let parts = random_partition(n, 3, 7);
            let opts = ExchangeOptions {
                chunk_sets: 64,
                ..ExchangeOptions::default()
            };
            let report = run_exchange(&dag, &pg, &parts, 3, &opts).expect("exchange runs");
            let sp = pg.resolved_params();
            let cost = wire_cost(sp, pg.bf_estimator(), pg.seed());
            let (sketch, exact) = model_pair_bytes(&dag, &parts, 3, sp, &cost, 64);
            assert_eq!(
                sketch, report.sketch_pair_bytes,
                "{rep:?}: modeled sketch bytes diverge from the socket"
            );
            assert_eq!(
                exact, report.exact_pair_bytes,
                "{rep:?}: modeled exact bytes diverge from the socket"
            );
        }
    }

    /// The headline cell of `--bin distributed` (§VIII-F): the
    /// `dimacs-c500-9` stand-in at scale 4, BF2 at s = 25 % of the oriented
    /// DAG's CSR bytes, 4 parts of `random_partition(n, 4, 11)`, 512-set
    /// chunks. The measured socket bytes must be at least 2× below
    /// shipping exact `N⁺` rows (3.53× when this gate was written).
    #[cfg(unix)]
    #[test]
    fn bloom_four_part_exchange_ships_at_least_2x_fewer_bytes() {
        use probgraph::exchange::{run_exchange, ExchangeOptions};
        let g = gen::instance("dimacs-c500-9", 4).expect("known family");
        let dag = orient_by_degree(&g);
        let n = dag.num_vertices();
        let dag_bytes = 4 * (n + 1) + 4 * g.num_edges();
        let cfg = PgConfig::new(Representation::Bloom { b: 2 }, 0.25);
        let pg = ProbGraph::build_dag(&dag, dag_bytes, &cfg);
        let parts = random_partition(n, 4, 11);
        let opts = ExchangeOptions {
            chunk_sets: 512,
            ..ExchangeOptions::default()
        };
        let report = run_exchange(&dag, &pg, &parts, 4, &opts).expect("exchange runs");
        assert!(
            report.reduction() >= 2.0,
            "BF2 at 4 parts cuts the exchange only {:.3}x",
            report.reduction()
        );
    }
}
