//! Link-prediction evaluation (Listing 5 of the paper).
//!
//! Protocol: remove a random subset `E_rndm` of edges, score candidate
//! non-edges of the sparsified graph `E_sparse` with a vertex-similarity
//! scheme `S`, predict the top-`|E_rndm|` pairs, and report the
//! effectiveness `ef = |E_predict ∩ E_rndm|`.
//!
//! Listing 5 scores all of `(V×V) \ E_sparse`; like every practical
//! implementation we restrict candidates to *distance-2 pairs* — any pair
//! with a positive Common-Neighbors/Jaccard/Adamic-Adar score has a common
//! neighbor, so this prunes only zero-score candidates and changes nothing
//! about the ranking.

use crate::oracle::{IntersectionOracle, OracleVisitor};
use crate::pg::ProbGraph;
use pg_graph::{split_edges, CsrGraph, EdgeSplit, VertexId};
use pg_parallel::{parallel_init, parallel_init_scratch};

/// Outcome of one evaluation run.
#[derive(Clone, Debug)]
pub struct LinkPredictionOutcome {
    /// Number of removed (to-be-predicted) edges `|E_rndm|`.
    pub num_removed: usize,
    /// The predicted pairs (top-scored candidates), `u < v`.
    pub predicted: Vec<(VertexId, VertexId)>,
    /// `ef = |E_predict ∩ E_rndm|` (Listing 5's effectiveness).
    pub hits: usize,
    /// `hits / |E_rndm|` — normalized effectiveness (precision@|E_rndm|).
    pub precision: f64,
}

/// Enumerates distance-2 non-adjacent pairs `(u, w)`, `u < w`, of `g`.
///
/// Deduplication runs in a worker-local scratch buffer (collect,
/// sort, dedup) instead of a per-vertex `HashSet` — no per-vertex hashing
/// or rehash-growth churn, and `has_edge` is probed once per *unique*
/// two-hop neighbor rather than once per wedge.
fn candidate_pairs(g: &CsrGraph) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices();
    let per_vertex: Vec<Vec<(VertexId, VertexId)>> =
        parallel_init_scratch(n, Vec::<VertexId>::new, |two_hop, ui| {
            let u = ui as VertexId;
            two_hop.clear();
            for &v in g.neighbors(u) {
                two_hop.extend(g.neighbors(v).iter().copied().filter(|&w| w > u));
            }
            two_hop.sort_unstable();
            two_hop.dedup();
            two_hop
                .iter()
                .filter(|&&w| !g.has_edge(u, w))
                .map(|&w| (u, w))
                .collect()
        });
    per_vertex.into_iter().flatten().collect()
}

/// Shared protocol tail: deterministic ranking (descending score, ties by
/// pair), top-`|E_rndm|` prediction, and effectiveness counting.
fn rank_and_score(
    split: &EdgeSplit,
    candidates: &[(VertexId, VertexId)],
    scores: &[f64],
) -> LinkPredictionOutcome {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    // total_cmp keeps the ranking total even if an estimator ever emits a
    // NaN score — a hostile input must degrade the ranking, not panic it.
    order.sort_by(|&a, &b| {
        scores[b]
            .total_cmp(&scores[a])
            .then_with(|| candidates[a].cmp(&candidates[b]))
    });
    let k = split.removed.len().min(order.len());
    let predicted: Vec<(VertexId, VertexId)> = order[..k].iter().map(|&i| candidates[i]).collect();
    let removed: std::collections::HashSet<(VertexId, VertexId)> =
        split.removed.iter().copied().collect();
    let hits = predicted.iter().filter(|p| removed.contains(p)).count();
    LinkPredictionOutcome {
        num_removed: split.removed.len(),
        precision: if split.removed.is_empty() {
            0.0
        } else {
            hits as f64 / split.removed.len() as f64
        },
        predicted,
        hits,
    }
}

/// The single candidate-scoring kernel: Common-Neighbors scores of every
/// candidate pair under any oracle, in parallel.
///
/// Scoring delegates to the shared batched scorer
/// ([`crate::algorithms::similarity::estimate_pairs_with`]), one pairwise
/// estimate per candidate — per-pair scores (and therefore the ranking)
/// are bit-identical to the per-pair loop.
pub fn score_candidates_with<O: IntersectionOracle>(
    oracle: &O,
    candidates: &[(VertexId, VertexId)],
) -> Vec<f64> {
    crate::algorithms::similarity::estimate_pairs_with(oracle, candidates)
}

/// Runs the Listing-5 protocol with an arbitrary scorer over the
/// *sparsified* graph. `frac_removed ∈ (0, 1)` is the share of edges
/// hidden; `seed` fixes the split. The scorer sees the sparse graph only.
pub fn evaluate<S>(g: &CsrGraph, frac_removed: f64, seed: u64, scorer: S) -> LinkPredictionOutcome
where
    S: Fn(&CsrGraph, VertexId, VertexId) -> f64 + Sync,
{
    let split = split_edges(g, frac_removed, seed);
    let sparse = &split.sparse;
    let candidates = candidate_pairs(sparse);
    let scores = parallel_init(candidates.len(), |i| {
        let (u, v) = candidates[i];
        scorer(sparse, u, v)
    });
    rank_and_score(&split, &candidates, &scores)
}

/// Exact Common-Neighbors scorer (the scheme Listing 4/5 build on).
pub fn exact_cn_scorer(g: &CsrGraph, u: VertexId, v: VertexId) -> f64 {
    crate::algorithms::similarity::common_neighbors(g, u, v) as f64
}

/// Runs the protocol with a ProbGraph-backed Common-Neighbors scorer
/// (sketches are built once over the sparsified graph, the representation
/// resolved once before the scoring loop).
pub fn evaluate_pg(
    g: &CsrGraph,
    frac_removed: f64,
    seed: u64,
    cfg: &crate::pg::PgConfig,
) -> LinkPredictionOutcome {
    let split = split_edges(g, frac_removed, seed);
    let sparse = &split.sparse;
    let pg = ProbGraph::build(sparse, cfg);
    let candidates = candidate_pairs(sparse);
    struct V<'a>(&'a [(VertexId, VertexId)]);
    impl OracleVisitor for V<'_> {
        type Output = Vec<f64>;
        fn visit<O: IntersectionOracle>(self, o: &O) -> Vec<f64> {
            score_candidates_with(o, self.0)
        }
    }
    let scores = pg.with_oracle(V(&candidates));
    rank_and_score(&split, &candidates, &scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pg::{PgConfig, Representation};
    use pg_graph::gen;

    #[test]
    fn candidates_are_distance_two_non_edges() {
        let g = gen::path(5); // 0-1-2-3-4
        let c = candidate_pairs(&g);
        assert_eq!(c, vec![(0, 2), (1, 3), (2, 4)]);
    }

    #[test]
    fn prediction_beats_chance_on_community_graph() {
        // Two dense communities: removed intra-community edges should be
        // recovered by common-neighbor counting far above chance.
        let mut edges = Vec::new();
        for a in 0..30u32 {
            for b in (a + 1)..30 {
                edges.push((a, b));
                edges.push((a + 30, b + 30));
            }
        }
        let g = CsrGraph::from_edges(60, &edges);
        let out = evaluate(&g, 0.1, 7, exact_cn_scorer);
        assert!(out.num_removed > 0);
        assert!(
            out.precision > 0.8,
            "CN should recover clique edges: precision={}",
            out.precision
        );
    }

    #[test]
    fn pg_scorer_comparable_to_exact() {
        let mut edges = Vec::new();
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                edges.push((a, b));
            }
        }
        let g = CsrGraph::from_edges(40, &edges);
        let exact = evaluate(&g, 0.15, 3, exact_cn_scorer);
        let pg = evaluate_pg(
            &g,
            0.15,
            3,
            &PgConfig::new(Representation::Bloom { b: 2 }, 0.33),
        );
        assert_eq!(exact.num_removed, pg.num_removed);
        assert!(
            pg.precision >= exact.precision * 0.6,
            "pg={} exact={}",
            pg.precision,
            exact.precision
        );
    }

    #[test]
    fn deterministic() {
        let g = gen::kronecker(8, 8, 2);
        let a = evaluate(&g, 0.2, 5, exact_cn_scorer);
        let b = evaluate(&g, 0.2, 5, exact_cn_scorer);
        assert_eq!(a.predicted, b.predicted);
        assert_eq!(a.hits, b.hits);
    }

    #[test]
    fn no_candidates_graph() {
        // A single edge: no distance-2 pairs at all.
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let out = evaluate(&g, 0.0, 1, exact_cn_scorer);
        assert_eq!(out.hits, 0);
        assert!(out.predicted.is_empty());
    }
}
