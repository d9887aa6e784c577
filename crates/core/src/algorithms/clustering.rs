//! Jarvis–Patrick clustering (Listing 4 of the paper): an edge `(u, v)`
//! joins the clustering `C` iff the similarity of `N_u` and `N_v` exceeds
//! a user threshold `τ`. The paper evaluates three similarity variants —
//! Common Neighbors, Jaccard, and Overlap (Figs. 4, 7, 8) — and reports
//! the *number of clusters* (connected components of `(V, C)` with ≥ 2
//! vertices) as the accuracy metric.

use crate::algorithms::dsu::Dsu;
use crate::oracle::{ExactOracle, IntersectionOracle, OracleVisitor};
use crate::pg::ProbGraph;
use pg_graph::{CsrGraph, VertexId};
use pg_parallel::{parallel_for_scratch, weighted_grain};

/// Which vertex-similarity measure gates an edge into the clustering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimilarityKind {
    /// `S_C = |N_u ∩ N_v| > τ` (τ is an absolute count).
    CommonNeighbors,
    /// `S_J = |N_u ∩ N_v| / |N_u ∪ N_v| > τ` (τ ∈ [0, 1]).
    Jaccard,
    /// `S_O = |N_u ∩ N_v| / min(d_u, d_v) > τ` (τ ∈ [0, 1]).
    Overlap,
}

/// Result of one clustering run.
#[derive(Clone, Debug, PartialEq)]
pub struct Clustering {
    /// Edges selected into `C`, indexed in [`CsrGraph::edges`] order (the
    /// order of [`CsrGraph::edge_list`]).
    pub selected: Vec<bool>,
    /// Number of selected edges `|C|`.
    pub num_edges: usize,
    /// Connected components of `(V, C)` with at least two vertices.
    pub num_clusters: usize,
}

fn finish(
    n: usize,
    edges: impl Iterator<Item = (VertexId, VertexId)>,
    selected: Vec<bool>,
) -> Clustering {
    let mut dsu = Dsu::new(n);
    let mut num_edges = 0;
    for (i, (u, v)) in edges.enumerate() {
        if selected[i] {
            num_edges += 1;
            dsu.union(u, v);
        }
    }
    let num_clusters = dsu.count_components(2);
    Clustering {
        selected,
        num_edges,
        num_clusters,
    }
}

/// The single Listing-4 kernel, generic over the oracle.
///
/// Edges are grouped by source vertex into worker-local runs: the edge
/// list emits every edge once as `(u, v)` with `u < v`, sources
/// ascending, so `u`'s edges are its contiguous block, and one
/// [`IntersectionOracle::estimate_row`] / `jaccard_row` sweep over
/// `u`'s forward neighbors scores the whole block with the source-side
/// sketch state pinned once — no per-pair re-fetch, no per-edge
/// dispatch. Per edge the similarity is bit-identical to the per-pair
/// forms in [`crate::algorithms::similarity`], so the selection (and
/// the component count) is exactly what the per-pair loop produced.
pub fn jarvis_patrick_with<O: IntersectionOracle>(
    g: &CsrGraph,
    oracle: &O,
    kind: SimilarityKind,
    tau: f64,
) -> Clustering {
    let n = g.num_vertices();
    // Forward-run offsets: edges of source u live at offsets[u]..offsets[u+1]
    // of the edge order `g.edges()` yields (sources ascending, then each
    // source's forward neighbors), so no edge list is materialized.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut max_fwd = 0usize;
    for u in 0..n {
        let fwd = g.forward_neighbors(u as VertexId).len();
        max_fwd = max_fwd.max(fwd);
        offsets.push(offsets[u] + fwd);
    }
    let m = offsets[n];
    let mut selected = vec![false; m];
    {
        struct SendPtr(*mut bool);
        unsafe impl Send for SendPtr {}
        unsafe impl Sync for SendPtr {}
        let base = SendPtr(selected.as_mut_ptr());
        let base = &base;
        let offsets = &offsets;
        if let Some(plan) = crate::grain::plan_for(oracle, n) {
            // Blocked traversal: per-edge similarities are bit-identical
            // to the row sweep below (the tiled kernels reuse the same
            // lane split), so the selection — exact booleans — cannot
            // change; segments write disjoint ranges of `selected` at
            // `offsets[u] + seg_row_start`.
            let bk = if kind == SimilarityKind::Jaccard {
                crate::grain::BlockKind::Jaccard
            } else {
                crate::grain::BlockKind::Estimate
            };
            crate::grain::tiled_block_sweep(
                n,
                n,
                oracle,
                &plan,
                bk,
                |u| g.forward_neighbors(u),
                || (),
                |(), u, lo, dests, vals| {
                    // SAFETY: segments of source u stay inside u's
                    // exclusive block offsets[u]..offsets[u+1] (forward
                    // runs partition the edge list, and seg_row_start/len
                    // address within u's forward run).
                    let out = unsafe {
                        std::slice::from_raw_parts_mut(
                            base.0.add(offsets[u as usize] + lo),
                            vals.len(),
                        )
                    };
                    match kind {
                        SimilarityKind::CommonNeighbors => {
                            for (s, &e) in out.iter_mut().zip(vals) {
                                *s = e.max(0.0) > tau;
                            }
                        }
                        SimilarityKind::Jaccard => {
                            for (s, &j) in out.iter_mut().zip(vals) {
                                *s = j > tau;
                            }
                        }
                        SimilarityKind::Overlap => {
                            let du = oracle.set_size(u);
                            for ((s, &e), &v) in out.iter_mut().zip(vals).zip(dests) {
                                let m = du.min(oracle.set_size(v));
                                *s = crate::algorithms::similarity::overlap_from_estimate(e, m)
                                    > tau;
                            }
                        }
                    }
                },
                |(), ()| (),
            );
        } else {
            let grain = weighted_grain(n, m as u64, max_fwd as u64);
            parallel_for_scratch(n, grain, Vec::new, |row: &mut Vec<f64>, ui| {
                let u = ui as VertexId;
                let fwd = g.forward_neighbors(u);
                if fwd.is_empty() {
                    return;
                }
                // SAFETY: the block offsets[ui]..offsets[ui+1] is exclusive
                // to source u (forward runs partition the edge list).
                let out =
                    unsafe { std::slice::from_raw_parts_mut(base.0.add(offsets[ui]), fwd.len()) };
                match kind {
                    SimilarityKind::CommonNeighbors => {
                        oracle.estimate_row(u, fwd, row);
                        for (s, &e) in out.iter_mut().zip(row.iter()) {
                            *s = e.max(0.0) > tau;
                        }
                    }
                    SimilarityKind::Jaccard => {
                        oracle.jaccard_row(u, fwd, row);
                        for (s, &j) in out.iter_mut().zip(row.iter()) {
                            *s = j > tau;
                        }
                    }
                    SimilarityKind::Overlap => {
                        oracle.estimate_row(u, fwd, row);
                        let du = oracle.set_size(u);
                        for ((s, &e), &v) in out.iter_mut().zip(row.iter()).zip(fwd) {
                            let m = du.min(oracle.set_size(v));
                            *s = crate::algorithms::similarity::overlap_from_estimate(e, m) > tau;
                        }
                    }
                }
            });
        }
    }
    finish(n, g.edges(), selected)
}

/// Exact Jarvis–Patrick clustering (tuned baseline): the generic kernel
/// with the exact oracle.
pub fn jarvis_patrick_exact(g: &CsrGraph, kind: SimilarityKind, tau: f64) -> Clustering {
    jarvis_patrick_with(g, &ExactOracle::new(g), kind, tau)
}

/// PG-accelerated Jarvis–Patrick clustering: resolves the representation
/// once, then runs the generic kernel.
pub fn jarvis_patrick_pg(
    g: &CsrGraph,
    pg: &ProbGraph,
    kind: SimilarityKind,
    tau: f64,
) -> Clustering {
    struct V<'a>(&'a CsrGraph, SimilarityKind, f64);
    impl OracleVisitor for V<'_> {
        type Output = Clustering;
        fn visit<O: IntersectionOracle>(self, o: &O) -> Clustering {
            jarvis_patrick_with(self.0, o, self.1, self.2)
        }
    }
    pg.with_oracle(V(g, kind, tau))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pg::{PgConfig, Representation};
    use pg_graph::gen;

    #[test]
    fn two_cliques_one_bridge() {
        // Two K5s joined by a single bridge edge: with τ = 1 on common
        // neighbors, intra-clique edges (3 shared neighbors) survive, the
        // bridge (0 shared) does not -> 2 clusters.
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                edges.push((a, b));
                edges.push((a + 5, b + 5));
            }
        }
        edges.push((0, 5));
        let g = CsrGraph::from_edges(10, &edges);
        let c = jarvis_patrick_exact(&g, SimilarityKind::CommonNeighbors, 1.0);
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.num_edges, 20);
    }

    #[test]
    fn zero_threshold_keeps_edges_with_any_shared_neighbor() {
        let g = gen::complete(6);
        // Every edge of K6 has 4 shared neighbors.
        let c = jarvis_patrick_exact(&g, SimilarityKind::CommonNeighbors, 0.0);
        assert_eq!(c.num_edges, 15);
        assert_eq!(c.num_clusters, 1);
    }

    #[test]
    fn huge_threshold_selects_nothing() {
        let g = gen::complete(6);
        let c = jarvis_patrick_exact(&g, SimilarityKind::CommonNeighbors, 100.0);
        assert_eq!(c.num_edges, 0);
        assert_eq!(c.num_clusters, 0);
    }

    #[test]
    fn triangle_free_graph_with_positive_tau_has_no_clusters() {
        // In a triangle-free graph adjacent vertices share no neighbors.
        let g = gen::grid(5, 5);
        for kind in [
            SimilarityKind::CommonNeighbors,
            SimilarityKind::Jaccard,
            SimilarityKind::Overlap,
        ] {
            let c = jarvis_patrick_exact(&g, kind, 0.01);
            assert_eq!(c.num_edges, 0, "{kind:?}");
        }
    }

    #[test]
    fn jaccard_and_overlap_variants_run() {
        let g = gen::kronecker(8, 10, 3);
        for kind in [SimilarityKind::Jaccard, SimilarityKind::Overlap] {
            let c = jarvis_patrick_exact(&g, kind, 0.2);
            assert!(c.num_edges <= g.num_edges());
            assert!(c.num_clusters <= g.num_vertices() / 2 + 1);
        }
    }

    #[test]
    fn pg_clustering_close_to_exact_on_dense_graph() {
        let g = gen::erdos_renyi_gnm(250, 250 * 25, 21);
        let kind = SimilarityKind::CommonNeighbors;
        // Threshold near the expected co-neighbor count splits edges
        // non-trivially.
        let tau = 5.0;
        let exact = jarvis_patrick_exact(&g, kind, tau);
        for rep in [Representation::Bloom { b: 2 }, Representation::OneHash] {
            let pg = ProbGraph::build(&g, &PgConfig::new(rep, 0.33));
            let approx = jarvis_patrick_pg(&g, &pg, kind, tau);
            let rel = approx.num_edges as f64 / exact.num_edges.max(1) as f64;
            assert!((0.5..2.0).contains(&rel), "{rep:?}: rel edges = {rel}");
        }
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let g = gen::kronecker(8, 8, 9);
        let a =
            pg_parallel::with_threads(1, || jarvis_patrick_exact(&g, SimilarityKind::Jaccard, 0.1));
        let b =
            pg_parallel::with_threads(8, || jarvis_patrick_exact(&g, SimilarityKind::Jaccard, 0.1));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(4, &[]);
        let c = jarvis_patrick_exact(&g, SimilarityKind::Jaccard, 0.5);
        assert_eq!(c.num_edges, 0);
        assert_eq!(c.num_clusters, 0);
    }
}
