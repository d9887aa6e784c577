//! 4-Clique Counting (Listing 2 of the paper, reformulated to expose
//! `|X ∩ Y|`): for every oriented edge `(u, v)` materialize the 3-clique
//! set `C3 = N⁺_u ∩ N⁺_v`, then for each `w ∈ C3` add `|N⁺_w ∩ C3|`.
//!
//! One generic kernel, [`count_on_dag`]: `C3` is exact, filtered out of
//! `N⁺_v` through a bitmap of `N⁺_u` that is marked once per source `u`
//! ([`crate::intersect::filter_marked`]), and the whole inner sum
//! `Σ_{w∈C3} |N⁺_w ∩ C3|` is one
//! [`IntersectionOracle::accumulate_member_sum`] call per oriented edge.
//! Its default adds [`IntersectionOracle::estimate_vs_members`] per `w` —
//! an exact merge for the exact oracle, sample/signature hit counting
//! (scaled by `|N⁺_w|/k`) for MinHash. `C3` is an ad-hoc set with no
//! prebuilt sketch, so the sketched side is always the expensive
//! high-degree `N⁺_w` — which is where the paper's asymptotic advantage
//! (Table VI: `O(n d² B/W)` vs `O(n d³)`) comes from. KMV/HLL store hash
//! values, not elements, and are rejected by the oracle itself (the paper
//! only evaluates BF and MH on clique counting).
//!
//! Bloom filters answer membership queries, and two facts cut their work.
//! `N⁺_w` holds only vertices ranked above `w`, so the Bloom oracle orders
//! `C3` by degree rank and probes each member's filter only with the
//! members after it (the rank suffix). And a member's raw hashes do not
//! depend on the filter probed, so each member is hashed once per edge
//! and reduced to each filter's own width. The skipped lower-ranked
//! members could only ever be false positives, and Bloom filters have no
//! false negatives, so the Bloom count can only fall toward the exact
//! count, never below it.

use crate::grain::degree_power_grain;
use crate::intersect::{clear_marks, filter_marked, mark_set};
use crate::oracle::{ExactOracle, IntersectionOracle, MemberScratch, OracleVisitor};
use crate::pg::ProbGraph;
use pg_graph::{orient_by_degree, CsrGraph, OrientedDag, VertexId};
use pg_parallel::map_reduce_scratch;
use pg_sketch::bitvec::prefetch_slice;

/// The single Listing-2 kernel, generic over the oracle.
///
/// Each worker keeps three scratch values for the whole run, with zero
/// per-vertex allocation: an `n`-bit mark bitmap (`n / 8` bytes, small
/// enough for L1 on the graphs mined here), the materialized `C3` set,
/// and the oracle's [`MemberScratch`]. Per source `u` the bitmap holds
/// exactly `N⁺_u`: its bits are set before the edges of `u` and the words
/// they touched are zeroed after, and since no other word was set, that
/// leaves the whole bitmap zero for the next source. Per edge `(u, v)`,
/// `C3` is `N⁺_v` filtered through the bitmap while the next `v`'s row is
/// prefetched; it comes out ascending by ID, the set and order a merge of
/// `N⁺_u` and `N⁺_v` gives. The grain is cube-weighted
/// (`work(u) ∝ d⁺_u³`) so hubs don't serialize.
pub fn count_on_dag<O: IntersectionOracle>(dag: &OrientedDag, oracle: &O) -> f64 {
    let rank = dag.rank();
    let words = dag.num_vertices().div_ceil(64);
    map_reduce_scratch(
        dag.num_vertices(),
        degree_power_grain(dag, 3),
        || 0f64,
        || (vec![0u64; words], Vec::new(), MemberScratch::default()),
        |(marks, c3, members), acc, u| {
            let nu = dag.neighbors_plus(u as VertexId);
            mark_set(marks, nu);
            let mut local = 0.0f64;
            for (i, &v) in nu.iter().enumerate() {
                if let Some(&next) = nu.get(i + 1) {
                    prefetch_slice(dag.neighbors_plus(next));
                }
                filter_marked(marks, dag.neighbors_plus(v), c3);
                oracle.accumulate_member_sum(c3, rank, members, &mut local);
            }
            clear_marks(marks, nu);
            acc + local
        },
        |a, b| a + b,
    )
}

/// Exact 4-clique count (tuned baseline).
pub fn count_exact(g: &CsrGraph) -> u64 {
    let dag = orient_by_degree(g);
    count_exact_on_dag(&dag)
}

/// Exact 4-clique count over a prebuilt DAG: the generic kernel with the
/// exact oracle (`f64` accumulation is exact below `2^53`).
pub fn count_exact_on_dag(dag: &OrientedDag) -> u64 {
    count_on_dag(dag, &ExactOracle::new(dag)) as u64
}

/// Approximate 4-clique count with prebuilt DAG and DAG sketches —
/// resolves the representation once, then runs the generic kernel.
pub fn count_approx_on_dag(dag: &OrientedDag, pg: &ProbGraph) -> f64 {
    struct V<'a>(&'a OrientedDag);
    impl OracleVisitor for V<'_> {
        type Output = f64;
        fn visit<O: IntersectionOracle>(self, o: &O) -> f64 {
            count_on_dag(self.0, o)
        }
    }
    pg.with_oracle(V(dag))
}

/// Approximate 4-clique count: builds the DAG and sketches internally.
pub fn count_approx(g: &CsrGraph, cfg: &crate::pg::PgConfig) -> f64 {
    let dag = orient_by_degree(g);
    let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), cfg);
    count_approx_on_dag(&dag, &pg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pg::{PgConfig, Representation};
    use pg_graph::gen;

    fn binom4(n: u64) -> u64 {
        n * (n - 1) * (n - 2) * (n - 3) / 24
    }

    #[test]
    fn complete_graph_has_choose_4() {
        for n in [4usize, 5, 6, 8, 12] {
            assert_eq!(count_exact(&gen::complete(n)), binom4(n as u64), "K_{n}");
        }
    }

    #[test]
    fn clique_free_graphs_count_zero() {
        assert_eq!(count_exact(&gen::grid(6, 6)), 0);
        assert_eq!(count_exact(&gen::complete_bipartite(5, 5)), 0);
        assert_eq!(count_exact(&gen::cycle(12)), 0);
        // A single triangle has no 4-clique.
        assert_eq!(count_exact(&gen::complete(3)), 0);
    }

    #[test]
    fn exact_matches_brute_force() {
        let g = gen::erdos_renyi_gnm(30, 180, 7);
        let mut brute = 0u64;
        for a in 0..30u32 {
            for b in (a + 1)..30 {
                for c in (b + 1)..30 {
                    for d in (c + 1)..30 {
                        if g.has_edge(a, b)
                            && g.has_edge(a, c)
                            && g.has_edge(a, d)
                            && g.has_edge(b, c)
                            && g.has_edge(b, d)
                            && g.has_edge(c, d)
                        {
                            brute += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(count_exact(&g), brute);
    }

    #[test]
    fn exact_thread_invariant() {
        let g = gen::kronecker(8, 8, 5);
        let t1 = pg_parallel::with_threads(1, || count_exact(&g));
        let t4 = pg_parallel::with_threads(4, || count_exact(&g));
        assert_eq!(t1, t4);
    }

    #[test]
    fn approx_tracks_exact_on_dense_graph() {
        let g = gen::erdos_renyi_gnm(150, 150 * 25, 13);
        let exact = count_exact(&g) as f64;
        assert!(exact > 0.0);
        for rep in [Representation::Bloom { b: 2 }, Representation::OneHash] {
            let est = count_approx(&g, &PgConfig::new(rep, 0.33));
            let rel = est / exact;
            assert!(
                (0.4..2.0).contains(&rel),
                "{rep:?}: est={est} exact={exact} rel={rel}"
            );
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        assert_eq!(count_exact(&pg_graph::CsrGraph::from_edges(3, &[])), 0);
        let est = count_approx(
            &gen::path(5),
            &PgConfig::new(Representation::Bloom { b: 1 }, 0.25),
        );
        assert_eq!(est, 0.0);
    }
}
