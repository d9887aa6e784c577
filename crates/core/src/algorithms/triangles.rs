//! Triangle Counting (Listing 1 of the paper): the node-iterator algorithm
//! over a degree-ordered DAG, `tc = Σ_v Σ_{u ∈ N⁺_v} |N⁺_v ∩ N⁺_u|`.
//!
//! Both loops are parallel (`[in par]`). There is exactly **one**
//! algorithm body, [`count_on_dag`], generic over the
//! [`IntersectionOracle`]: the exact variant runs it with the
//! merge/galloping [`ExactOracle`], the PG variant with whichever sketch
//! oracle [`ProbGraph::with_oracle`] resolves — so representation dispatch
//! happens once per call, never inside the per-edge loop. Work and depth
//! follow Table VI.

use crate::grain::degree_power_grain;
use crate::oracle::{ExactOracle, IntersectionOracle, OracleVisitor};
use crate::pg::{PgConfig, ProbGraph};
use pg_graph::{orient_by_degree, CsrGraph, OrientedDag, VertexId};
use pg_parallel::map_reduce_scratch;

/// The single Listing-1 kernel: sums (estimated) wedge-closure counts over
/// every oriented edge, batching each vertex's row through
/// [`IntersectionOracle::estimate_row`] into worker-local scratch.
///
/// Scheduled with a degree-power grain matching the oracle's work profile:
/// `d⁺²` for the exact oracle (each estimate is an `O(d⁺)` merge), `d⁺`
/// for sketches (each estimate is `O(B/W)`/`O(k)`) — the
/// dynamic-scheduling argument of §VI-B.
pub fn count_on_dag<O: IntersectionOracle>(dag: &OrientedDag, oracle: &O) -> f64 {
    let pow = if oracle.degree_scaled_cost() { 2 } else { 1 };
    map_reduce_scratch(
        dag.num_vertices(),
        degree_power_grain(dag, pow),
        || 0f64,
        Vec::new,
        |row, acc, v| {
            let np = dag.neighbors_plus(v as VertexId);
            oracle.estimate_row(v as VertexId, np, row);
            acc + row.iter().fold(0.0f64, |s, &e| s + e.max(0.0))
        },
        |a, b| a + b,
    )
}

/// Exact triangle count (tuned baseline).
pub fn count_exact(g: &CsrGraph) -> u64 {
    let dag = orient_by_degree(g);
    count_exact_on_dag(&dag)
}

/// Exact triangle count when the oriented DAG is already built (lets
/// benchmarks time preprocessing separately): the generic kernel run with
/// the exact oracle. The `f64` accumulator is exact for every count below
/// `2^53` (all summands are integers).
pub fn count_exact_on_dag(dag: &OrientedDag) -> u64 {
    count_on_dag(dag, &ExactOracle::new(dag)) as u64
}

/// Approximate triangle count: builds the oriented DAG, sketches every
/// `N⁺_v` under `cfg`, and sums estimated intersections.
pub fn count_approx(g: &CsrGraph, cfg: &PgConfig) -> f64 {
    let dag = orient_by_degree(g);
    let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), cfg);
    count_approx_on_dag(&dag, &pg)
}

/// Approximate triangle count with prebuilt DAG and sketches — resolves
/// the representation once, then runs the generic kernel.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pg::Representation;
    use pg_graph::gen;

    fn binom3(n: u64) -> u64 {
        n * (n - 1) * (n - 2) / 6
    }

    #[test]
    fn complete_graph_has_choose_3() {
        for n in [3usize, 4, 5, 10, 20] {
            assert_eq!(count_exact(&gen::complete(n)), binom3(n as u64), "K_{n}");
        }
    }

    #[test]
    fn triangle_free_graphs_count_zero() {
        assert_eq!(count_exact(&gen::grid(8, 9)), 0);
        assert_eq!(count_exact(&gen::complete_bipartite(6, 7)), 0);
        assert_eq!(count_exact(&gen::star(30)), 0);
        assert_eq!(count_exact(&gen::cycle(17)), 0);
        assert_eq!(count_exact(&gen::path(10)), 0);
    }

    #[test]
    fn small_known_cases() {
        // Triangle + pendant vertex: exactly 1 triangle.
        let g = pg_graph::CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(count_exact(&g), 1);
        // Two triangles sharing an edge (diamond).
        let d = pg_graph::CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(count_exact(&d), 2);
        // K4: 4 triangles.
        assert_eq!(count_exact(&gen::complete(4)), 4);
    }

    #[test]
    fn exact_count_matches_brute_force_on_random_graph() {
        let g = gen::erdos_renyi_gnm(60, 400, 3);
        let mut brute = 0u64;
        for u in 0..60u32 {
            for v in (u + 1)..60 {
                for w in (v + 1)..60 {
                    if g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(count_exact(&g), brute);
    }

    #[test]
    fn exact_count_thread_invariant() {
        let g = gen::kronecker(9, 8, 4);
        let t1 = pg_parallel::with_threads(1, || count_exact(&g));
        let t8 = pg_parallel::with_threads(8, || count_exact(&g));
        assert_eq!(t1, t8);
    }

    #[test]
    fn bf2_count_repeats_bit_for_bit() {
        // The per-vertex `f64` estimates are summed in chunk order, so runs
        // at one thread count agree bitwise; on this input a grouping that
        // followed the schedule differs in the last ulps between runs.
        let g = gen::chung_lu(2_000, 20_000, 2.5, 7);
        let dag = orient_by_degree(&g);
        let cfg = PgConfig::new(Representation::Bloom { b: 2 }, 0.25);
        let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
        let count = || pg_parallel::with_threads(2, || count_approx_on_dag(&dag, &pg));
        let first = count();
        for run in 0..20 {
            let again = count();
            assert_eq!(
                again.to_bits(),
                first.to_bits(),
                "run {run}: {again} != {first}"
            );
        }
    }

    #[test]
    fn approx_counts_track_exact_on_dense_graph() {
        let g = gen::erdos_renyi_gnm(400, 400 * 30, 11);
        let exact = count_exact(&g) as f64;
        for rep in [
            Representation::Bloom { b: 2 },
            Representation::KHash,
            Representation::OneHash,
        ] {
            let est = count_approx(&g, &PgConfig::new(rep, 0.33));
            let rel = est / exact;
            // Unit-level sanity: order of magnitude. (BF's AND estimator
            // overestimates on dense graphs — §VIII-B — so the band is
            // generous; the bench binaries report the precise tradeoff.)
            assert!(
                (0.3..2.5).contains(&rel),
                "{rep:?}: est={est} exact={exact} rel={rel}"
            );
        }
    }

    #[test]
    fn approx_on_triangle_free_graph_stays_small() {
        let g = gen::complete_bipartite(40, 40);
        let est = count_approx(&g, &PgConfig::new(Representation::OneHash, 0.33));
        // 1-hash over disjoint N+ sets: estimates should be near zero
        // relative to the m·d scale of the graph.
        assert!(est < 200.0, "est={est}");
    }

    #[test]
    fn empty_graph() {
        let g = pg_graph::CsrGraph::from_edges(5, &[]);
        assert_eq!(count_exact(&g), 0);
        assert_eq!(
            count_approx(&g, &PgConfig::new(Representation::Bloom { b: 1 }, 0.25)),
            0.0
        );
    }
}
