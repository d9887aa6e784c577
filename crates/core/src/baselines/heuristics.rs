//! The no-guarantee approximation heuristics of §VIII-D:
//!
//! * **Reduced Execution** \[112\]: run only a random fraction `ρ` of the
//!   outermost loop iterations and rescale.
//! * **Partial Graph Processing** \[112\]: process, for each vertex, a
//!   random subset of its neighbors.
//! * **Auto-Approximation** (two variants) \[113\]: sampling on top of a
//!   *purely vertex-centric* execution model. The vertex-centric
//!   abstraction is reproduced deliberately — neighbor lists are
//!   materialized as per-vertex "messages" and intersected via hash sets —
//!   because its overhead is exactly why the paper finds these schemes
//!   slower than the tuned exact baselines (Fig. 6).
//!
//! None of these carries an accuracy guarantee, and the paper shows they
//! lose 25–75 % accuracy against ProbGraph; the tests only pin down the
//! mechanics, not tight error bars.
//!
//! Reduced Execution and Partial Graph Processing are **oracle-generic**:
//! their kernels batch each surviving row through
//! [`IntersectionOracle::estimate_row`] exactly like the algorithm
//! kernels, so the exact forms are the generic kernels + [`ExactOracle`]
//! and each also composes with a ProbGraph (`*_tc_pg`). The
//! Auto-Approximation pair stays vertex-centric *on purpose* — its
//! per-message materialization and hash-set intersections are the
//! overhead the paper measures, and routing it through the oracle layer
//! would optimize away the very thing it baselines.

use crate::oracle::{AdjacencyRows, ExactOracle, IntersectionOracle, OracleVisitor};
use crate::pg::{PgConfig, ProbGraph};
use pg_graph::{orient_by_degree, CsrGraph, OrientedDag, VertexId};
use pg_parallel::{map_reduce, map_reduce_scratch};

/// Deterministic per-(seed, index) coin with probability `rho`.
#[inline]
fn coin(seed: u64, index: u64, rho: f64) -> bool {
    let h = pg_hash::splitmix64_at(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (h as f64 / u64::MAX as f64) < rho
}

/// The single Reduced-Execution kernel, generic over the oracle: a random
/// `ρ`-fraction of sources, each surviving source's oriented row batched
/// through [`IntersectionOracle::estimate_row`] into worker-local scratch
/// (same hoisting as the algorithm kernels), rescaled by `1/ρ`.
pub fn reduced_execution_tc_with<O: IntersectionOracle>(
    dag: &OrientedDag,
    oracle: &O,
    rho: f64,
    seed: u64,
) -> f64 {
    assert!(rho > 0.0 && rho <= 1.0, "rho={rho} outside (0,1]");
    let n = dag.num_vertices();
    let total = map_reduce_scratch(
        n,
        pg_parallel::auto_grain(n),
        || 0f64,
        Vec::new,
        |row, acc, v| {
            if !coin(seed, v as u64, rho) {
                return acc;
            }
            let np = dag.neighbors_plus(v as VertexId);
            if np.is_empty() {
                return acc;
            }
            oracle.estimate_row(v as VertexId, np, row);
            acc + row.iter().fold(0.0f64, |s, &e| s + e.max(0.0))
        },
        |a, b| a + b,
    );
    total / rho
}

/// Reduced Execution over exact intersections (the \[112\] scheme as
/// evaluated in Fig. 6): the generic kernel with the exact oracle.
pub fn reduced_execution_tc(g: &CsrGraph, rho: f64, seed: u64) -> f64 {
    let dag = orient_by_degree(g);
    reduced_execution_tc_with(&dag, &ExactOracle::new(&dag), rho, seed)
}

/// Reduced Execution stacked on a ProbGraph: sketches over `N⁺` score the
/// surviving rows — representation resolved once through
/// [`ProbGraph::with_oracle`], then the same generic kernel.
pub fn reduced_execution_tc_pg(g: &CsrGraph, cfg: &PgConfig, rho: f64, seed: u64) -> f64 {
    let dag = orient_by_degree(g);
    let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), cfg);
    struct V<'a> {
        dag: &'a OrientedDag,
        rho: f64,
        seed: u64,
    }
    impl OracleVisitor for V<'_> {
        type Output = f64;
        fn visit<O: IntersectionOracle>(self, o: &O) -> f64 {
            reduced_execution_tc_with(self.dag, o, self.rho, self.seed)
        }
    }
    pg.with_oracle(V {
        dag: &dag,
        rho,
        seed,
    })
}

/// Per-vertex `ρ`-sampled oriented neighborhoods; retention decided per
/// (owner, slot) so the subsets are independent across vertices. Subsets
/// of sorted rows stay sorted.
fn sampled_neighborhoods(dag: &OrientedDag, rho: f64, seed: u64) -> Vec<Vec<VertexId>> {
    pg_parallel::parallel_init(dag.num_vertices(), |v| {
        dag.neighbors_plus(v as VertexId)
            .iter()
            .enumerate()
            .filter(|&(i, _)| coin(seed ^ 0x9a77, ((v as u64) << 24) | i as u64, rho))
            .map(|(_, &u)| u)
            .collect()
    })
}

/// Sorted-row adapter: lets the sampled neighborhoods back an
/// [`ExactOracle`] (or be sketched via [`ProbGraph::build_over`]) so the
/// Partial-Processing kernel is the same generic row-batched loop as
/// everything else.
struct SampledRows(Vec<Vec<VertexId>>);

impl AdjacencyRows for SampledRows {
    #[inline]
    fn adjacency_row(&self, v: VertexId) -> &[u32] {
        &self.0[v as usize]
    }
}

/// The single Partial-Graph-Processing kernel, generic over the oracle:
/// every vertex's retained `ρ`-subset is one batched row, rescaled by
/// `1/ρ³` (a triangle survives iff three independent neighbor-retention
/// coins land heads).
pub fn partial_processing_tc_with<O: IntersectionOracle>(
    sampled: &[Vec<VertexId>],
    oracle: &O,
    rho: f64,
) -> f64 {
    assert!(rho > 0.0 && rho <= 1.0, "rho={rho} outside (0,1]");
    let n = sampled.len();
    let total = map_reduce_scratch(
        n,
        pg_parallel::auto_grain(n),
        || 0f64,
        Vec::new,
        |row, acc, v| {
            let nv = &sampled[v];
            if nv.is_empty() {
                return acc;
            }
            oracle.estimate_row(v as VertexId, nv, row);
            acc + row.iter().fold(0.0f64, |s, &e| s + e.max(0.0))
        },
        |a, b| a + b,
    );
    total / (rho * rho * rho)
}

/// Partial Graph Processing over exact intersections (\[112\]): the
/// generic kernel with an exact oracle over the sampled rows.
pub fn partial_processing_tc(g: &CsrGraph, rho: f64, seed: u64) -> f64 {
    assert!(rho > 0.0 && rho <= 1.0, "rho={rho} outside (0,1]");
    let dag = orient_by_degree(g);
    let rows = SampledRows(sampled_neighborhoods(&dag, rho, seed));
    partial_processing_tc_with(&rows.0, &ExactOracle::new(&rows), rho)
}

/// Partial Graph Processing stacked on a ProbGraph: the retained subsets
/// are sketched under `cfg` and the same generic kernel runs against the
/// resolved oracle.
pub fn partial_processing_tc_pg(g: &CsrGraph, cfg: &PgConfig, rho: f64, seed: u64) -> f64 {
    assert!(rho > 0.0 && rho <= 1.0, "rho={rho} outside (0,1]");
    let dag = orient_by_degree(g);
    let sampled = sampled_neighborhoods(&dag, rho, seed);
    let pg = ProbGraph::build_over(sampled.len(), g.memory_bytes(), |v| &sampled[v][..], cfg);
    struct V<'a> {
        sampled: &'a [Vec<VertexId>],
        rho: f64,
    }
    impl OracleVisitor for V<'_> {
        type Output = f64;
        fn visit<O: IntersectionOracle>(self, o: &O) -> f64 {
            partial_processing_tc_with(self.sampled, o, self.rho)
        }
    }
    pg.with_oracle(V {
        sampled: &sampled,
        rho,
    })
}

/// Vertex-centric local triangle contribution of `v`: materializes each
/// neighbor's list as a message and intersects via a hash set — the
/// deliberately expensive abstraction of \[113\].
fn vertex_centric_contribution(g: &CsrGraph, v: VertexId, keep_msg: impl Fn(usize) -> bool) -> u64 {
    let mine: std::collections::HashSet<VertexId> = g.neighbors(v).iter().copied().collect();
    let mut local = 0u64;
    for (i, &u) in g.neighbors(v).iter().enumerate() {
        if !keep_msg(i) {
            continue;
        }
        // "Message" from u: a fresh copy of its adjacency list.
        let msg: Vec<VertexId> = g.neighbors(u).to_vec();
        local += msg.iter().filter(|w| mine.contains(w)).count() as u64;
    }
    local
}

/// Auto-Approximation, variant 1: sample *vertices* at rate `ρ` in the
/// vertex-centric model; `tc ≈ Σ_v∈sample contribution(v) / (6ρ)`.
pub fn auto_approx1_tc(g: &CsrGraph, rho: f64, seed: u64) -> f64 {
    assert!(rho > 0.0 && rho <= 1.0);
    let total = map_reduce(
        g.num_vertices(),
        || 0u64,
        |acc, v| {
            if !coin(seed ^ 0xAA01, v as u64, rho) {
                return acc;
            }
            acc + vertex_centric_contribution(g, v as VertexId, |_| true)
        },
        |a, b| a + b,
    );
    total as f64 / (6.0 * rho)
}

/// Auto-Approximation, variant 2: sample *messages* at rate `ρ`;
/// `tc ≈ Σ_v contribution_ρ(v) / (6ρ)`.
pub fn auto_approx2_tc(g: &CsrGraph, rho: f64, seed: u64) -> f64 {
    assert!(rho > 0.0 && rho <= 1.0);
    let total = map_reduce(
        g.num_vertices(),
        || 0u64,
        |acc, v| {
            acc + vertex_centric_contribution(g, v as VertexId, |i| {
                coin(seed ^ 0xAA02, ((v as u64) << 24) | i as u64, rho)
            })
        },
        |a, b| a + b,
    );
    total as f64 / (6.0 * rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::triangles;
    use pg_graph::gen;

    #[test]
    fn rho_one_reduced_execution_is_exact() {
        let g = gen::complete(15);
        let exact = triangles::count_exact(&g) as f64;
        assert_eq!(reduced_execution_tc(&g, 1.0, 3), exact);
    }

    #[test]
    fn rho_one_partial_processing_is_exact() {
        let g = gen::kronecker(8, 8, 1);
        let exact = triangles::count_exact(&g) as f64;
        assert_eq!(partial_processing_tc(&g, 1.0, 3), exact);
    }

    #[test]
    fn rho_one_auto_approx_is_exact() {
        let g = gen::complete(10);
        let exact = triangles::count_exact(&g) as f64;
        assert!((auto_approx1_tc(&g, 1.0, 1) - exact).abs() < 1e-9);
        assert!((auto_approx2_tc(&g, 1.0, 1) - exact).abs() < 1e-9);
    }

    #[test]
    fn estimates_in_the_right_ballpark() {
        let g = gen::erdos_renyi_gnm(300, 300 * 20, 5);
        let exact = triangles::count_exact(&g) as f64;
        for (name, est) in [
            ("reduced", reduced_execution_tc(&g, 0.5, 7)),
            ("partial", partial_processing_tc(&g, 0.5, 7)),
            ("auto1", auto_approx1_tc(&g, 0.5, 7)),
            ("auto2", auto_approx2_tc(&g, 0.5, 7)),
        ] {
            let rel = est / exact;
            assert!((0.3..3.0).contains(&rel), "{name}: rel={rel}");
        }
    }

    #[test]
    fn triangle_free_estimates_zero() {
        let g = gen::grid(8, 8);
        assert_eq!(reduced_execution_tc(&g, 0.7, 1), 0.0);
        assert_eq!(partial_processing_tc(&g, 0.7, 1), 0.0);
        assert_eq!(auto_approx1_tc(&g, 0.7, 1), 0.0);
        assert_eq!(auto_approx2_tc(&g, 0.7, 1), 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = gen::kronecker(8, 6, 2);
        assert_eq!(
            reduced_execution_tc(&g, 0.4, 9),
            reduced_execution_tc(&g, 0.4, 9)
        );
        assert_eq!(
            partial_processing_tc(&g, 0.4, 9),
            partial_processing_tc(&g, 0.4, 9)
        );
    }
}
