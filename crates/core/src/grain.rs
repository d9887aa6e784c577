//! Degree-aware scheduling grains for the DAG kernels.
//!
//! Triangle and 4-clique counting iterate vertices, but the work behind a
//! vertex scales with powers of its oriented out-degree — on power-law
//! graphs the hubs would serialize a count-based schedule (one chunk drags
//! the join while every other worker idles). These helpers summarize the
//! degree profile with one cheap parallel pass and feed it to
//! [`pg_parallel::weighted_grain`], which shrinks the chunk size until the
//! dynamic scheduler can isolate hubs.
//!
//! Row sweeps have one schedule: sources in parallel, each row one flat
//! multi-lane sweep over its destinations. There is no cache-tiled
//! traversal; [`plan_for`] remains only as perfbench's probe.

use crate::oracle::IntersectionOracle;
use pg_graph::{OrientedDag, VertexId};
use pg_parallel::{map_reduce, weighted_grain};

/// `(Σ w(v), max w(v))` over all vertices, where `w(v) = d⁺(v)^pow`
/// (saturating — degree profiles of billion-edge graphs stay finite).
fn degree_power_stats(dag: &OrientedDag, pow: u32) -> (u64, u64) {
    map_reduce(
        dag.num_vertices(),
        || (0u64, 0u64),
        |(sum, max), v| {
            let d = dag.out_degree(v as VertexId) as u64;
            let w = d.saturating_pow(pow);
            (sum.saturating_add(w), max.max(w))
        },
        |(s1, m1), (s2, m2)| (s1.saturating_add(s2), m1.max(m2)),
    )
}

/// Scheduling grain for kernels whose per-vertex work is `d⁺(v)^pow`:
/// `pow = 1` for per-edge sketch estimators (one `O(B/W)`/`O(k)` call per
/// edge), `pow = 2` for wedge kernels (exact triangle counting: a sum of
/// `O(d⁺)` merges per vertex), `pow = 3` for 4-clique kernels (each
/// oriented edge materializes a `C3` set and intersects every member
/// against it). The generic oracle kernels pick `pow` from
/// [`crate::oracle::IntersectionOracle::degree_scaled_cost`].
pub(crate) fn degree_power_grain(dag: &OrientedDag, pow: u32) -> usize {
    let (total, max) = degree_power_stats(dag, pow);
    weighted_grain(dag.num_vertices(), total, max)
}

/// A blocked-sweep plan. No sweep tiles, so the type has no values and
/// [`plan_for`] can only return `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TilePlan {}

/// Always `None`: no sweep tiles. Every algorithm that sweeps rows runs
/// the flat multi-lane row sweep ([`IntersectionOracle::estimate_row`] /
/// [`IntersectionOracle::jaccard_row`] per source). perfbench's
/// `grain.tiled_*` metrics still call this and so read 0; the next
/// change to the benchmark deletes it together with those metrics.
pub fn plan_for<O: IntersectionOracle + ?Sized>(_oracle: &O, _n_ids: usize) -> Option<TilePlan> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_graph::{gen, orient_by_degree};

    #[test]
    fn grains_are_positive_and_bounded_by_n() {
        for g in [gen::kronecker(9, 8, 1), gen::complete(32), gen::path(100)] {
            let dag = orient_by_degree(&g);
            for pow in 1..=3 {
                let grain = degree_power_grain(&dag, pow);
                assert!(grain >= 1);
                assert!(grain <= dag.num_vertices().max(1));
            }
        }
    }

    #[test]
    fn skewed_dag_gets_finer_grain_than_uniform() {
        pg_parallel::with_threads(8, || {
            // Degree orientation caps most out-degrees, so skew a DAG the
            // only way possible: a "hub" whose neighbors all out-rank it.
            // hub 0 — heavies 1..=k — each heavy with k+1 private leaves,
            // so every heavy's degree exceeds the hub's and the hub's
            // out-neighborhood is all k heavies.
            let k = 50u32;
            let mut edges: Vec<(u32, u32)> = (1..=k).map(|h| (0, h)).collect();
            let mut next = k + 1;
            for h in 1..=k {
                for _ in 0..k + 1 {
                    edges.push((h, next));
                    next += 1;
                }
            }
            let skewed = pg_graph::CsrGraph::from_edges(next as usize, &edges);
            let dag = orient_by_degree(&skewed);
            assert_eq!(dag.out_degree(0), k as usize, "hub must keep its out-edges");
            let uniform = gen::cycle(next as usize);
            let gs = degree_power_grain(&dag, 2);
            let gu = degree_power_grain(&orient_by_degree(&uniform), 2);
            assert!(gs < gu, "skewed grain {gs} should be < uniform grain {gu}");
        });
    }

    #[test]
    fn empty_dag() {
        let g = pg_graph::CsrGraph::from_edges(0, &[]);
        let dag = orient_by_degree(&g);
        assert_eq!(degree_power_grain(&dag, 1), 1);
    }
}
