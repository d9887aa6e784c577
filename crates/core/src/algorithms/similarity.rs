//! Vertex Similarity measures (Listing 3 of the paper): Jaccard, Overlap,
//! Common Neighbors, Total Neighbors, Adamic–Adar, Resource Allocation.
//!
//! The first four reduce to `|N_u ∩ N_v|` and exact degrees, so each is
//! written **once** against a generic [`IntersectionOracle`]
//! (`*_with`): the exact forms run the [`ExactOracle`], the PG forms
//! whatever sketch oracle the ProbGraph resolves. Adamic–Adar and
//! Resource Allocation weight each *individual* shared neighbor `w` (by
//! `1/log d_w` resp. `1/d_w`), which requires the common elements
//! themselves — those are exact-only, exactly as in the paper's
//! evaluation.

use crate::intersect::{for_each_common, intersect_card};
use crate::oracle::{ExactOracle, IntersectionOracle, OracleVisitor};
use crate::pg::ProbGraph;
use pg_graph::{CsrGraph, VertexId};
use pg_parallel::parallel_init;

/// Generic Common Neighbors `S_C = |N_u ∩ N_v|̂`, clamped at 0.
#[inline]
pub fn common_neighbors_with<O: IntersectionOracle>(o: &O, u: VertexId, v: VertexId) -> f64 {
    o.estimate(u, v).max(0.0)
}

/// Generic Jaccard `S_J = |N_u ∩ N_v| / |N_u ∪ N_v|` in `[0, 1]`.
#[inline]
pub fn jaccard_with<O: IntersectionOracle>(o: &O, u: VertexId, v: VertexId) -> f64 {
    o.jaccard(u, v)
}

/// Overlap finish from an already-computed intersection estimate and
/// `min(d_u, d_v)` — the one place the clamp and the empty-set
/// convention live, shared by the pairwise form below and the
/// row-batched clustering kernel so the two stay bit-identical.
#[inline]
pub fn overlap_from_estimate(est: f64, min_size: u32) -> f64 {
    if min_size == 0 {
        0.0
    } else {
        (est.max(0.0) / min_size as f64).clamp(0.0, 1.0)
    }
}

/// Generic Overlap `S_O = |N_u ∩ N_v| / min(d_u, d_v)` in `[0, 1]`
/// (0 when either set is empty).
pub fn overlap_with<O: IntersectionOracle>(o: &O, u: VertexId, v: VertexId) -> f64 {
    overlap_from_estimate(o.estimate(u, v), o.set_size(u).min(o.set_size(v)))
}

/// Generic Total Neighbors `S_T = |N_u ∪ N_v|`, clamped at 0.
pub fn total_neighbors_with<O: IntersectionOracle>(o: &O, u: VertexId, v: VertexId) -> f64 {
    let s = (o.set_size(u) + o.set_size(v)) as f64;
    (s - common_neighbors_with(o, u, v)).max(0.0)
}

/// Batched raw intersection estimates for a list of pairs — the bulk form
/// every pair-list consumer (link prediction's candidate scoring, bulk
/// similarity queries) shares: one [`IntersectionOracle::estimate`] per
/// pair, in parallel, so each score is bit-identical to the pairwise
/// estimate whatever order the pairs arrive in.
pub fn estimate_pairs_with<O: IntersectionOracle>(
    o: &O,
    pairs: &[(VertexId, VertexId)],
) -> Vec<f64> {
    parallel_init(pairs.len(), |i| {
        let (u, v) = pairs[i];
        o.estimate(u, v)
    })
}

/// Batched Common Neighbors over a pair list: [`estimate_pairs_with`]
/// with the per-pair clamp of [`common_neighbors_with`].
pub fn common_neighbors_scores_with<O: IntersectionOracle>(
    o: &O,
    pairs: &[(VertexId, VertexId)],
) -> Vec<f64> {
    let mut scores = estimate_pairs_with(o, pairs);
    for s in &mut scores {
        *s = s.max(0.0);
    }
    scores
}

/// Exact common-neighbor count `S_C(u, v) = |N_u ∩ N_v|`.
pub fn common_neighbors(g: &CsrGraph, u: VertexId, v: VertexId) -> usize {
    intersect_card(g.neighbors(u), g.neighbors(v))
}

/// Exact Jaccard `S_J = |N_u ∩ N_v| / |N_u ∪ N_v|` (0 when both empty).
pub fn jaccard(g: &CsrGraph, u: VertexId, v: VertexId) -> f64 {
    jaccard_with(&ExactOracle::new(g), u, v)
}

/// Exact Overlap `S_O = |N_u ∩ N_v| / min(d_u, d_v)` (0 when either empty).
pub fn overlap(g: &CsrGraph, u: VertexId, v: VertexId) -> f64 {
    overlap_with(&ExactOracle::new(g), u, v)
}

/// Exact Total Neighbors `S_T = |N_u ∪ N_v|`.
pub fn total_neighbors(g: &CsrGraph, u: VertexId, v: VertexId) -> usize {
    total_neighbors_with(&ExactOracle::new(g), u, v) as usize
}

/// Exact Adamic–Adar `S_A = Σ_{w ∈ N_u ∩ N_v} 1/log d_w`.
/// Shared neighbors of degree ≤ 1 cannot occur (they'd need degree ≥ 2).
pub fn adamic_adar(g: &CsrGraph, u: VertexId, v: VertexId) -> f64 {
    let mut s = 0.0;
    for_each_common(g.neighbors(u), g.neighbors(v), |w| {
        let d = g.degree(w) as f64;
        debug_assert!(d >= 2.0);
        s += 1.0 / d.ln();
    });
    s
}

/// Exact Resource Allocation `S_R = Σ_{w ∈ N_u ∩ N_v} 1/d_w`.
pub fn resource_allocation(g: &CsrGraph, u: VertexId, v: VertexId) -> f64 {
    let mut s = 0.0;
    for_each_common(g.neighbors(u), g.neighbors(v), |w| {
        s += 1.0 / g.degree(w) as f64;
    });
    s
}

/// One-pair delegate through the ProbGraph's resolved oracle, so every
/// `*_pg` measure shares the `*_with` definition (single source of truth
/// for clamps and zero-guards).
enum Measure {
    CommonNeighbors,
    Jaccard,
    Overlap,
    TotalNeighbors,
}

fn measure_pg(pg: &ProbGraph, m: Measure, u: VertexId, v: VertexId) -> f64 {
    struct Pair(Measure, VertexId, VertexId);
    impl OracleVisitor for Pair {
        type Output = f64;
        fn visit<O: IntersectionOracle>(self, o: &O) -> f64 {
            match self.0 {
                Measure::CommonNeighbors => common_neighbors_with(o, self.1, self.2),
                Measure::Jaccard => jaccard_with(o, self.1, self.2),
                Measure::Overlap => overlap_with(o, self.1, self.2),
                Measure::TotalNeighbors => total_neighbors_with(o, self.1, self.2),
            }
        }
    }
    pg.with_oracle(Pair(m, u, v))
}

/// Approximate common-neighbor count via the ProbGraph estimator.
#[inline]
pub fn common_neighbors_pg(pg: &ProbGraph, u: VertexId, v: VertexId) -> f64 {
    measure_pg(pg, Measure::CommonNeighbors, u, v)
}

/// Approximate Jaccard (Listing 6's `jacBF`).
#[inline]
pub fn jaccard_pg(pg: &ProbGraph, u: VertexId, v: VertexId) -> f64 {
    measure_pg(pg, Measure::Jaccard, u, v)
}

/// Approximate Overlap.
pub fn overlap_pg(pg: &ProbGraph, u: VertexId, v: VertexId) -> f64 {
    measure_pg(pg, Measure::Overlap, u, v)
}

/// Approximate Total Neighbors.
pub fn total_neighbors_pg(pg: &ProbGraph, u: VertexId, v: VertexId) -> f64 {
    measure_pg(pg, Measure::TotalNeighbors, u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pg::{PgConfig, Representation};
    use pg_graph::gen;

    /// K4 minus edge (2,3): N(2)=N(3)={0,1}, N(0)={1,2,3}, N(1)={0,2,3}.
    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    }

    #[test]
    fn common_neighbors_known() {
        let g = diamond();
        assert_eq!(common_neighbors(&g, 2, 3), 2); // {0,1}
        assert_eq!(common_neighbors(&g, 0, 1), 2); // {2,3}
        assert_eq!(common_neighbors(&g, 0, 2), 1); // {1}
    }

    #[test]
    fn jaccard_known() {
        let g = diamond();
        // N(2)={0,1}, N(3)={0,1}: J = 2/2 = 1.
        assert_eq!(jaccard(&g, 2, 3), 1.0);
        // N(0)={1,2,3}, N(1)={0,2,3}: inter {2,3}, union {0,1,2,3}: 0.5.
        assert_eq!(jaccard(&g, 0, 1), 0.5);
    }

    #[test]
    fn overlap_known() {
        let g = diamond();
        assert_eq!(overlap(&g, 2, 3), 1.0);
        // inter(0,2) = {1}; min degree = 2 -> 0.5.
        assert_eq!(overlap(&g, 0, 2), 0.5);
    }

    #[test]
    fn total_neighbors_known() {
        let g = diamond();
        assert_eq!(total_neighbors(&g, 0, 1), 4);
        assert_eq!(total_neighbors(&g, 2, 3), 2);
    }

    #[test]
    fn adamic_adar_and_ra_known() {
        let g = diamond();
        // Common neighbors of (2,3) are 0 and 1, both degree 3.
        let aa = adamic_adar(&g, 2, 3);
        assert!((aa - 2.0 / 3f64.ln()).abs() < 1e-12);
        let ra = resource_allocation(&g, 2, 3);
        assert!((ra - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_vertices_yield_zero() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        assert_eq!(jaccard(&g, 0, 2), 0.0);
        assert_eq!(overlap(&g, 0, 2), 0.0);
        assert_eq!(adamic_adar(&g, 0, 2), 0.0);
    }

    #[test]
    fn pg_measures_track_exact_on_dense_graph() {
        let g = gen::erdos_renyi_gnm(300, 300 * 30, 17);
        for rep in [
            Representation::Bloom { b: 2 },
            Representation::KHash,
            Representation::OneHash,
        ] {
            let pg = ProbGraph::build(&g, &PgConfig::new(rep, 0.33));
            let mut err_j = 0.0;
            let mut n = 0;
            for (u, v) in g.edges().take(300) {
                err_j += (jaccard_pg(&pg, u, v) - jaccard(&g, u, v)).abs();
                let o = overlap_pg(&pg, u, v);
                assert!((0.0..=1.0).contains(&o));
                let t = total_neighbors_pg(&pg, u, v);
                assert!(t >= 0.0 && t <= (g.degree(u) + g.degree(v)) as f64);
                n += 1;
            }
            let mean_err = err_j / n as f64;
            assert!(mean_err < 0.25, "{rep:?}: mean |ΔJ| = {mean_err}");
        }
    }

    #[test]
    fn batched_pair_estimates_match_pairwise() {
        let g = gen::erdos_renyi_gnm(150, 150 * 10, 5);
        // Pairs grouped by ascending source, as link prediction emits its
        // candidates, and the same list shuffled with a quarter repeated.
        let grouped: Vec<_> = g.edges().take(400).collect();
        let mut shuffled = grouped.clone();
        shuffled.extend_from_slice(&grouped[..grouped.len() / 4]);
        let mut state = 5u64;
        for t in (1..shuffled.len()).rev() {
            let s = pg_hash::splitmix64(&mut state) % (t as u64 + 1);
            shuffled.swap(t, s as usize);
        }
        struct V<'a>(&'a [(VertexId, VertexId)]);
        impl OracleVisitor for V<'_> {
            type Output = ();
            fn visit<O: IntersectionOracle>(self, o: &O) {
                let per_pair: Vec<f64> = self.0.iter().map(|&(u, v)| o.estimate(u, v)).collect();
                let clamped: Vec<f64> = self
                    .0
                    .iter()
                    .map(|&(u, v)| common_neighbors_with(o, u, v))
                    .collect();
                assert_eq!(estimate_pairs_with(o, self.0), per_pair);
                let scored = crate::algorithms::link_prediction::score_candidates_with(o, self.0);
                assert_eq!(scored, per_pair);
                assert_eq!(common_neighbors_scores_with(o, self.0), clamped);
            }
        }
        for pairs in [&grouped, &shuffled] {
            V(pairs).visit(&ExactOracle::new(&g));
            for rep in [
                Representation::Bloom { b: 1 },
                Representation::Bloom { b: 2 },
                Representation::CountingBloom { b: 2 },
                Representation::KHash,
                Representation::OneHash,
                Representation::Kmv,
                Representation::Hll,
            ] {
                ProbGraph::build(&g, &PgConfig::new(rep, 0.3)).with_oracle(V(pairs));
            }
        }
    }

    #[test]
    fn symmetry_of_all_measures() {
        let g = gen::kronecker(7, 8, 3);
        let pairs: Vec<_> = g.edges().take(50).collect();
        for (u, v) in pairs {
            assert_eq!(common_neighbors(&g, u, v), common_neighbors(&g, v, u));
            assert_eq!(jaccard(&g, u, v), jaccard(&g, v, u));
            assert_eq!(overlap(&g, u, v), overlap(&g, v, u));
            assert_eq!(adamic_adar(&g, u, v), adamic_adar(&g, v, u));
        }
    }
}
