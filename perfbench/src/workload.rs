//! Workload inputs: the generated graphs, the serving stream's sliding
//! window, and the exact reference answers every accuracy metric and
//! output check is measured against.

use pg_graph::{gen, CsrGraph, OrientedDag, VertexId};
use probgraph::algorithms::clustering::{self, Clustering, SimilarityKind};
use probgraph::algorithms::{cliques, triangles};
use probgraph::oracle::{ExactOracle, IntersectionOracle};
use probgraph::tc_estimator;

use crate::trace::Tracer;

/// Seed used when `--seed` is not given; [`recorded`] holds its exact
/// reference answers.
pub const DEFAULT_SEED: u64 = 1;

/// Jarvis–Patrick threshold on Jaccard similarity (the paper's Fig. 7 τ).
pub const JP_TAU: f64 = 0.05;

/// Inserts (and removals) per serving tick.
pub const TICK_EDGES: usize = 512;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Uniform G(n, m) at the published size of `econ-psmigr1`
    /// (n = 3,100, m = 543k, d̄ ≈ 350): 44-word Bloom rows, an
    /// L2-resident store, kernel-bound sweeps.
    Dense,
    /// Chung–Lu power law (n = 2^17, m = 2^21, γ = 2.5): 4-word rows, a
    /// store several times the tile budget, hubs of ~20k neighbors.
    Skewed,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "dense" => Some(Kind::Dense),
            "skewed" => Some(Kind::Skewed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Dense => "dense",
            Kind::Skewed => "skewed",
        }
    }

    /// The workload's graph for `seed`. `shrink` divides n (and m, keeping
    /// the edge density of `dense` and the average degree of `skewed`) so
    /// tests can run every workload quickly; the benchmark passes 1.
    pub fn generate(self, seed: u64, shrink: usize) -> CsrGraph {
        let s = shrink.max(1);
        match self {
            Kind::Dense => gen::erdos_renyi_gnm(3_100 / s, 543_000 / (s * s), seed),
            Kind::Skewed => gen::chung_lu((1 << 17) / s, (1 << 21) / s, 2.5, seed),
        }
    }
}

/// Exact answers for [`DEFAULT_SEED`] at full size: triangles, 4-cliques
/// and Jarvis–Patrick clusters. A run on the default seed fails its output
/// check if the exact baselines disagree with them.
fn recorded(kind: Kind) -> (u64, u64, usize) {
    match kind {
        Kind::Dense => (7_165_832, 8_011_007, 1),
        Kind::Skewed => (2_367_764, 7_574_412, 235),
    }
}

/// The exact reference answers of one input.
pub struct Exact {
    pub tc: u64,
    pub clique4: u64,
    pub jp: Clustering,
    /// `|N⁺v ∩ N⁺u|` per oriented edge, in DAG row order.
    pub edge_common: Vec<f64>,
    /// Output checks on the references themselves that failed.
    pub failed_checks: u64,
    pub checks: u64,
}

impl Exact {
    /// Runs the exact baselines, each inside an `intersect.*` span, and
    /// checks them against each other (and, when `check_recorded`, against
    /// [`recorded`]).
    pub fn compute(
        kind: Kind,
        check_recorded: bool,
        g: &CsrGraph,
        dag: &OrientedDag,
        tr: &mut Tracer,
    ) -> Exact {
        let tc = tr.time("intersect.exact_tc", || triangles::count_exact_on_dag(dag));
        let clique4 = tr.time("intersect.exact_clique4", || {
            cliques::count_exact_on_dag(dag)
        });
        let jp = tr.time("intersect.exact_jp", || {
            clustering::jarvis_patrick_exact(g, SimilarityKind::Jaccard, JP_TAU)
        });
        let edge_common = per_edge(dag, &ExactOracle::new(dag));
        let edge_sum = tc_estimator::tc_exact_edge_sum(g);
        let mut results = vec![tc == edge_sum, edge_common.iter().sum::<f64>() == tc as f64];
        if check_recorded {
            let (r_tc, r_c4, r_jp) = recorded(kind);
            results.extend([tc == r_tc, clique4 == r_c4, jp.num_clusters == r_jp]);
        }
        Exact {
            tc,
            clique4,
            jp,
            edge_common,
            failed_checks: results.iter().filter(|ok| !**ok).count() as u64,
            checks: results.len() as u64,
        }
    }
}

/// `oracle.estimate(v, u)` for every oriented edge `(v, u)`, row by row.
pub fn per_edge<O: IntersectionOracle>(dag: &OrientedDag, oracle: &O) -> Vec<f64> {
    let mut all = Vec::new();
    let mut row = Vec::new();
    for v in 0..dag.num_vertices() as VertexId {
        oracle.estimate_row(v, dag.neighbors_plus(v), &mut row);
        all.extend_from_slice(&row);
    }
    all
}

/// The serving stream: the input's edges in a seeded random order,
/// replayed as a sliding window over which half the edges are live. Each
/// tick removes the oldest [`TICK_EDGES`] live edges and inserts the next
/// [`TICK_EDGES`] edges after the window, wrapping around the order.
pub struct Window {
    order: Vec<(VertexId, VertexId)>,
    head: usize,
    live: usize,
}

impl Window {
    pub fn new(mut edges: Vec<(VertexId, VertexId)>, seed: u64) -> Window {
        let m = edges.len();
        assert!(
            m >= 4 * TICK_EDGES,
            "a window needs at least {} edges",
            4 * TICK_EDGES
        );
        let mut state = seed ^ 0x5EED_5712_EA11_0001;
        for i in (1..m).rev() {
            let j = (pg_hash::splitmix64(&mut state) % (i as u64 + 1)) as usize;
            edges.swap(i, j);
        }
        Window {
            order: edges,
            head: 0,
            live: m / 2,
        }
    }

    /// Heap bytes of the shuffled edge order.
    pub fn heap_bytes(&self) -> usize {
        self.order.capacity() * std::mem::size_of::<(VertexId, VertexId)>()
    }

    /// The edges live before the first tick.
    pub fn prefill(&self) -> &[(VertexId, VertexId)] {
        &self.order[..self.live]
    }

    /// Fills `ins` and `rem` with the next tick's inserts and removals.
    pub fn next_tick(
        &mut self,
        ins: &mut Vec<(VertexId, VertexId)>,
        rem: &mut Vec<(VertexId, VertexId)>,
    ) {
        let m = self.order.len();
        ins.clear();
        rem.clear();
        for t in 0..TICK_EDGES {
            rem.push(self.order[(self.head + t) % m]);
            ins.push(self.order[(self.head + self.live + t) % m]);
        }
        self.head = (self.head + TICK_EDGES) % m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generators_are_deterministic_per_seed() {
        for kind in [Kind::Dense, Kind::Skewed] {
            let a = kind.generate(7, 16).edge_list();
            assert_eq!(a, kind.generate(7, 16).edge_list(), "{kind:?}");
            assert_ne!(a, kind.generate(8, 16).edge_list(), "{kind:?}");
        }
    }

    #[test]
    fn window_never_removes_a_dead_edge_or_inserts_a_live_one() {
        let g = Kind::Skewed.generate(3, 64);
        let m = g.num_edges();
        let mut w = Window::new(g.edge_list(), 3);
        let mut live: HashSet<_> = w.prefill().iter().copied().collect();
        assert_eq!(live.len(), m / 2);
        let (mut ins, mut rem) = (Vec::new(), Vec::new());
        // Enough ticks to wrap around the order several times.
        for _ in 0..(3 * m / TICK_EDGES + 7) {
            w.next_tick(&mut ins, &mut rem);
            for e in &rem {
                assert!(live.remove(e), "removed {e:?}, which is not live");
            }
            for e in &ins {
                assert!(live.insert(*e), "inserted {e:?}, which is live");
            }
            assert_eq!(live.len(), m / 2);
        }
    }

    #[test]
    fn window_order_depends_on_the_seed() {
        let g = Kind::Dense.generate(1, 16);
        let a = Window::new(g.edge_list(), 1);
        let b = Window::new(g.edge_list(), 2);
        assert_ne!(a.prefill(), b.prefill());
        assert_eq!(a.prefill(), Window::new(g.edge_list(), 1).prefill());
    }
}
