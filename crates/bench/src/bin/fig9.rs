//! Fig. 9: BF vs 1H scaling for Clustering (Common Neighbors) — the case
//! where the bitwise-AND kernel lets BF catch up with (or beat) MinHash at
//! high thread counts because the algorithm is completely dominated by
//! `|X ∩ Y|`.

use pg_bench::harness::{print_header, print_row, time_median};
use pg_bench::outln;
use pg_bench::workloads::env_scale;
use pg_graph::gen;
use pg_parallel::{available_threads, with_threads};
use probgraph::algorithms::clustering::{jarvis_patrick_pg, SimilarityKind};
use probgraph::{PgConfig, ProbGraph, Representation};

fn main() {
    let scale = env_scale(1);
    let kscale = 13 - (scale.min(4) as u32 - 1);
    let g = gen::kronecker(kscale, 16, 123);
    let kind = SimilarityKind::CommonNeighbors;
    let tau = 2.0;
    outln!("# Fig. 9 — Clustering (Common Neighbors): BF vs 1H scaling");
    outln!();
    print_header(&["threads", "PG-BF [s]", "PG-1H [s]"]);
    let pg_bf = ProbGraph::build(&g, &PgConfig::new(Representation::Bloom { b: 2 }, 0.25));
    let pg_1h = ProbGraph::build(&g, &PgConfig::new(Representation::OneHash, 0.25));
    let mut t = 1usize;
    while t <= available_threads() {
        with_threads(t, || {
            let bf = time_median(3, || jarvis_patrick_pg(&g, &pg_bf, kind, tau)).seconds;
            let oh = time_median(3, || jarvis_patrick_pg(&g, &pg_1h, kind, tau)).seconds;
            print_row(&[t.to_string(), format!("{bf:.4}"), format!("{oh:.4}")]);
        });
        t *= 2;
    }
}
