//! Fig. 7: per-graph Clustering (Jaccard vertex similarity) bars —
//! speedup, relative cluster count (cut off at 10, as in the paper's
//! plot), relative memory.

use pg_bench::harness::{print_header, print_row, time_median};
use pg_bench::outln;
use pg_bench::workloads::{env_scale, real_world_suite};
use probgraph::algorithms::clustering::{jarvis_patrick_exact, jarvis_patrick_pg, SimilarityKind};
use probgraph::{PgConfig, ProbGraph, Representation};

fn main() {
    let scale = env_scale(4);
    let tau = 0.05;
    let kind = SimilarityKind::Jaccard;
    outln!("# Fig. 7 — Clustering (Jaccard), τ={tau} (PG_SCALE={scale})");
    outln!();
    print_header(&["graph", "scheme", "speedup", "rel-count(≤10)", "rel-mem"]);
    for (name, g) in real_world_suite(scale) {
        let exact = time_median(3, || jarvis_patrick_exact(&g, kind, tau));
        let base = exact.value.num_clusters as f64;
        for (label, cfg) in [
            ("PG-BF", PgConfig::new(Representation::Bloom { b: 2 }, 0.25)),
            ("PG-MH", PgConfig::new(Representation::OneHash, 0.25)),
        ] {
            let pg = ProbGraph::build(&g, &cfg);
            let t = time_median(3, || jarvis_patrick_pg(&g, &pg, kind, tau));
            let rel = if base == 0.0 {
                if t.value.num_clusters == 0 {
                    1.0
                } else {
                    10.0
                }
            } else {
                (t.value.num_clusters as f64 / base).min(10.0)
            };
            print_row(&[
                name.into(),
                label.into(),
                format!("{:.2}", exact.seconds / t.seconds),
                format!("{rel:.3}"),
                format!("{:.3}", pg.memory_bytes() as f64 / g.memory_bytes() as f64),
            ]);
        }
        print_row(&[
            name.into(),
            "Exact".into(),
            "1.00".into(),
            "1.000".into(),
            "0.000".into(),
        ]);
    }
}
