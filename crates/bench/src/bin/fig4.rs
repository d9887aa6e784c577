//! Fig. 4: speedup / relative count / relative memory for Triangle
//! Counting and the three Clustering variants, on real-world stand-ins and
//! Kronecker graphs.
//!
//! Each data point = (scheme, graph): speedup over the exact tuned
//! baseline, relative pattern count (1.0 = exact), and relative additional
//! memory (sketch bytes / CSR bytes).

use pg_bench::harness::{print_header, print_row, time_median};
use pg_bench::outln;
use pg_bench::workloads::{env_scale, kronecker_suite, real_world_suite};
use pg_graph::{orient_by_degree, CsrGraph};
use probgraph::algorithms::{clustering, triangles};
use probgraph::baselines::{colorful, doulion};
use probgraph::{PgConfig, ProbGraph, Representation};

fn pg_cfgs() -> Vec<(&'static str, PgConfig)> {
    vec![
        ("PG-BF", PgConfig::new(Representation::Bloom { b: 2 }, 0.25)),
        ("PG-MH", PgConfig::new(Representation::OneHash, 0.25)),
    ]
}

fn run_tc(name: &str, g: &CsrGraph) {
    let dag = orient_by_degree(g);
    let exact = time_median(3, || triangles::count_exact_on_dag(&dag));
    let tc = exact.value as f64;
    for (label, cfg) in pg_cfgs() {
        let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
        let t = time_median(3, || triangles::count_approx_on_dag(&dag, &pg));
        print_row(&[
            "TC".into(),
            name.into(),
            label.into(),
            format!("{:.2}", exact.seconds / t.seconds),
            format!("{:.3}", probgraph::relative_count(t.value, tc)),
            format!("{:.3}", pg.memory_bytes() as f64 / g.memory_bytes() as f64),
        ]);
    }
    let t = time_median(3, || doulion::triangle_estimate(g, 0.25, 7).estimate);
    print_row(&[
        "TC".into(),
        name.into(),
        "Doulion(p=.25)".into(),
        format!("{:.2}", exact.seconds / t.seconds),
        format!("{:.3}", probgraph::relative_count(t.value, tc)),
        "0.250".into(),
    ]);
    let t = time_median(3, || colorful::triangle_estimate(g, 2, 7).estimate);
    print_row(&[
        "TC".into(),
        name.into(),
        "Colorful(N=2)".into(),
        format!("{:.2}", exact.seconds / t.seconds),
        format!("{:.3}", probgraph::relative_count(t.value, tc)),
        "0.500".into(),
    ]);
}

fn run_clustering(name: &str, g: &CsrGraph, kind: clustering::SimilarityKind, tau: f64) {
    let problem = format!("Cluster-{kind:?}");
    let exact = time_median(3, || clustering::jarvis_patrick_exact(g, kind, tau));
    let exact_clusters = exact.value.num_clusters as f64;
    for (label, cfg) in pg_cfgs() {
        let pg = ProbGraph::build(g, &cfg);
        let t = time_median(3, || clustering::jarvis_patrick_pg(g, &pg, kind, tau));
        print_row(&[
            problem.clone(),
            name.into(),
            label.into(),
            format!("{:.2}", exact.seconds / t.seconds),
            format!(
                "{:.3}",
                probgraph::relative_count(t.value.num_clusters as f64, exact_clusters)
            ),
            format!("{:.3}", pg.memory_bytes() as f64 / g.memory_bytes() as f64),
        ]);
    }
}

fn main() {
    let scale = env_scale(4);
    outln!("# Fig. 4 — TC + Clustering: speedup / accuracy / memory (PG_SCALE={scale})");
    outln!();
    print_header(&[
        "problem",
        "graph",
        "scheme",
        "speedup",
        "rel-count",
        "rel-mem",
    ]);
    let mut graphs: Vec<(String, CsrGraph)> = real_world_suite(scale)
        .into_iter()
        .map(|(n, g)| (n.to_string(), g))
        .collect();
    graphs.extend(kronecker_suite(11, 16));
    for (name, g) in &graphs {
        run_tc(name, g);
        run_clustering(name, g, clustering::SimilarityKind::Jaccard, 0.05);
        run_clustering(name, g, clustering::SimilarityKind::Overlap, 0.10);
        run_clustering(name, g, clustering::SimilarityKind::CommonNeighbors, 2.0);
    }
}
