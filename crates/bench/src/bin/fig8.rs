//! Fig. 8: strong scaling (a–d) and weak scaling (e–h) of TC and the three
//! Clustering variants, for the exact baseline, Doulion, Colorful, PG-BF
//! and PG-1H. Thread counts sweep powers of two up to the machine limit;
//! weak scaling grows the Kronecker edge factor with the thread count
//! (m/n doubling twice per thread doubling, as in the paper, scaled down).

use pg_bench::harness::{print_header, print_row, time_median};
use pg_bench::outln;
use pg_bench::workloads::env_scale;
use pg_graph::{gen, orient_by_degree, CsrGraph};
use pg_parallel::{available_threads, with_threads};
use probgraph::algorithms::clustering::{jarvis_patrick_exact, jarvis_patrick_pg, SimilarityKind};
use probgraph::algorithms::triangles;
use probgraph::baselines::{colorful, doulion};
use probgraph::{PgConfig, ProbGraph, Representation};

fn thread_steps() -> Vec<usize> {
    let max = available_threads();
    let mut v = vec![1usize];
    while *v.last().unwrap() * 2 <= max {
        v.push(v.last().unwrap() * 2);
    }
    v
}

fn tc_row(panel: &str, graph: &str, t: usize, g: &CsrGraph) {
    let dag = orient_by_degree(g);
    let cfg_bf = PgConfig::new(Representation::Bloom { b: 2 }, 0.25);
    let cfg_1h = PgConfig::new(Representation::OneHash, 0.25);
    with_threads(t, || {
        let pg_bf = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg_bf);
        let pg_1h = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg_1h);
        let ex = time_median(2, || triangles::count_exact_on_dag(&dag)).seconds;
        let dl = time_median(2, || doulion::triangle_estimate(g, 0.25, 7)).seconds;
        let cf = time_median(2, || colorful::triangle_estimate(g, 2, 7)).seconds;
        let bf = time_median(2, || triangles::count_approx_on_dag(&dag, &pg_bf)).seconds;
        let oh = time_median(2, || triangles::count_approx_on_dag(&dag, &pg_1h)).seconds;
        print_row(&[
            panel.into(),
            graph.into(),
            t.to_string(),
            format!("{ex:.4}"),
            format!("{dl:.4}"),
            format!("{cf:.4}"),
            format!("{bf:.4}"),
            format!("{oh:.4}"),
        ]);
    });
}

fn clustering_row(
    panel: &str,
    graph: &str,
    t: usize,
    g: &CsrGraph,
    kind: SimilarityKind,
    tau: f64,
) {
    let cfg_bf = PgConfig::new(Representation::Bloom { b: 2 }, 0.25);
    let cfg_1h = PgConfig::new(Representation::OneHash, 0.25);
    with_threads(t, || {
        let pg_bf = ProbGraph::build(g, &cfg_bf);
        let pg_1h = ProbGraph::build(g, &cfg_1h);
        let ex = time_median(2, || jarvis_patrick_exact(g, kind, tau)).seconds;
        let bf = time_median(2, || jarvis_patrick_pg(g, &pg_bf, kind, tau)).seconds;
        let oh = time_median(2, || jarvis_patrick_pg(g, &pg_1h, kind, tau)).seconds;
        print_row(&[
            panel.into(),
            graph.into(),
            t.to_string(),
            format!("{ex:.4}"),
            "-".into(),
            "-".into(),
            format!("{bf:.4}"),
            format!("{oh:.4}"),
        ]);
    });
}

fn main() {
    let scale = env_scale(1);
    let strong_scale = 13 - (scale.min(4) as u32 - 1); // PG_SCALE shrinks graphs
    outln!("# Fig. 8 — strong & weak scaling (runtimes in seconds)");
    outln!();
    print_header(&[
        "panel", "graph", "threads", "exact", "doulion", "colorful", "PG-BF", "PG-1H",
    ]);
    // Strong scaling: one fixed Kronecker graph per panel.
    let g = gen::kronecker(strong_scale, 16, 77);
    let gname = format!("kron-2^{strong_scale}-ef16");
    for &t in &thread_steps() {
        tc_row("strong-TC", &gname, t, &g);
    }
    for (panel, kind, tau) in [
        ("strong-Cluster-CN", SimilarityKind::CommonNeighbors, 2.0),
        ("strong-Cluster-Jac", SimilarityKind::Jaccard, 0.05),
        ("strong-Cluster-Ovl", SimilarityKind::Overlap, 0.10),
    ] {
        for &t in &thread_steps() {
            clustering_row(panel, &gname, t, &g, kind, tau);
        }
    }
    // Weak scaling: edge factor grows 2× per thread doubling squared
    // (m/n ≈ 4, 16, 64, …), n fixed.
    let n_scale = strong_scale.saturating_sub(2);
    for (i, &t) in thread_steps().iter().enumerate() {
        let ef = 4usize << (2 * i).min(8);
        let wg = gen::kronecker(n_scale, ef, 99);
        let wname = format!("kron-2^{n_scale}-ef{ef}");
        tc_row("weak-TC", &wname, t, &wg);
        clustering_row(
            "weak-Cluster-CN",
            &wname,
            t,
            &wg,
            SimilarityKind::CommonNeighbors,
            2.0,
        );
        clustering_row(
            "weak-Cluster-Jac",
            &wname,
            t,
            &wg,
            SimilarityKind::Jaccard,
            0.05,
        );
        clustering_row(
            "weak-Cluster-Ovl",
            &wname,
            t,
            &wg,
            SimilarityKind::Overlap,
            0.10,
        );
    }
}
