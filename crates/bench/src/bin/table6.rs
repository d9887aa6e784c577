//! Table VI: algorithm-level work advantages of ProbGraph — measured
//! operation totals and runtimes for Triangle Counting, 4-Clique Counting,
//! and Clustering under CSR vs PG(BF) vs PG(MH).

use pg_bench::harness::{print_header, print_row, time_median};
use pg_bench::outln;
use pg_bench::workloads::env_scale;
use pg_graph::{gen, orient_by_degree};
use pg_sketch::SketchParams;
use probgraph::algorithms::{cliques, clustering, triangles};
use probgraph::workdepth;
use probgraph::{PgConfig, ProbGraph, Representation};

fn main() {
    let scale = env_scale(6);
    let g = gen::instance("econ-psmigr1", scale).unwrap();
    let dag = orient_by_degree(&g);
    outln!(
        "# Table VI — algorithm work: econ-psmigr1 stand-in (n={}, m={}, PG_SCALE={scale})",
        g.num_vertices(),
        g.num_edges()
    );
    outln!();
    let cfg_bf = PgConfig::new(Representation::Bloom { b: 2 }, 0.25);
    let cfg_mh = PgConfig::new(Representation::OneHash, 0.25);
    let pg_bf = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg_bf);
    let pg_mh = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg_mh);
    let bits = match pg_bf.params() {
        SketchParams::Bloom { bits_per_set, .. } => bits_per_set,
        _ => unreachable!(),
    };
    let k = match pg_mh.params() {
        SketchParams::OneHash { k } => k,
        _ => unreachable!(),
    };
    outln!("resolved sketch parameters: B = {bits} bits, k = {k}");
    outln!();
    print_header(&["algorithm", "variant", "measured work [ops]", "runtime [s]"]);

    // Triangle counting.
    let w_csr = workdepth::tc_work_csr(&dag);
    let w_bf = workdepth::tc_work_bf(&dag, bits);
    let w_mh = workdepth::tc_work_mh(&dag, k);
    let t_csr = time_median(3, || triangles::count_exact_on_dag(&dag)).seconds;
    let t_bf = time_median(3, || triangles::count_approx_on_dag(&dag, &pg_bf)).seconds;
    let t_mh = time_median(3, || triangles::count_approx_on_dag(&dag, &pg_mh)).seconds;
    print_row(&[
        "TC".into(),
        "CSR  O(n·d²)".into(),
        w_csr.to_string(),
        format!("{t_csr:.4}"),
    ]);
    print_row(&[
        "TC".into(),
        "BF   O(n·d·B/W)".into(),
        w_bf.to_string(),
        format!("{t_bf:.4}"),
    ]);
    print_row(&[
        "TC".into(),
        "MH   O(n·d·k)".into(),
        w_mh.to_string(),
        format!("{t_mh:.4}"),
    ]);

    // 4-clique counting (runtime only; work model is d× the TC one).
    let t_csr = time_median(2, || cliques::count_exact_on_dag(&dag)).seconds;
    let t_bf = time_median(2, || cliques::count_approx_on_dag(&dag, &pg_bf)).seconds;
    let t_mh = time_median(2, || cliques::count_approx_on_dag(&dag, &pg_mh)).seconds;
    print_row(&[
        "4CC".into(),
        "CSR  O(n·d³)".into(),
        "-".into(),
        format!("{t_csr:.4}"),
    ]);
    print_row(&[
        "4CC".into(),
        "BF   O(n·d²·B/W)".into(),
        "-".into(),
        format!("{t_bf:.4}"),
    ]);
    print_row(&[
        "4CC".into(),
        "MH   O(n·d²·k)".into(),
        "-".into(),
        format!("{t_mh:.4}"),
    ]);

    // Clustering (per-edge intersection over full neighborhoods).
    let pgf_bf = ProbGraph::build(&g, &cfg_bf);
    let pgf_mh = ProbGraph::build(&g, &cfg_mh);
    let kind = clustering::SimilarityKind::CommonNeighbors;
    let t_csr = time_median(3, || clustering::jarvis_patrick_exact(&g, kind, 2.0)).seconds;
    let t_bf = time_median(3, || clustering::jarvis_patrick_pg(&g, &pgf_bf, kind, 2.0)).seconds;
    let t_mh = time_median(3, || clustering::jarvis_patrick_pg(&g, &pgf_mh, kind, 2.0)).seconds;
    print_row(&[
        "Clustering".into(),
        "CSR  O(n·d²)".into(),
        "-".into(),
        format!("{t_csr:.4}"),
    ]);
    print_row(&[
        "Clustering".into(),
        "BF   O(n·d·B/W)".into(),
        "-".into(),
        format!("{t_bf:.4}"),
    ]);
    print_row(&[
        "Clustering".into(),
        "MH   O(n·d·k)".into(),
        "-".into(),
        format!("{t_mh:.4}"),
    ]);
}
