//! Table V: construction work and measured construction time of each
//! representation over all neighborhoods of a graph, plus parallel
//! construction speedup (the paper's claim: construction parallelizes
//! with low depth and is not a bottleneck).

use pg_bench::harness::{print_header, print_row, time_median};
use pg_bench::outln;
use pg_bench::workloads::env_scale;
use pg_graph::gen;
use pg_parallel::{available_threads, with_threads};
use probgraph::workdepth;
use probgraph::{PgConfig, ProbGraph, Representation};

fn main() {
    let scale = env_scale(2);
    let g = gen::instance("bio-WormNet-v3", scale).unwrap();
    outln!(
        "# Table V — sketch construction (bio-WormNet-v3 stand-in, n={}, m={}, PG_SCALE={scale})",
        g.num_vertices(),
        g.num_edges()
    );
    outln!();
    let (bf_ops, kh_ops, oh_ops) = workdepth::construction_work(&g, 2, 16);
    print_header(&[
        "representation",
        "work model (Table V)",
        "measured hash ops",
        "1-thread build [s]",
        "all-thread build [s]",
        "speedup",
    ]);
    let cases = [
        ("BF (b=2)", Representation::Bloom { b: 2 }, bf_ops),
        ("k-Hash", Representation::KHash, kh_ops),
        ("1-Hash", Representation::OneHash, oh_ops),
        ("KMV", Representation::Kmv, oh_ops),
    ];
    let models = ["O(b·d_v)", "O(k·d_v)", "O(d_v)", "O(d_v)"];
    for ((label, rep, ops), model) in cases.into_iter().zip(models) {
        let cfg = PgConfig::new(rep, 0.25);
        let t1 = with_threads(1, || time_median(3, || ProbGraph::build(&g, &cfg)).seconds);
        let tp = with_threads(available_threads(), || {
            time_median(3, || ProbGraph::build(&g, &cfg)).seconds
        });
        print_row(&[
            label.into(),
            model.into(),
            ops.to_string(),
            format!("{t1:.4}"),
            format!("{tp:.4}"),
            format!("{:.2}", t1 / tp),
        ]);
    }
}
