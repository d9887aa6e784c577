//! §VIII-G: construction cost analysis — the claim that building the
//! ProbGraph representation costs less than 50 % of a single algorithm
//! execution in the majority of cases (and is amortized across runs).

use pg_bench::harness::{print_header, print_row, time_median, time_once};
use pg_bench::outln;
use pg_bench::workloads::{env_scale, real_world_suite};
use pg_graph::orient_by_degree;
use probgraph::algorithms::triangles;
use probgraph::{PgConfig, ProbGraph, Representation};

fn main() {
    let scale = env_scale(4);
    outln!("# §VIII-G — construction cost vs one TC execution (PG_SCALE={scale})");
    outln!();
    print_header(&[
        "graph",
        "representation",
        "construction [s]",
        "exact TC [s]",
        "construction / exact-TC",
    ]);
    for (name, g) in real_world_suite(scale) {
        let dag = orient_by_degree(&g);
        let t_tc = time_median(3, || triangles::count_exact_on_dag(&dag)).seconds;
        for (label, rep) in [
            ("BF b=1", Representation::Bloom { b: 1 }),
            ("BF b=2", Representation::Bloom { b: 2 }),
            ("BF b=8", Representation::Bloom { b: 8 }),
            ("1-Hash", Representation::OneHash),
            ("k-Hash", Representation::KHash),
        ] {
            let cfg = PgConfig::new(rep, 0.25);
            let t_build = time_once(|| ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg)).seconds;
            print_row(&[
                name.into(),
                label.into(),
                format!("{t_build:.4}"),
                format!("{t_tc:.4}"),
                format!("{:.2}", t_build / t_tc),
            ]);
        }
    }
}
