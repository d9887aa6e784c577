//! Fig. 5: 4-clique counting — speedup / relative count / relative memory
//! on real-world stand-ins and Kronecker graphs.

use pg_bench::harness::{print_header, print_row, time_median};
use pg_bench::outln;
use pg_bench::workloads::{env_scale, kronecker_suite};
use pg_graph::{gen, orient_by_degree, CsrGraph};
use probgraph::algorithms::cliques;
use probgraph::{PgConfig, ProbGraph, Representation};

fn run(name: &str, g: &CsrGraph) {
    let dag = orient_by_degree(g);
    let exact = time_median(2, || cliques::count_exact_on_dag(&dag));
    let ck = exact.value as f64;
    if ck == 0.0 {
        return;
    }
    for (label, cfg) in [
        ("PG-BF", PgConfig::new(Representation::Bloom { b: 2 }, 0.25)),
        ("PG-MH", PgConfig::new(Representation::OneHash, 0.25)),
    ] {
        let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
        let t = time_median(2, || cliques::count_approx_on_dag(&dag, &pg));
        print_row(&[
            name.into(),
            label.into(),
            format!("{:.2}", exact.seconds / t.seconds),
            format!("{:.3}", probgraph::relative_count(t.value, ck)),
            format!("{:.3}", pg.memory_bytes() as f64 / g.memory_bytes() as f64),
        ]);
    }
}

fn main() {
    let scale = env_scale(8);
    outln!("# Fig. 5 — 4-clique counting (PG_SCALE={scale})");
    outln!();
    print_header(&["graph", "scheme", "speedup", "rel-count", "rel-mem"]);
    for name in [
        "bio-SC-GT",
        "bio-CE-PG",
        "econ-beacxc",
        "bn-mouse_brain_1",
        "soc-fbMsg",
    ] {
        let g = gen::instance(name, scale).expect("known family");
        run(name, &g);
    }
    for (name, g) in kronecker_suite(10, 8) {
        run(&name, &g);
    }
}
