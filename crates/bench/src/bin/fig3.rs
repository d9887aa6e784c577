//! Fig. 3: accuracy of the `|X ∩ Y|` estimators.
//!
//! For each of the paper's five featured graphs, for budgets
//! `s ∈ {33 %, 10 %}` and `b ∈ {1, 4}`, prints the distribution (quartiles)
//! of the relative difference `| |X∩Y|̂ − |X∩Y| | / |X∩Y|` over all
//! adjacent vertex pairs — the data behind the paper's boxplots.

use pg_bench::harness::{print_header, print_row};
use pg_bench::outln;
use pg_bench::workloads::env_scale;
use pg_graph::gen;
use pg_stats::Summary;
use probgraph::accuracy::edgewise_intersection_errors;
use probgraph::{BfEstimator, PgConfig, ProbGraph, Representation};

fn main() {
    let scale = env_scale(8);
    let graphs = [
        "ch-Si10H16",
        "bio-CE-PG",
        "dimacs-hat1500-3",
        "bn-mouse_brain_1",
        "econ-beacxc",
    ];
    outln!("# Fig. 3 — |X∩Y| estimator accuracy (PG_SCALE={scale})");
    outln!();
    print_header(&[
        "graph",
        "s",
        "b",
        "estimator",
        "p25",
        "median",
        "p75",
        "max",
    ]);
    for name in graphs {
        let g = gen::instance(name, scale).expect("known family");
        for (s, b) in [(0.33, 1usize), (0.33, 4), (0.10, 1), (0.10, 4)] {
            let cases: Vec<(&str, ProbGraph)> = vec![
                (
                    "BF-AND",
                    ProbGraph::build(&g, &PgConfig::new(Representation::Bloom { b }, s)),
                ),
                (
                    "BF-L",
                    ProbGraph::build(
                        &g,
                        &PgConfig::new(Representation::Bloom { b }, s)
                            .with_bf_estimator(BfEstimator::Limit),
                    ),
                ),
                (
                    "MH-1H",
                    ProbGraph::build(&g, &PgConfig::new(Representation::OneHash, s)),
                ),
                (
                    "MH-kH",
                    ProbGraph::build(&g, &PgConfig::new(Representation::KHash, s)),
                ),
                (
                    "HLL",
                    ProbGraph::build(&g, &PgConfig::new(Representation::Hll, s)),
                ),
            ];
            for (label, pg) in cases {
                let errs = edgewise_intersection_errors(&g, &pg);
                if errs.is_empty() {
                    continue;
                }
                let sm = Summary::of(&errs);
                print_row(&[
                    name.to_string(),
                    format!("{:.0}%", s * 100.0),
                    b.to_string(),
                    label.to_string(),
                    format!("{:.3}", sm.p25),
                    format!("{:.3}", sm.median),
                    format!("{:.3}", sm.p75),
                    format!("{:.3}", sm.max),
                ]);
            }
        }
    }
}
