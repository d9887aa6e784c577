//! Fig. 6: per-graph Triangle-Counting bars — speedup, relative count,
//! relative memory — for ProbGraph against both theoretically grounded
//! baselines (Doulion, Colorful) and no-guarantee heuristics (Reduced
//! Execution, Partial Graph Processing, AutoApprox 1/2).

use pg_bench::harness::{print_header, print_row, time_median};
use pg_bench::outln;
use pg_bench::workloads::{env_scale, real_world_suite};
use pg_graph::orient_by_degree;
use probgraph::algorithms::triangles;
use probgraph::baselines::{colorful, doulion, heuristics};
use probgraph::{PgConfig, ProbGraph, Representation};

fn main() {
    let scale = env_scale(4);
    outln!("# Fig. 6 — Triangle Counting vs all baselines (PG_SCALE={scale})");
    outln!();
    print_header(&["graph", "scheme", "speedup", "rel-count", "rel-mem"]);
    for (name, g) in real_world_suite(scale) {
        let dag = orient_by_degree(&g);
        let exact = time_median(3, || triangles::count_exact_on_dag(&dag));
        let tc = exact.value as f64;
        if tc == 0.0 {
            continue;
        }
        let emit = |scheme: &str, secs: f64, est: f64, rel_mem: f64| {
            print_row(&[
                name.into(),
                scheme.into(),
                format!("{:.2}", exact.seconds / secs),
                format!("{:.3}", probgraph::relative_count(est, tc)),
                format!("{:.3}", rel_mem),
            ]);
        };
        // ProbGraph (timed on the algorithm only; construction is a
        // one-off reported by the `construction` binary).
        for (label, cfg) in [
            ("PG-BF", PgConfig::new(Representation::Bloom { b: 2 }, 0.25)),
            ("PG-MH", PgConfig::new(Representation::OneHash, 0.25)),
        ] {
            let pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
            let t = time_median(3, || triangles::count_approx_on_dag(&dag, &pg));
            emit(
                label,
                t.seconds,
                t.value,
                pg.memory_bytes() as f64 / g.memory_bytes() as f64,
            );
        }
        // Heuristics (no additional memory, no guarantees).
        let t = time_median(3, || heuristics::reduced_execution_tc(&g, 0.5, 7));
        emit("ReducedExec(ρ=.5)", t.seconds, t.value, 0.0);
        let t = time_median(3, || heuristics::partial_processing_tc(&g, 0.5, 7));
        emit("PartialProc(ρ=.5)", t.seconds, t.value, 0.0);
        let t = time_median(3, || heuristics::auto_approx1_tc(&g, 0.5, 7));
        emit("AutoApprox1(ρ=.5)", t.seconds, t.value, 0.0);
        let t = time_median(3, || heuristics::auto_approx2_tc(&g, 0.5, 7));
        emit("AutoApprox2(ρ=.5)", t.seconds, t.value, 0.0);
        // Theoretically grounded samplers.
        let t = time_median(3, || doulion::triangle_estimate(&g, 0.25, 7).estimate);
        emit("Doulion(p=.25)", t.seconds, t.value, 0.25);
        let t = time_median(3, || colorful::triangle_estimate(&g, 2, 7).estimate);
        emit("Colorful(N=2)", t.seconds, t.value, 0.5);
        emit("Exact", exact.seconds, tc, 0.0);
    }
}
