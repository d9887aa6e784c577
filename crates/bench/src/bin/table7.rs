//! Table VII: TC-estimator comparison — construction time, memory,
//! estimation time, accuracy, and estimator properties, for ProbGraph's
//! T̂C_AND / T̂C_kH / T̂C_1H vs Doulion and Colorful.

use pg_bench::harness::{print_header, print_row, time_median, time_once};
use pg_bench::outln;
use pg_bench::workloads::env_scale;
use pg_graph::gen;
use probgraph::algorithms::triangles;
use probgraph::baselines::{colorful, doulion};
use probgraph::tc_estimator::{tc_estimate, TcBounds};
use probgraph::{PgConfig, ProbGraph, Representation};

fn main() {
    let scale = env_scale(4);
    let g = gen::instance("bio-WormNet-v3", scale).unwrap();
    let exact = triangles::count_exact(&g) as f64;
    outln!(
        "# Table VII — TC estimators on bio-WormNet-v3 stand-in (n={}, m={}, TC={exact}, PG_SCALE={scale})",
        g.num_vertices(),
        g.num_edges()
    );
    outln!();
    print_header(&[
        "estimator",
        "constr [s]",
        "memory [B]",
        "estim [s]",
        "rel-count",
        "properties",
        "bound",
    ]);
    for (label, rep, props, bound) in [
        (
            "T̂C_AND (BF b=2)",
            Representation::Bloom { b: 2 },
            "AU CN",
            "P (Thm VII.1)",
        ),
        (
            "T̂C_kH (MH)",
            Representation::KHash,
            "AU CN ML IN AE",
            "E (Thm VII.1)",
        ),
        (
            "T̂C_1H (MH)",
            Representation::OneHash,
            "AU CN",
            "E (Thm VII.1)",
        ),
    ] {
        let cfg = PgConfig::new(rep, 0.25);
        let built = time_once(|| ProbGraph::build(&g, &cfg));
        let pg = built.value;
        let est = time_median(3, || tc_estimate(&g, &pg));
        print_row(&[
            label.into(),
            format!("{:.4}", built.seconds),
            pg.memory_bytes().to_string(),
            format!("{:.4}", est.seconds),
            format!("{:.3}", est.value / exact),
            props.into(),
            bound.into(),
        ]);
    }
    let est = time_median(3, || doulion::triangle_estimate(&g, 0.25, 7));
    print_row(&[
        "Doulion (p=.25)".into(),
        "-".into(),
        (est.value.kept_edges * 8).to_string(),
        format!("{:.4}", est.seconds),
        format!("{:.3}", est.value.estimate / exact),
        "AU CN".into(),
        "none".into(),
    ]);
    let est = time_median(3, || colorful::triangle_estimate(&g, 2, 7));
    print_row(&[
        "Colorful (N=2)".into(),
        "-".into(),
        (est.value.kept_edges * 8).to_string(),
        format!("{:.4}", est.seconds),
        format!("{:.3}", est.value.estimate / exact),
        "AU CN".into(),
        "P".into(),
    ]);

    outln!();
    outln!("## Theorem VII.1 bound values at t = 0.5·TC");
    let b = TcBounds::for_graph(&g);
    let t = 0.5 * exact;
    let k = match ProbGraph::build(&g, &PgConfig::new(Representation::KHash, 0.25)).params() {
        pg_sketch::SketchParams::KHash { k } => k,
        _ => unreachable!(),
    };
    let bits =
        match ProbGraph::build(&g, &PgConfig::new(Representation::Bloom { b: 2 }, 0.25)).params() {
            pg_sketch::SketchParams::Bloom { bits_per_set, .. } => bits_per_set,
            _ => unreachable!(),
        };
    outln!("- BF bound (b=2, B={bits}): {:.4}", b.bloom(bits, 2, t));
    outln!("- MH plain bound (k={k}): {:.4}", b.minhash(k, t));
    outln!("- MH refined bound (k={k}): {:.4}", b.minhash_refined(k, t));
}
