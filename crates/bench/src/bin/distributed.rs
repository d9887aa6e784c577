//! §VIII-F: distributed-memory communication volume — **measured**, not
//! modeled. Forks one worker process per part, runs a real
//! neighborhood-exchange round over Unix sockets (snapshot-format payloads,
//! `probgraph::exchange`), counts the bytes on every socket, and asserts
//! on every cell:
//!
//! * the distributed triangle count is **bit-equal** to the
//!   single-process estimate with the same grouping,
//! * the corrected communication model (`pg_bench::distmodel`) predicts
//!   the measured bytes within 10 % (it is exact for every suite graph).
//!
//! Prints one markdown row per graph, sketch and part count, with the
//! measured reduction against shipping exact `N⁺` rows. The headline cell
//! (Bloom at 4 parts on `dimacs-c500-9`, scale 4) is pinned at ≥ 2× by
//! `distmodel`'s `bloom_four_part_exchange_ships_at_least_2x_fewer_bytes`
//! test.
//!
//! Budget convention: a shipped sketch replaces an oriented `N⁺` row on
//! the wire, so `s = 25 %` is measured against the **oriented DAG's**
//! CSR footprint — the bytes the sketch actually displaces.

#[cfg(unix)]
fn main() {
    run::main()
}

#[cfg(not(unix))]
fn main() {
    eoutln!("the distributed exchange bench requires a Unix platform (fork + socketpair)");
}

#[cfg(unix)]
mod run {
    use pg_bench::distmodel::{model_pair_bytes, random_partition, wire_cost};
    use pg_bench::harness::{print_header, print_row};
    use pg_bench::outln;
    use pg_bench::workloads::{env_scale, real_world_suite};
    use probgraph::algorithms::triangles;
    use probgraph::exchange::{run_exchange, single_process_partials, ExchangeOptions};
    use probgraph::{PgConfig, ProbGraph, Representation};

    const PARTS: [usize; 3] = [2, 4, 16];
    const PARTITION_SEED: u64 = 11;

    pub fn main() {
        let scale = env_scale(4);
        let chunk_sets = 512usize;
        outln!("# §VIII-F — measured multi-process exchange (PG_SCALE={scale})");
        outln!();
        print_header(&[
            "graph",
            "parts",
            "sketch",
            "exact [MB]",
            "sketch [MB]",
            "reduction",
            "model err",
            "tc bit-eq",
        ]);

        for (name, g) in real_world_suite(scale) {
            let dag = pg_graph::orient_by_degree(&g);
            let n = dag.num_vertices();
            // The budget base: what the sketches replace on the wire.
            let dag_bytes = 4 * (n + 1) + 4 * g.num_edges();
            for (label, rep) in [
                ("BF s=25%", Representation::Bloom { b: 2 }),
                ("1H s=25%", Representation::OneHash),
            ] {
                let pg = ProbGraph::build_dag(&dag, dag_bytes, &PgConfig::new(rep, 0.25));
                let sp = pg.resolved_params();
                let cost = wire_cost(sp, pg.bf_estimator(), pg.seed());
                for parts in PARTS {
                    let assignment = random_partition(n, parts, PARTITION_SEED);
                    let opts = ExchangeOptions {
                        chunk_sets,
                        ..ExchangeOptions::default()
                    };
                    let report =
                        run_exchange(&dag, &pg, &assignment, parts, &opts).unwrap_or_else(|e| {
                            panic!("{name} x{parts} {label}: exchange failed: {e}")
                        });

                    // Gate 1: distributed count == single-process count,
                    // bit for bit, and sane vs the parallel kernel.
                    let reference: f64 = single_process_partials(&dag, &pg, &assignment, parts)
                        .iter()
                        .sum();
                    assert_eq!(
                        report.distributed_tc.to_bits(),
                        reference.to_bits(),
                        "{name} x{parts} {label}: distributed TC diverged from single-process"
                    );
                    let kernel = triangles::count_approx_on_dag(&dag, &pg);
                    let drift = (report.distributed_tc - kernel).abs() / kernel.abs().max(1.0);
                    assert!(
                        drift < 1e-6,
                        "{name} x{parts} {label}: partition-ordered sum drifted {drift} from kernel"
                    );

                    // Gate 2: the corrected model predicts the socket.
                    let (m_sketch, m_exact) =
                        model_pair_bytes(&dag, &assignment, parts, sp, &cost, chunk_sets);
                    let model_sketch: u64 = m_sketch.iter().flatten().sum();
                    let model_exact: u64 = m_exact.iter().flatten().sum();
                    let measured_sketch = report.sketch_total();
                    let measured_exact = report.exact_total();
                    let err = |model: u64, measured: u64| {
                        (model as f64 - measured as f64).abs() / (measured as f64).max(1.0)
                    };
                    let sketch_err = err(model_sketch, measured_sketch);
                    let exact_err = err(model_exact, measured_exact);
                    assert!(
                        sketch_err <= 0.10 && exact_err <= 0.10,
                        "{name} x{parts} {label}: model off by {sketch_err:.3}/{exact_err:.3}"
                    );

                    print_row(&[
                        name.into(),
                        parts.to_string(),
                        label.into(),
                        format!("{:.3}", measured_exact as f64 / 1e6),
                        format!("{:.3}", measured_sketch as f64 / 1e6),
                        format!("{:.2}x", report.reduction()),
                        format!("{:.2}%", 100.0 * sketch_err.max(exact_err)),
                        "yes".into(),
                    ]);
                }
            }
        }
    }
}
