//! §VIII-F: distributed-memory communication volume — **measured**, not
//! modeled. Forks one worker process per part, runs a real
//! neighborhood-exchange round over Unix sockets (snapshot-format payloads,
//! `probgraph::exchange`), counts the bytes on every socket, and checks:
//!
//! * the distributed triangle count is **bit-equal** to the
//!   single-process estimate with the same grouping,
//! * the corrected communication model (`pg_bench::distmodel`) predicts
//!   the measured bytes within 10 % (it is exact for every suite graph),
//! * sketches beat shipping exact `N⁺` rows.
//!
//! Budget convention: a shipped sketch replaces an oriented `N⁺` row on
//! the wire, so `s = 25 %` is measured against the **oriented DAG's**
//! CSR footprint — the bytes the sketch actually displaces.
//!
//! Appends a `distributed` section to `BENCH_kernels.json` (the rest of
//! the file is written by the `speedtest` binary; run that first).

#[cfg(unix)]
fn main() {
    run::main()
}

#[cfg(not(unix))]
fn main() {
    eprintln!("the distributed exchange bench requires a Unix platform (fork + socketpair)");
}

#[cfg(unix)]
mod run {
    use pg_bench::distmodel::{model_pair_bytes, random_partition, wire_cost};
    use pg_bench::harness::{print_header, print_row};
    use pg_bench::workloads::{env_scale, real_world_suite};
    use probgraph::algorithms::triangles;
    use probgraph::exchange::{run_exchange, single_process_partials, ExchangeOptions};
    use probgraph::{PgConfig, ProbGraph, Representation};

    const PARTS: [usize; 3] = [2, 4, 16];
    const PARTITION_SEED: u64 = 11;
    /// The graph whose cells the CI gates read — dense enough that the
    /// BF reduction is comfortably on the claimed side of 2×.
    const JSON_GRAPH: &str = "dimacs-c500-9";

    struct Cell {
        parts: usize,
        measured_sketch: u64,
        measured_exact: u64,
        model_sketch: u64,
        model_exact: u64,
        reduction: f64,
        distributed_tc: f64,
        single_process_tc: f64,
        pair_sketch: Option<Vec<Vec<u64>>>,
    }

    pub fn main() {
        let scale = env_scale(4);
        let chunk_sets = 512usize;
        println!("# §VIII-F — measured multi-process exchange (PG_SCALE={scale})");
        println!();
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

        let mut json_cells: Vec<(&'static str, Vec<Cell>)> = Vec::new();
        let mut json_meta: Option<(usize, usize)> = None;

        for (name, g) in real_world_suite(scale) {
            let dag = pg_graph::orient_by_degree(&g);
            let n = dag.num_vertices();
            // The budget base: what the sketches replace on the wire.
            let dag_bytes = 4 * (n + 1) + 4 * g.num_edges();
            for (label, key, rep) in [
                ("BF s=25%", "bf", Representation::Bloom { b: 2 }),
                ("1H s=25%", "onehash", Representation::OneHash),
            ] {
                let pg = ProbGraph::build_dag(&dag, dag_bytes, &PgConfig::new(rep, 0.25));
                let sp = pg.resolved_params();
                let cost = wire_cost(sp, pg.bf_estimator(), pg.seed());
                let mut cells = Vec::new();
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

                    cells.push(Cell {
                        parts,
                        measured_sketch,
                        measured_exact,
                        model_sketch,
                        model_exact,
                        reduction: report.reduction(),
                        distributed_tc: report.distributed_tc,
                        single_process_tc: reference,
                        pair_sketch: (parts <= 4).then(|| report.sketch_pair_bytes.clone()),
                    });
                }
                if name == JSON_GRAPH {
                    json_cells.push((key, cells));
                    json_meta = Some((n, g.num_edges()));
                }
            }
        }

        let (jn, jm) = json_meta.expect("JSON workload graph missing from the suite");
        let section = render_section(scale, chunk_sets, jn, jm, &json_cells);
        splice_into_bench_json("BENCH_kernels.json", &section);
        println!();
        println!("appended `distributed` section for {JSON_GRAPH} to BENCH_kernels.json");
    }

    fn render_section(
        scale: usize,
        chunk_sets: usize,
        n: usize,
        m: usize,
        reps: &[(&'static str, Vec<Cell>)],
    ) -> String {
        let mut s = String::new();
        s.push_str("  \"distributed\": {\n");
        s.push_str(&format!("    \"scale\": {scale},\n"));
        s.push_str(&format!("    \"chunk_sets\": {chunk_sets},\n"));
        s.push_str("    \"budget\": 0.25,\n");
        s.push_str("    \"budget_base\": \"oriented_dag_bytes\",\n");
        s.push_str(&format!(
            "    \"workload\": {{\"graph\": \"{JSON_GRAPH}\", \"n\": {n}, \"m\": {m}}},\n"
        ));
        for (ri, (key, cells)) in reps.iter().enumerate() {
            s.push_str(&format!("    \"{key}\": {{\n"));
            for (ci, c) in cells.iter().enumerate() {
                s.push_str(&format!("      \"parts{}\": {{\n", c.parts));
                s.push_str(&format!(
                    "        \"measured_sketch_bytes\": {}, \"measured_exact_bytes\": {},\n",
                    c.measured_sketch, c.measured_exact
                ));
                s.push_str(&format!(
                    "        \"model_sketch_bytes\": {}, \"model_exact_bytes\": {},\n",
                    c.model_sketch, c.model_exact
                ));
                s.push_str(&format!(
                    "        \"measured_reduction\": {:?},\n",
                    c.reduction
                ));
                s.push_str(&format!(
                    "        \"distributed_tc\": {:?}, \"single_process_tc\": {:?}",
                    c.distributed_tc, c.single_process_tc
                ));
                if let Some(pairs) = &c.pair_sketch {
                    let rows: Vec<String> = pairs
                        .iter()
                        .map(|row| {
                            let cells: Vec<String> = row.iter().map(|b| b.to_string()).collect();
                            format!("[{}]", cells.join(", "))
                        })
                        .collect();
                    s.push_str(&format!(
                        ",\n        \"pair_sketch_bytes\": [{}]\n",
                        rows.join(", ")
                    ));
                } else {
                    s.push('\n');
                }
                s.push_str("      }");
                s.push_str(if ci + 1 < cells.len() { ",\n" } else { "\n" });
            }
            s.push_str("    }");
            s.push_str(if ri + 1 < reps.len() { ",\n" } else { "\n" });
        }
        s.push_str("  }\n");
        s
    }

    /// Read-modify-write: `speedtest` owns the rest of the file and
    /// rewrites it wholesale, so this splice drops any previous
    /// `distributed` section (always the last key) and appends the fresh
    /// one before the closing brace.
    fn splice_into_bench_json(path: &str, section: &str) {
        let body = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_string());
        let marker = "\"distributed\":";
        let head = match body.find(marker) {
            Some(pos) => body[..pos].trim_end().trim_end_matches(',').to_string(),
            None => {
                let t = body.trim_end();
                let t = t.strip_suffix('}').unwrap_or(t);
                t.trim_end().trim_end_matches(',').to_string()
            }
        };
        let sep = if head.trim() == "{" { "\n" } else { ",\n" };
        let out = format!("{head}{sep}{section}}}\n");
        std::fs::write(path, out).expect("write BENCH_kernels.json");
    }
}
