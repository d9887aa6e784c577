//! Speed-at-accuracy benchmark of the ProbGraph workspace (see README.md).
//!
//! ```text
//! perfbench --workload <dense|skewed> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload: it generates the input from the seed,
//! warms every timed operation up once, then interleaves samples of all
//! operations round-robin for `--seconds`. Afterwards it computes the
//! exact references and checks every output, prints the resolved
//! configuration and the per-metric sample statistics as JSON lines, and
//! ends with one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics from spans recorded
//! around each library call, plus the tracing overhead, and writes the
//! spans to `perfbench/out/`.

mod alloc;
mod ops;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::time::Instant;

use ops::{Mining, Op, Probes, ServeSample, Serving};
use pg_stats::Summary;
use trace::Tracer;
use workload::{Exact, Kind, DEFAULT_SEED};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Time each operation should take per round: faster operations repeat
/// (interleaved with the others) up to this share, so every operation
/// gets samples spread over the whole run.
const SLOT_S: f64 = 0.25;
const MAX_REPS: usize = 32;
/// Relative tolerance for repeated estimates (f64 summation order varies
/// with the parallel schedule).
const REPEAT_TOL: f64 = 1e-9;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Divides the input size; only tests set it above 1.
    shrink: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::Dense,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        shrink: 1,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(value).ok_or(bad("dense or skewed"))?),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.kind = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Sample statistics for timed metrics.
    spread: Option<Summary>,
    /// Derived from the input or the store geometry, not measured.
    computed: bool,
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    config: String,
    tracer: Tracer,
}

/// Output checks, each counted as one attempted operation.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

#[derive(Default)]
struct ServeLog {
    eps: Vec<f64>,
    latencies_s: Vec<f64>,
    lags: Vec<u64>,
    checkpoint_bytes: usize,
}

impl ServeLog {
    fn add(&mut self, s: ServeSample, checks: &mut Checks) {
        self.eps.push(s.inserted as f64 / s.writer_s);
        checks.check(s.checkpoint_ok && s.queries_finite);
        self.latencies_s.extend(s.latencies_s);
        self.lags.extend(s.lags);
        self.checkpoint_bytes = s.checkpoint_bytes;
    }
}

/// Timed samples of one run, split by whether the tracer was on.
#[derive(Default)]
struct Log {
    secs: BTreeMap<(Op, bool), Vec<f64>>,
    serve: [ServeLog; 2],
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = run(&args);
    if args.trace {
        let path = format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.kind.name(),
            args.seed
        );
        report.attempted += 1;
        if let Err(e) = report.tracer.write_jsonl(std::path::Path::new(&path)) {
            eprintln!("perfbench: could not write {path}: {e}");
            report.failed += 1;
        }
    }
    print_report(&args, &report);
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} checks failed",
            report.failed, report.attempted
        );
    }
}

fn run(args: &Args) -> Report {
    let mut tr = Tracer::new();
    tr.on = args.trace;
    let mut checks = Checks::default();

    // Set-up, repeated: input generation, orientation, window prefill.
    let mut setup_secs = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let g = tr.time("graph.generate", || {
            args.kind.generate(args.seed, args.shrink)
        });
        let dag = tr.time("graph.orient", || pg_graph::orient_by_degree(&g));
        let serving = tr.time("serving.prefill", || Serving::prefill(&g, args.seed));
        setup_secs.push(t0.elapsed().as_secs_f64());
        let base = g.memory_bytes();
        built = Some((Mining { g, dag, base }, serving));
    }
    let (mine, mut serving) = built.expect("at least one set-up repetition");

    // Warm-up: one untraced sample per operation, which also fixes the
    // reference estimate every later sample must repeat. The heap peak
    // counts from here through the mining warm-ups: the input graph, its
    // DAG, the serving store and every store and temporary an operation
    // builds, less the buffers the benchmark itself holds. It stops before
    // the serving warm-up, because how many retired epoch buffers a
    // publish keeps depends on reader timing.
    alloc::reset_peak();
    let mut peak_heap_mb = f64::NAN;
    let mut log = Log::default();
    let mut reference = BTreeMap::new();
    let mut reps = BTreeMap::new();
    let traced = tr.on;
    tr.on = false;
    for op in Op::ALL {
        if op == Op::Serve {
            peak_heap_mb = (alloc::peak_bytes() - serving.own_bytes()) as f64 / (1 << 20) as f64;
        }
        let (secs, outcome) = sample(op, &mine, &mut serving, &mut tr);
        match outcome {
            Outcome::Serve(s) => checks.check(s.checkpoint_ok && s.queries_finite),
            Outcome::Estimate(est) => {
                checks.check(est.is_finite() && est >= 0.0);
                reference.insert(op, est);
            }
        }
        reps.insert(op, ((SLOT_S / secs).round() as usize).clamp(1, MAX_REPS));
    }
    let probes = traced.then(|| Probes::build(&mine));

    // Measurement: rounds of interleaved samples. A traced run alternates
    // traced and untraced rounds (at least one of each) so the overhead is
    // measured under the same host conditions.
    let max_reps = reps.values().copied().max().unwrap_or(1);
    let min_rounds = if traced { 2 } else { 1 };
    let start = Instant::now();
    let mut round = 0usize;
    while round < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        tr.on = traced && round.is_multiple_of(2);
        for j in 0..max_reps {
            for op in Op::ALL {
                if j >= reps[&op] {
                    continue;
                }
                let (secs, outcome) = sample(op, &mine, &mut serving, &mut tr);
                log.secs.entry((op, tr.on)).or_default().push(secs);
                match outcome {
                    Outcome::Serve(s) => log.serve[usize::from(tr.on)].add(s, &mut checks),
                    Outcome::Estimate(est) => {
                        let want = reference[&op];
                        checks.check((est - want).abs() <= REPEAT_TOL * want.abs().max(1.0));
                    }
                }
            }
        }
        if let Some(p) = &probes {
            if tr.on {
                p.run(&mine, &mut tr);
            }
        }
        round += 1;
    }
    // Exact references, computed once after the measurement (traced runs
    // record their `intersect.*` spans), and the outputs checked against
    // them.
    tr.on = traced;
    let check_recorded = args.seed == DEFAULT_SEED && args.shrink == 1;
    let exact = Exact::compute(args.kind, check_recorded, &mine.g, &mine.dag, &mut tr);
    tr.on = false;
    checks.attempted += exact.checks;
    checks.failed += exact.failed_checks;
    checks.check(serving.matches_serial_replay(&mine.g, args.seed));
    let probes = probes.unwrap_or_else(|| Probes::build(&mine));
    let jp = mine.jp(&mut tr);
    let jp_mismatch = jp
        .selected
        .iter()
        .zip(&exact.jp.selected)
        .filter(|(a, b)| a != b)
        .count() as f64
        / jp.selected.len().max(1) as f64;
    let edge_relerr_1h = edge_relerr(&mine, &probes.one_hash, &exact.edge_common);
    for v in [jp_mismatch, edge_relerr_1h] {
        checks.check(v.is_finite() && v >= 0.0);
    }

    let rel = |op: Op, exact: f64| probgraph::relative_error(reference[&op], exact);
    let config = config_json(args, &mine, &serving, &probes, &exact);
    let metrics = if args.trace {
        layer_metrics(&mine, &serving, &probes, &exact, &log, &tr)
    } else {
        let time = |name: &str, op: Op| timed(name, "s", &log.secs[&(op, false)]);
        let serve = &log.serve[0];
        let lat_us: Vec<f64> = serve.latencies_s.iter().map(|s| s * 1e6).collect();
        vec![
            timed("setup_s", "s", &setup_secs),
            plain("peak_heap_mb", "MB", peak_heap_mb),
            time("tc_s", Op::Tc),
            plain("tc_relerr", "ratio", rel(Op::Tc, exact.tc as f64)),
            time("tc_1h_s", Op::Tc1h),
            plain("tc_1h_edge_relerr", "ratio", edge_relerr_1h),
            time("tc_strat_s", Op::TcStrat),
            plain(
                "tc_strat_relerr",
                "ratio",
                rel(Op::TcStrat, exact.tc as f64),
            ),
            time("clique4_s", Op::Clique4),
            plain(
                "clique4_relerr",
                "ratio",
                rel(Op::Clique4, exact.clique4 as f64),
            ),
            time("jp_s", Op::Jp),
            plain("jp_edge_mismatch", "ratio", jp_mismatch),
            timed("query_p50_us", "us", &lat_us),
            plain("query_p90_us", "us", Summary::percentile(&lat_us, 0.9)),
        ]
    };
    for m in &metrics {
        checks.check(m.value.is_finite());
    }
    Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        config,
        tracer: tr,
    }
}

enum Outcome {
    Estimate(f64),
    Serve(ServeSample),
}

/// Runs one sample of `op` inside its `op.*` span; returns its wall time.
fn sample(op: Op, mine: &Mining, serving: &mut Serving, tr: &mut Tracer) -> (f64, Outcome) {
    let open = tr.enter_op(op.span());
    let t0 = Instant::now();
    let outcome = match op {
        Op::Serve => Outcome::Serve(serving.sample(tr)),
        _ => Outcome::Estimate(mine.run(op, tr)),
    };
    let secs = t0.elapsed().as_secs_f64();
    tr.exit(open);
    (secs, outcome)
}

fn plain(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        spread: None,
        computed: false,
    }
}

fn computed(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        computed: true,
        ..plain(name, unit, value)
    }
}

/// The median of `samples`, with its spread.
fn timed(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
    let s = Summary::of(samples);
    Metric {
        spread: Some(s),
        ..plain(name, unit, s.median)
    }
}

/// Mean relative error of the per-edge `|N⁺v ∩ N⁺u|` estimates of `pg`
/// over the oriented edges whose exact intersection is not empty (the
/// paper's Fig. 3 metric).
fn edge_relerr(mine: &Mining, pg: &probgraph::ProbGraph, exact: &[f64]) -> f64 {
    struct PerEdge<'a>(&'a pg_graph::OrientedDag);
    impl probgraph::oracle::OracleVisitor for PerEdge<'_> {
        type Output = Vec<f64>;
        fn visit<O: probgraph::oracle::IntersectionOracle>(self, o: &O) -> Vec<f64> {
            workload::per_edge(self.0, o)
        }
    }
    let est = pg.with_oracle(PerEdge(&mine.dag));
    let (sum, n) = est
        .iter()
        .zip(exact)
        .filter(|(_, &x)| x > 0.0)
        .fold((0.0, 0usize), |(s, n), (&e, &x)| {
            (s + (e - x).abs() / x, n + 1)
        });
    sum / n.max(1) as f64
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    mine: &Mining,
    serving: &Serving,
    probes: &Probes,
    exact: &Exact,
    log: &Log,
    tr: &Tracer,
) -> Vec<Metric> {
    let span = |metric: &str, span: &str, unit: &'static str, scale: f64| {
        let d: Vec<f64> = tr.durations(span).iter().map(|s| s * scale).collect();
        if d.is_empty() {
            plain(metric, unit, f64::NAN)
        } else {
            timed(metric, unit, &d)
        }
    };
    let secs = |metric: &str, name: &str| span(metric, name, "s", 1.0);
    let ms = |metric: &str, name: &str| span(metric, name, "ms", 1e3);
    let edges = probes.edges.len() as f64;
    let per_edge_ns = |metric: &str, name: &str| span(metric, name, "ns", 1e9 / edges.max(1.0));
    let bytes = |pg: &probgraph::ProbGraph| pg.memory_bytes() as f64;
    let n = mine.dag.num_vertices();
    let flag = |b: bool| f64::from(u8::from(b));
    let bf_window_bytes = match probes.bf2.store() {
        probgraph::SketchStoreIn::Bloom(c) => (c.words_per_set() * 8) as f64,
        _ => f64::NAN,
    };
    let member_queries: f64 = exact.edge_common.iter().map(|c| c * c).sum();
    let all_latencies: Vec<f64> = log
        .serve
        .iter()
        .flat_map(|s| s.latencies_s.iter().copied())
        .collect();
    let lags: Vec<f64> = log
        .serve
        .iter()
        .flat_map(|s| s.lags.iter().map(|&l| l as f64))
        .collect();
    let snap = serving.srv.snapshot();

    let mut out = vec![
        secs("graph.generate_s", "graph.generate"),
        secs("graph.orient_s", "graph.orient"),
        secs("intersect.exact_tc_s", "intersect.exact_tc"),
        secs("intersect.exact_clique4_s", "intersect.exact_clique4"),
        secs("intersect.exact_jp_s", "intersect.exact_jp"),
        secs("pg.build_bf2_s", "pg.build_bf2"),
        secs("pg.build_1h_s", "pg.build_1h"),
        secs("pg.build_strat_s", "pg.build_strat"),
        secs("pg.build_bf2_full_s", "pg.build_bf2_full"),
        plain("pg.store_bytes_bf2", "bytes", bytes(&probes.bf2)),
        plain("pg.store_bytes_1h", "bytes", bytes(&probes.one_hash)),
        plain("pg.store_bytes_strat", "bytes", bytes(&probes.strat)),
        secs("algorithms.tc_bf2_s", "algorithms.tc_bf2"),
        secs("algorithms.tc_1h_s", "algorithms.tc_1h"),
        secs("algorithms.tc_strat_s", "algorithms.tc_strat"),
        secs("algorithms.clique4_bf2_s", "algorithms.clique4_bf2"),
        secs("algorithms.jp_bf2_s", "algorithms.jp_bf2"),
        computed("algorithms.tc_estimates", "count", edges),
        computed("algorithms.clique4_member_queries", "count", member_queries),
        plain("grain.tiled_bf2", "bool", flag(ops::tiled(&probes.bf2, n))),
        plain(
            "grain.tiled_bf2_full",
            "bool",
            flag(ops::tiled(&probes.bf2_full, mine.g.num_vertices())),
        ),
        plain(
            "grain.tiled_strat",
            "bool",
            flag(ops::tiled(&probes.strat, n)),
        ),
        plain(
            "grain.tile_bytes",
            "bytes",
            pg_parallel::tile_bytes() as f64,
        ),
        per_edge_ns("sketch.bf_and_ns_per_edge", "sketch.bf_and"),
        per_edge_ns("sketch.bf_contains_ns", "sketch.bf_contains"),
        per_edge_ns(
            "sketch.onehash_matches_ns_per_edge",
            "sketch.onehash_matches",
        ),
        computed("sketch.bf_bytes_per_edge", "bytes", 2.0 * bf_window_bytes),
        secs("parallel.tc_bf2_1t_s", "parallel.tc_bf2_1t"),
        plain(
            "parallel.threads",
            "count",
            pg_parallel::current_threads() as f64,
        ),
        ms("serving.stage_ms", "serving.stage"),
        ms("serving.drain_ms", "serving.drain"),
        ms("serving.publish_ms", "serving.publish"),
        computed("serving.publish_bytes", "bytes", snap.memory_bytes() as f64),
        plain("serving.epochs", "count", serving.srv.epoch() as f64),
        timed("serving.ingest_eps", "edges/s", &log.serve[0].eps),
        plain(
            "serving.query_p99_us",
            "us",
            1e6 * percentile_or_nan(&all_latencies, 0.99),
        ),
        plain(
            "serving.epoch_lag_p99",
            "epochs",
            percentile_or_nan(&lags, 0.99),
        ),
        plain(
            "serving.saturated_counters",
            "count",
            serving.saturated_counters() as f64,
        ),
        ms("snapshot.encode_ms", "snapshot.encode"),
        ms("snapshot.validate_ms", "snapshot.validate"),
        plain(
            "snapshot.bytes",
            "bytes",
            log.serve[1].checkpoint_bytes as f64,
        ),
    ];
    drop(snap);
    let self_s = tr.self_seconds_by_layer();
    for layer in [
        "op",
        "graph",
        "intersect",
        "pg",
        "algorithms",
        "sketch",
        "parallel",
        "serving",
        "snapshot",
    ] {
        let v = self_s.get(layer).copied().unwrap_or(0.0);
        out.push(plain(&format!("self.{layer}_s"), "s", v));
    }
    // Tracing overhead: traced minus untraced medians of the same run.
    let med = |op: Op, on: bool| {
        log.secs
            .get(&(op, on))
            .map_or(f64::NAN, |v| Summary::of(v).median)
    };
    for (metric, op) in [
        ("trace.overhead_tc_s", Op::Tc),
        ("trace.overhead_tc_1h_s", Op::Tc1h),
        ("trace.overhead_tc_strat_s", Op::TcStrat),
        ("trace.overhead_clique4_s", Op::Clique4),
        ("trace.overhead_jp_s", Op::Jp),
    ] {
        out.push(plain(metric, "s", med(op, true) - med(op, false)));
    }
    let eps = |i: usize| percentile_or_nan(&log.serve[i].eps, 0.5);
    out.push(plain(
        "trace.overhead_ingest_eps",
        "edges/s",
        eps(1) - eps(0),
    ));
    let p50 = |i: usize| 1e6 * percentile_or_nan(&log.serve[i].latencies_s, 0.5);
    out.push(plain("trace.overhead_query_p50_us", "us", p50(1) - p50(0)));
    out
}

/// The `q`-percentile of `v`, or NaN when `v` is empty.
fn percentile_or_nan(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        Summary::percentile(v, q)
    }
}

/// The run's resolved configuration, as one JSON object.
fn config_json(
    args: &Args,
    mine: &Mining,
    serving: &Serving,
    probes: &Probes,
    exact: &Exact,
) -> String {
    let topo = pg_parallel::cache_topology();
    let n = mine.dag.num_vertices();
    let store = |name: &str, pg: &probgraph::ProbGraph, n_ids: usize| {
        let strata = match pg.stratified_params() {
            Some(sp) => {
                let mut counts = vec![0usize; sp.strata().len()];
                for &s in sp.assign() {
                    counts[s as usize] += 1;
                }
                format!("{:?} sets per stratum {counts:?}", sp.strata())
            }
            None => "uniform".to_string(),
        };
        format!(
            "\"{name}\":{{\"params\":\"{:?}\",\"strata\":\"{strata}\",\"store_bytes\":{},\"tiled\":{}}}",
            pg.params(),
            pg.memory_bytes(),
            ops::tiled(pg, n_ids)
        )
    };
    let stores = [
        store("bf2", &probes.bf2, n),
        store("1h", &probes.one_hash, n),
        store("strat", &probes.strat, n),
        store("bf2_full", &probes.bf2_full, mine.g.num_vertices()),
        store("serving", &serving.srv.snapshot(), mine.g.num_vertices()),
    ];
    format!(
        "{{\"config\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\
         \"nproc\":{},\"threads\":{},\"shard_lanes\":{},\"default_shards\":{},\
         \"cache_topology\":{{\"l1d_bytes\":{},\"l2_bytes\":{},\"l3_bytes\":{},\"line_bytes\":{}}},\
         \"tile_bytes\":{},\"n\":{},\"m\":{},\"max_degree\":{},\"budget\":{},\"stores\":{{{}}},\
         \"exact\":{{\"tc\":{},\"clique4\":{},\"jp_clusters\":{}}}}}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace,
        commit(),
        pg_parallel::available_threads(),
        pg_parallel::current_threads(),
        serving.srv.shards(),
        pg_parallel::current_shards(),
        topo.l1d_bytes,
        topo.l2_bytes,
        topo.l3_bytes,
        topo.line_bytes,
        pg_parallel::tile_bytes(),
        mine.g.num_vertices(),
        mine.g.num_edges(),
        mine.g.max_degree(),
        ops::BUDGET,
        stores.join(","),
        exact.tc,
        exact.clique4,
        exact.jp.num_clusters
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (no parent directory is searched); "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let resolve = || {
        let head = read(".git/HEAD")?;
        let head = head.trim();
        let Some(r) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Some(id) = read(&format!(".git/{r}")) {
            return Some(id.trim().to_string());
        }
        read(".git/packed-refs")?
            .lines()
            .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
    };
    resolve()
        .filter(|id| id.chars().all(|c| c.is_ascii_hexdigit()) && !id.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_report(args: &Args, r: &Report) {
    eprintln!(
        "{:<38} {:>16} {:>9} {:>7} {:>16} {:>16}",
        "metric", "value", "unit", "n", "q1", "q3"
    );
    for m in &r.metrics {
        let (n, q1, q3) = m
            .spread
            .map_or((String::new(), String::new(), String::new()), |s| {
                (
                    s.count.to_string(),
                    format!("{:.6}", s.p25),
                    format!("{:.6}", s.p75),
                )
            });
        let note = if m.computed { " (computed)" } else { "" };
        eprintln!(
            "{:<38} {:>16.6} {:>9} {:>7} {:>16} {:>16}{note}",
            m.name, m.value, m.unit, n, q1, q3
        );
    }
    let detail: Vec<String> = r
        .metrics
        .iter()
        .filter_map(|m| {
            m.spread.map(|s| {
                format!(
                    "\"{}\":{{\"samples\":{},\"q1\":{},\"median\":{},\"q3\":{}}}",
                    m.name,
                    s.count,
                    json_num(s.p25),
                    json_num(s.median),
                    json_num(s.p75)
                )
            })
        })
        .collect();
    let computed: Vec<String> = r
        .metrics
        .iter()
        .filter(|m| m.computed)
        .map(|m| format!("\"{}\"", m.name))
        .collect();
    println!("{}", r.config);
    println!(
        "{{\"detail\":{{\"trace\":{},\"computed\":[{}],{}}}}}",
        args.trace,
        computed.join(","),
        detail.join(",")
    );
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: Kind, seed: u64, trace: bool) -> Report {
        run(&Args {
            kind,
            seed,
            seconds: 0.05,
            trace,
            shrink: 16,
        })
    }

    fn names_units(r: &Report) -> Vec<(String, &'static str)> {
        r.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect()
    }

    #[test]
    fn every_workload_runs_on_a_second_seed_with_the_same_metrics() {
        for kind in [Kind::Dense, Kind::Skewed] {
            for trace in [false, true] {
                let a = small(kind, 2, trace);
                let b = small(kind, 3, trace);
                assert_eq!(a.failed, 0, "{kind:?} trace={trace}");
                assert_eq!(b.failed, 0, "{kind:?} trace={trace}");
                assert!(a.attempted > 0);
                assert_eq!(names_units(&a), names_units(&b), "{kind:?} trace={trace}");
                assert!(a.metrics.iter().all(|m| m.value.is_finite()));
            }
        }
    }

    #[test]
    fn timed_metrics_report_the_median_and_quartiles() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let m = timed("x_s", "s", &v);
        let s = m.spread.expect("timed metrics carry their spread");
        assert_eq!((m.value, s.count, s.p25, s.p75), (5.5, 10, 3.25, 7.75));
        assert_eq!(timed("y_s", "s", &[3.0, 1.0, 2.0]).value, 2.0);
        assert!((percentile_or_nan(&v, 0.9) - 9.1).abs() < 1e-12);
        assert!(percentile_or_nan(&[], 0.5).is_nan());
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload skewed --seed 9 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::Skewed, 9, 2.5, true)
        );
        let d = parse_args(&v("--workload dense")).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        for bad in [
            "--workload nope",
            "--seed -1",
            "--workload dense --trace 2",
            "--workload dense --seconds 0",
            "--seed 3",
            "--workload",
        ] {
            assert!(parse_args(&v(bad)).is_err(), "{bad}");
        }
    }
}
