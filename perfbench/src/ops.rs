//! The timed operations and the trace-only layer probes.
//!
//! Every end-to-end operation is "build the sketches, then run the
//! algorithm" through the library's public API, exactly as a user calls
//! it; the serving operation is a burst of stream ticks with a concurrent
//! reader. The [`Tracer`] spans name the layer each call lands in.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use pg_graph::{CsrGraph, OrientedDag, VertexId};
use pg_sketch::StrataSpec;
use probgraph::algorithms::clustering::{self, Clustering, SimilarityKind};
use probgraph::algorithms::{cliques, triangles};
use probgraph::oracle::{IntersectionOracle, OracleVisitor};
use probgraph::{
    PgConfig, ProbGraph, ProbGraphIn, Representation, ShardedProbGraph, SketchStoreIn,
};

use crate::trace::Tracer;
use crate::workload::{Window, JP_TAU};

/// Storage budget of every sketch store (the paper's Listing 6 default).
pub const BUDGET: f64 = 0.25;
/// Stream ticks per serving sample; each sample ends with one checkpoint,
/// so every 64th epoch is checkpointed.
pub const TICKS_PER_SAMPLE: usize = 64;
/// Candidates per reader query.
pub const QUERY_POOL: usize = 32768;
/// Ingest lanes of the serving store.
pub const SHARDS: usize = 2;

pub fn bf2() -> PgConfig {
    PgConfig::new(Representation::Bloom { b: 2 }, BUDGET)
}
pub fn one_hash() -> PgConfig {
    PgConfig::new(Representation::OneHash, BUDGET)
}
pub fn stratified() -> PgConfig {
    PgConfig::stratified(
        Representation::Bloom { b: 2 },
        BUDGET,
        StrataSpec::skewed_default(),
    )
}
pub fn serving() -> PgConfig {
    PgConfig::new(Representation::CountingBloom { b: 2 }, BUDGET)
}

/// The timed end-to-end operations, in round-robin order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Tc,
    Tc1h,
    TcStrat,
    Clique4,
    Jp,
    Serve,
}

impl Op {
    pub const ALL: [Op; 6] = [
        Op::Tc,
        Op::Tc1h,
        Op::TcStrat,
        Op::Clique4,
        Op::Jp,
        Op::Serve,
    ];

    /// Name of the `op.*` span and of the end-to-end time metric.
    pub fn span(self) -> &'static str {
        match self {
            Op::Tc => "op.tc",
            Op::Tc1h => "op.tc_1h",
            Op::TcStrat => "op.tc_strat",
            Op::Clique4 => "op.clique4",
            Op::Jp => "op.jp",
            Op::Serve => "op.serve",
        }
    }
}

/// The mining input: graph, its degree-ordered DAG, and the CSR footprint
/// every budget is measured against.
pub struct Mining {
    pub g: CsrGraph,
    pub dag: OrientedDag,
    pub base: usize,
}

impl Mining {
    /// Runs one mining operation; returns its estimate (a count, or the
    /// number of Jarvis–Patrick clusters).
    pub fn run(&self, op: Op, tr: &mut Tracer) -> f64 {
        match op {
            Op::Tc => self.tc(tr, &bf2(), "pg.build_bf2", "algorithms.tc_bf2"),
            Op::Tc1h => self.tc(tr, &one_hash(), "pg.build_1h", "algorithms.tc_1h"),
            Op::TcStrat => self.tc(tr, &stratified(), "pg.build_strat", "algorithms.tc_strat"),
            Op::Clique4 => {
                let pg = tr.time("pg.build_bf2", || self.build_dag(&bf2()));
                tr.time("algorithms.clique4_bf2", || {
                    cliques::count_approx_on_dag(&self.dag, &pg)
                })
            }
            Op::Jp => self.jp(tr).num_clusters as f64,
            Op::Serve => unreachable!("serving runs through Serving::sample"),
        }
    }

    fn tc(&self, tr: &mut Tracer, cfg: &PgConfig, build: &'static str, sweep: &'static str) -> f64 {
        let pg = tr.time(build, || self.build_dag(cfg));
        tr.time(sweep, || triangles::count_approx_on_dag(&self.dag, &pg))
    }

    pub fn jp(&self, tr: &mut Tracer) -> Clustering {
        let pg = tr.time("pg.build_bf2_full", || ProbGraph::build(&self.g, &bf2()));
        tr.time("algorithms.jp_bf2", || {
            clustering::jarvis_patrick_pg(&self.g, &pg, SimilarityKind::Jaccard, JP_TAU)
        })
    }

    pub fn build_dag(&self, cfg: &PgConfig) -> ProbGraph {
        ProbGraph::build_dag(&self.dag, self.base, cfg)
    }

    /// Oriented edges `(v, u)` in DAG row order.
    pub fn oriented_edges(&self) -> Vec<(VertexId, VertexId)> {
        (0..self.dag.num_vertices() as VertexId)
            .flat_map(|v| self.dag.neighbors_plus(v).iter().map(move |&u| (v, u)))
            .collect()
    }
}

/// Whether [`probgraph::plan_for`] tiles a sweep over `pg`'s `n` sets.
pub fn tiled(pg: &ProbGraph, n: usize) -> bool {
    struct Plan(usize);
    impl OracleVisitor for Plan {
        type Output = bool;
        fn visit<O: IntersectionOracle>(self, o: &O) -> bool {
            probgraph::plan_for(o, self.0).is_some()
        }
    }
    pg.with_oracle(Plan(n))
}

/// Prebuilt stores for the trace-only probes: kernels over the oriented
/// edge list, the single-thread sweep, and the tiling planner.
pub struct Probes {
    pub bf2: ProbGraph,
    pub one_hash: ProbGraph,
    pub strat: ProbGraph,
    pub bf2_full: ProbGraph,
    pub edges: Vec<(VertexId, VertexId)>,
}

impl Probes {
    pub fn build(mine: &Mining) -> Probes {
        Probes {
            bf2: mine.build_dag(&bf2()),
            one_hash: mine.build_dag(&one_hash()),
            strat: mine.build_dag(&stratified()),
            bf2_full: ProbGraph::build(&mine.g, &bf2()),
            edges: mine.oriented_edges(),
        }
    }

    /// One pass of every probe, each in its own span; returns a checksum
    /// so the loops cannot be optimized away.
    pub fn run(&self, mine: &Mining, tr: &mut Tracer) -> f64 {
        let mut acc = 0.0;
        if let SketchStoreIn::Bloom(c) = self.bf2.store() {
            acc += tr.time("sketch.bf_and", || {
                let mut s = 0.0;
                for &(v, u) in &self.edges {
                    s += c.estimate_and(v as usize, u as usize);
                }
                s
            });
            acc += tr.time("sketch.bf_contains", || {
                let mut hits = 0usize;
                for &(v, u) in &self.edges {
                    hits += c.contains(v as usize, u) as usize;
                }
                hits as f64
            });
        }
        if let SketchStoreIn::OneHash(c) = self.one_hash.store() {
            acc += tr.time("sketch.onehash_matches", || {
                let mut s = 0usize;
                for &(v, u) in &self.edges {
                    s += c.matches(v as usize, u as usize);
                }
                s as f64
            });
        }
        acc += tr.time("parallel.tc_bf2_1t", || {
            pg_parallel::with_threads(1, || triangles::count_approx_on_dag(&mine.dag, &self.bf2))
        });
        std::hint::black_box(acc)
    }
}

/// The serving side: a sharded counting-Bloom store fed by the sliding
/// window, and the reader's fixed query pool.
pub struct Serving {
    pub srv: ShardedProbGraph,
    window: Window,
    pool: Vec<VertexId>,
    n: usize,
    /// Stream ticks applied since the prefill.
    ticks: usize,
    query_state: u64,
    ins: Vec<(VertexId, VertexId)>,
    rem: Vec<(VertexId, VertexId)>,
}

/// What one serving sample measured.
pub struct ServeSample {
    pub writer_s: f64,
    pub inserted: usize,
    pub latencies_s: Vec<f64>,
    pub lags: Vec<u64>,
    /// Whether the reader's last query returned only finite values.
    pub queries_finite: bool,
    pub checkpoint_ok: bool,
    pub checkpoint_bytes: usize,
}

impl Serving {
    /// Builds the store and publishes the window's prefill as epoch 1.
    pub fn prefill(g: &CsrGraph, seed: u64) -> Serving {
        let n = g.num_vertices();
        let window = Window::new(g.edge_list(), seed);
        let mut srv = ShardedProbGraph::with_shards(n, g.memory_bytes(), &serving(), SHARDS);
        srv.stage_batch(window.prefill());
        srv.publish_epoch();
        let mut state = seed ^ 0x9_00C0_FFEE;
        let mut pool: Vec<VertexId> = (0..QUERY_POOL)
            .map(|_| (pg_hash::splitmix64(&mut state) % n as u64) as VertexId)
            .collect();
        pool.sort_unstable();
        Serving {
            srv,
            window,
            pool,
            n,
            ticks: 0,
            query_state: seed ^ 0x51_0CE5,
            ins: Vec::new(),
            rem: Vec::new(),
        }
    }

    /// One sample: the writer runs [`TICKS_PER_SAMPLE`] ticks (stage,
    /// drain, publish) and a checkpoint with its parallel regions pinned
    /// to one thread, while one reader thread runs closed-loop Jaccard row
    /// queries against pinned epochs until the writer is done.
    pub fn sample(&mut self, tr: &mut Tracer) -> ServeSample {
        let done = AtomicBool::new(false);
        let reader = self.srv.reader();
        let pool = std::mem::take(&mut self.pool);
        let (pool_ref, n) = (&pool[..], self.n);
        let mut qstate = self.query_state;
        let (writer, read) = std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let mut out = Vec::with_capacity(pool_ref.len());
                let (mut lat, mut lags) = (Vec::new(), Vec::new());
                while !done.load(Ordering::Relaxed) {
                    let src = (pg_hash::splitmix64(&mut qstate) % n as u64) as VertexId;
                    let t0 = Instant::now();
                    let snap = reader.snapshot();
                    snap.with_oracle(JaccardRow(src, pool_ref, &mut out));
                    lat.push(t0.elapsed().as_secs_f64());
                    lags.push(reader.epoch() - snap.epoch());
                }
                (lat, lags, out.iter().all(|j| j.is_finite()), qstate)
            });
            let writer = pg_parallel::with_threads(1, || self.write_ticks(tr));
            done.store(true, Ordering::Relaxed);
            (writer, handle.join().expect("reader thread panicked"))
        });
        let (latencies_s, lags, queries_finite, qstate) = read;
        self.query_state = qstate;
        self.pool = pool;
        let (writer_s, checkpoint_ok, checkpoint_bytes) = writer;
        ServeSample {
            writer_s,
            inserted: TICKS_PER_SAMPLE * crate::workload::TICK_EDGES,
            latencies_s,
            lags,
            queries_finite,
            checkpoint_ok,
            checkpoint_bytes,
        }
    }

    /// The writer's part of a sample; returns (seconds, checkpoint
    /// validated, checkpoint bytes).
    fn write_ticks(&mut self, tr: &mut Tracer) -> (f64, bool, usize) {
        let t0 = Instant::now();
        for _ in 0..TICKS_PER_SAMPLE {
            self.window.next_tick(&mut self.ins, &mut self.rem);
            let (srv, ins, rem) = (&mut self.srv, &self.ins, &self.rem);
            tr.time("serving.stage", || {
                srv.stage_batch(ins);
                srv.stage_removals(rem);
            });
            tr.time("serving.drain", || srv.apply_pending());
            tr.time("serving.publish", || srv.publish_epoch());
        }
        self.ticks += TICKS_PER_SAMPLE;
        let snap = self.srv.snapshot();
        let bytes = tr.time("snapshot.encode", || snap.snapshot_to_bytes());
        let ok = tr.time("snapshot.validate", || {
            ProbGraphIn::from_snapshot_bytes_borrowed(&bytes).is_ok_and(|pg| pg.len() == snap.len())
        });
        (t0.elapsed().as_secs_f64(), ok, bytes.len())
    }

    /// Replays the prefill and every tick applied so far into a serial
    /// [`ProbGraph`] and checks that its snapshot bytes equal those of the
    /// latest published epoch.
    pub fn matches_serial_replay(&self, g: &CsrGraph, seed: u64) -> bool {
        let mut window = Window::new(g.edge_list(), seed);
        let mut serial = ProbGraph::stream_from(
            g.num_vertices(),
            g.memory_bytes(),
            &serving(),
            window.prefill(),
        );
        let (mut ins, mut rem) = (Vec::new(), Vec::new());
        for _ in 0..self.ticks {
            window.next_tick(&mut ins, &mut rem);
            serial.apply_batch(&ins);
            serial.remove_batch(&rem);
        }
        serial.snapshot_to_bytes() == self.srv.snapshot().snapshot_to_bytes()
    }

    /// Heap bytes of the stream's inputs, which the benchmark holds rather
    /// than the library: the window's edge order and the query pool.
    pub fn own_bytes(&self) -> usize {
        self.window.heap_bytes() + std::mem::size_of_val(&self.pool[..])
    }

    /// Counting-Bloom buckets stuck at their maximum in the latest epoch.
    pub fn saturated_counters(&self) -> usize {
        match self.srv.snapshot().store() {
            SketchStoreIn::CountingBloom(c) => c.saturated_counters(),
            _ => 0,
        }
    }
}

struct JaccardRow<'a>(VertexId, &'a [VertexId], &'a mut Vec<f64>);

impl OracleVisitor for JaccardRow<'_> {
    type Output = ();
    fn visit<O: IntersectionOracle>(self, o: &O) {
        o.jaccard_row(self.0, self.1, self.2);
    }
}
