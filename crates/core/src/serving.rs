//! Sharded concurrent ingest with lock-free epoch-snapshot query serving.
//!
//! Everything below `ProbGraph` is single-writer: the [`MutableOracle`]
//! write path mutates sketches in place, so queries and streaming updates
//! could never overlap. This module adds the serving story on top of the
//! existing read and write paths without touching either:
//!
//! * **Sharding.** The vertex universe is split into contiguous ranges,
//!   one *lane* per shard — an ordinary [`ProbGraph`] over the range's
//!   rows, so a lane updates through the serial graph's own per-set
//!   update runs. Every lane is single-writer by construction — update
//!   batches are routed to per-shard queues and each lane is drained by
//!   exactly one worker (the `pg-parallel` fork/join pool), so ingest
//!   parallelizes across shards in safe Rust with no per-sketch
//!   synchronization at all.
//! * **Epoch snapshots.** [`ShardedProbGraph::publish_epoch`] gathers the
//!   lanes into one ordinary [`ProbGraph`] — the row gather an exchange
//!   worker also runs (a per-collection memcpy concatenation of sketches,
//!   sizes and stratum assignment; contiguous ranges mean no
//!   permutation) — and publishes it through a
//!   [`pg_parallel::EpochCell`]. Readers pin snapshots **lock-free** and
//!   run any [`OracleVisitor`] row sweep against them while ingest keeps
//!   streaming; retired snapshots come back as reusable buffers, so
//!   steady-state publishes are allocation-free double-buffering.
//! * **Serial equivalence.** Lanes resolve their sketch parameters against
//!   the *global* set count and byte footprint ([`crate::pg`]'s shared
//!   planner) and apply per-batch sorted/deduped update runs exactly like
//!   [`ProbGraph::apply_batch`], so a drained epoch is bit-identical to
//!   the serial build over the same batches — pinned by
//!   `tests/streaming_equivalence.rs` for every representation, and raced
//!   under ThreadSanitizer by `tests/serving_equivalence.rs`.
//! * **Stratified lanes.** Degree-stratified geometry shards the same
//!   way: each lane slices the global per-set stratum assignment over its
//!   contiguous range while sharing the stratum parameter table, so
//!   each lane is a [`ProbGraph::build_rows_stratified`] graph over its
//!   rows and the publish gather re-concatenates assignments along with
//!   the flat arrays (the uniform table has no assignment to slice).
//!   Resolved geometry (from a real degree distribution) enters through
//!   [`ShardedProbGraph::with_shards_stratified`]; a [`PgConfig`] carrying
//!   a strata spec plans against the empty stream exactly like
//!   [`ProbGraph::stream_from`] does.
//!
//! Shard count resolves through [`pg_parallel::current_shards`]
//! (`PG_SHARDS` env → one lane per hardware thread), then
//! [`ShardedProbGraph::new`] caps it against the cache-topology probe: a
//! lane should own at least [`pg_parallel::tile_bytes`] (half the L2) of
//! sketch bytes, so tiny stores don't pay fan-out overheads for
//! parallelism they cannot use.
//!
//! ```
//! use pg_graph::gen;
//! use probgraph::serving::ShardedProbGraph;
//! use probgraph::{PgConfig, Representation};
//!
//! let g = gen::kronecker(8, 8, 1);
//! let cfg = PgConfig::new(Representation::Bloom { b: 2 }, 0.25);
//! let mut srv = ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), &cfg, 2);
//!
//! let edges = g.edge_list();
//! srv.apply_batch(&edges);
//! let epoch = srv.publish_epoch();
//! assert_eq!(epoch, 1);
//!
//! // Reader handles are Send + Clone: queries pin epochs lock-free from
//! // any thread while the writer keeps streaming.
//! let reader = srv.reader();
//! let snap = reader.snapshot();
//! assert_eq!(snap.epoch(), 1);
//! let (u, v) = g.edges().next().unwrap();
//! assert!(snap.estimate_intersection(u, v) >= 0.0);
//! ```

use crate::oracle::{fail_remove_unsupported, MutableOracle, OracleVisitor, UnsupportedOperation};
use crate::pg::{resolve_stratified, Edge, PgConfig, ProbGraph};
use pg_graph::VertexId;
use pg_parallel::{EpochCell, EpochGuard};
use pg_sketch::{SketchParams, StratifiedParams};
use std::ops::Range;
use std::sync::Arc;

/// Below this many pending `(set, element)` updates a drain runs on the
/// calling thread — fork/join costs more than the work for live-tick
/// batches.
const PARALLEL_DRAIN_THRESHOLD: usize = 2048;

/// One queued batch segment for a single lane: updates in local set ids,
/// sorted and deduped (the global batch was), applied FIFO per lane so the
/// per-set element sequences match the serial [`ProbGraph::apply_batch`]
/// order exactly.
#[derive(Debug)]
struct Segment {
    remove: bool,
    updates: Vec<(u32, u32)>,
}

/// One shard: a contiguous vertex range, held as an ordinary single-writer
/// [`ProbGraph`] over its rows, and its update queue.
#[derive(Debug)]
struct Lane {
    pg: ProbGraph,
    queue: Vec<Segment>,
}

impl Lane {
    /// Applies every queued segment in arrival order through
    /// [`ProbGraph`]'s own update runs, so a lane updates exactly as the
    /// serial graph does.
    fn drain(&mut self) {
        for seg in self.queue.drain(..) {
            self.pg.apply_sorted_updates(&seg.updates, seg.remove);
        }
    }
}

/// The writer-side handle of the serving layer: sharded single-writer
/// ingest lanes plus the epoch cell queries read from. Mutating methods
/// take `&mut self`, so Rust's ownership rules enforce the single-writer
/// contract statically; any number of [`ServingReader`]s query published
/// epochs concurrently, lock-free.
#[derive(Debug)]
pub struct ShardedProbGraph {
    lanes: Vec<Lane>,
    /// Shard boundaries: shard `s` owns vertices `bounds[s]..bounds[s+1]`.
    bounds: Vec<u32>,
    cell: Arc<EpochCell<ProbGraph>>,
    /// Reclaimed snapshot buffers awaiting reuse (double-buffering).
    spares: Vec<ProbGraph>,
    pending: usize,
    cfg: PgConfig,
    /// The resolved parameter table (one stratum, no assignment array, on
    /// the uniform layout) — identical across lanes and epochs.
    params: StratifiedParams,
    n: usize,
}

impl ShardedProbGraph {
    /// Creates an empty sharded graph over `n_vertices` with the resolved
    /// default shard count: [`pg_parallel::current_shards`] (`PG_SHARDS`
    /// env → one lane per hardware thread), capped so each lane owns at
    /// least [`pg_parallel::tile_bytes`] (half the L2) of sketch bytes.
    /// `base_bytes` is the CSR footprint the budget is measured against,
    /// exactly as in [`ProbGraph::stream_from`].
    pub fn new(n_vertices: usize, base_bytes: usize, cfg: &PgConfig) -> Self {
        // Lanes are sized off the uniform store, whatever the strata spec.
        let uniform = PgConfig {
            strata: None,
            ..cfg.clone()
        };
        let params = resolve_stratified(n_vertices, base_bytes, &uniform, &[]).strata()[0];
        let store_bytes = store_bytes_estimate(params, n_vertices);
        let topo_cap = (store_bytes / pg_parallel::tile_bytes()).max(1);
        let shards = pg_parallel::current_shards().min(topo_cap);
        Self::with_shards(n_vertices, base_bytes, cfg, shards)
    }

    /// Creates an empty sharded graph with an explicit shard count
    /// (clamped to `[1, n_vertices]`). Sketch parameters are resolved
    /// against the **global** `n_vertices`/`base_bytes`, so every lane —
    /// and therefore every published epoch — is parameter-identical to a
    /// serial [`ProbGraph::stream_from`] over the same inputs. When `cfg`
    /// carries a [`pg_sketch::StrataSpec`], geometry is planned exactly as
    /// the serial stream plans it — against the all-zero degree array of
    /// the empty stream — so the equivalence holds stratified too; callers
    /// that know the real degree distribution up front should resolve it
    /// themselves and use [`ShardedProbGraph::with_shards_stratified`].
    pub fn with_shards(
        n_vertices: usize,
        base_bytes: usize,
        cfg: &PgConfig,
        shards: usize,
    ) -> Self {
        let sparams = resolve_stratified(n_vertices, base_bytes, cfg, &vec![0u32; n_vertices]);
        Self::with_shards_stratified(n_vertices, cfg, shards, sparams)
    }

    /// Creates an empty sharded graph from **already-resolved** stratified
    /// geometry — the streaming layer cannot re-derive degree ranks from
    /// an empty stream, so callers that planned against a real degree
    /// distribution (a prior epoch, a snapshot, an offline build) pass the
    /// resolved [`StratifiedParams`] in whole. A multi-stratum
    /// `sparams.assign()` must cover exactly `n_vertices` sets. Collapsed
    /// or one-stratum geometry is the uniform layout.
    ///
    /// Lanes get contiguous bounds and empty
    /// [`ProbGraph::build_rows_stratified`] graphs that slice the global
    /// assignment and share the stratum table (its row-range property);
    /// the epoch-0 snapshot is the empty graph.
    pub fn with_shards_stratified(
        n_vertices: usize,
        cfg: &PgConfig,
        shards: usize,
        sparams: StratifiedParams,
    ) -> Self {
        assert!(
            n_vertices <= u32::MAX as usize,
            "vertex universe exceeds u32 ids"
        );
        let params = sparams.collapsed();
        if !params.is_uniform() {
            assert_eq!(
                params.assign().len(),
                n_vertices,
                "assignment must cover every vertex"
            );
        }
        let shards = shards.clamp(1, n_vertices.max(1));
        let mut bounds = Vec::with_capacity(shards + 1);
        for s in 0..=shards {
            bounds.push((n_vertices * s / shards) as u32);
        }
        let lanes = bounds
            .windows(2)
            .map(|w| Lane {
                pg: empty_rows(&params, cfg, w[0] as usize..w[1] as usize),
                queue: Vec::new(),
            })
            .collect();
        let initial = empty_rows(&params, cfg, 0..n_vertices);
        ShardedProbGraph {
            lanes,
            bounds,
            cell: Arc::new(EpochCell::new(initial)),
            spares: Vec::new(),
            pending: 0,
            cfg: cfg.clone(),
            params,
            n: n_vertices,
        }
    }

    /// Number of vertices (= sketched sets).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the vertex universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of ingest lanes.
    #[inline]
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// The resolved sketch parameters (identical across lanes and epochs).
    /// For stratified lanes this is **stratum 0** — the widest,
    /// highest-degree stratum; see
    /// [`ShardedProbGraph::stratified_params`] for the full geometry.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.params.strata()[0]
    }

    /// The full per-set geometry when the lanes are degree-stratified;
    /// `None` on the uniform layout (including one-stratum and collapsed
    /// specs). Identical across lanes and published epochs.
    #[inline]
    pub fn stratified_params(&self) -> Option<&StratifiedParams> {
        (!self.params.is_uniform()).then_some(&self.params)
    }

    /// The epoch of the latest published snapshot (0 = the initial empty
    /// graph).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Number of staged `(set, element)` updates not yet applied to lanes.
    #[inline]
    pub fn pending_updates(&self) -> usize {
        self.pending
    }

    /// True when the stored representation supports edge removals
    /// (counting Bloom).
    #[inline]
    pub fn remove_supported(&self) -> bool {
        self.lanes[0].pg.remove_supported()
    }

    /// Stages a batch of new undirected edges on the per-shard queues
    /// without applying it — callers coalescing several ticks before one
    /// [`ShardedProbGraph::apply_pending`] or
    /// [`ShardedProbGraph::publish_epoch`]. Same contract as
    /// [`ProbGraph::apply_batch`]: self-loops dropped, in-batch duplicates
    /// applied once, endpoints in `0..len()`, edges not already present.
    pub fn stage_batch(&mut self, edges: &[Edge]) {
        self.enqueue(ProbGraph::undirected_updates(edges), false);
    }

    /// Directed form of [`ShardedProbGraph::stage_batch`]: each arc
    /// `(v, u)` inserts `u` into set `v` only (DAG out-neighborhood
    /// shape, as [`ProbGraph::apply_arcs`]).
    pub fn stage_arcs(&mut self, arcs: &[Edge]) {
        self.enqueue(ProbGraph::arc_updates(arcs), false);
    }

    /// Stages a batch of present undirected edges for removal. The
    /// representation must support removals (see
    /// [`ShardedProbGraph::try_remove_batch`] for the non-panicking
    /// form).
    pub fn stage_removals(&mut self, edges: &[Edge]) {
        self.check_remove_supported();
        self.enqueue(ProbGraph::undirected_updates(edges), true);
    }

    /// Absorbs a batch of new undirected edges into the shard lanes —
    /// staged, routed, and drained (in parallel across shards when the
    /// batch is large enough). The writes are visible to
    /// [`ShardedProbGraph::query_with_oracle`] and readers only after the
    /// next [`ShardedProbGraph::publish_epoch`].
    pub fn apply_batch(&mut self, edges: &[Edge]) {
        if self.pending == 0 {
            if let [(u, v)] = edges {
                // Single-edge ticks skip the sort/route machinery (only
                // safe when nothing staged would be reordered past them).
                if u != v {
                    self.insert_direct(*u, *v);
                    self.insert_direct(*v, *u);
                }
                return;
            }
        }
        self.stage_batch(edges);
        self.apply_pending();
    }

    /// Directed form of [`ShardedProbGraph::apply_batch`].
    pub fn apply_arcs(&mut self, arcs: &[Edge]) {
        if self.pending == 0 {
            if let [(v, u)] = arcs {
                if v != u {
                    self.insert_direct(*v, *u);
                }
                return;
            }
        }
        self.stage_arcs(arcs);
        self.apply_pending();
    }

    /// Removes a batch of present undirected edges — the deletion mirror
    /// of [`ShardedProbGraph::apply_batch`]. Panics unless the
    /// representation supports removals.
    pub fn remove_batch(&mut self, edges: &[Edge]) {
        self.stage_removals(edges);
        self.apply_pending();
    }

    /// Directed form of [`ShardedProbGraph::remove_batch`].
    pub fn remove_arcs(&mut self, arcs: &[Edge]) {
        self.check_remove_supported();
        self.enqueue(ProbGraph::arc_updates(arcs), true);
        self.apply_pending();
    }

    /// Non-panicking form of [`ShardedProbGraph::remove_batch`]: refuses
    /// the whole batch when the representation is not invertible, leaving
    /// lanes and queues untouched.
    pub fn try_remove_batch(&mut self, edges: &[Edge]) -> Result<(), UnsupportedOperation> {
        if !self.remove_supported() {
            return Err(UnsupportedOperation::removal());
        }
        self.remove_batch(edges);
        Ok(())
    }

    /// Non-panicking form of [`ShardedProbGraph::remove_arcs`].
    pub fn try_remove_arcs(&mut self, arcs: &[Edge]) -> Result<(), UnsupportedOperation> {
        if !self.remove_supported() {
            return Err(UnsupportedOperation::removal());
        }
        self.remove_arcs(arcs);
        Ok(())
    }

    /// Drains every per-shard queue into its lane. Lanes with enough
    /// pending work are drained in parallel — one worker per lane (the
    /// single-writer contract), scheduled by the `pg-parallel` pool.
    pub fn apply_pending(&mut self) {
        if self.pending == 0 {
            return;
        }
        let parallel = self.pending >= PARALLEL_DRAIN_THRESHOLD
            && self.lanes.iter().filter(|l| !l.queue.is_empty()).count() > 1
            && pg_parallel::current_threads() > 1;
        self.pending = 0;
        if !parallel {
            for lane in &mut self.lanes {
                if !lane.queue.is_empty() {
                    lane.drain();
                }
            }
            return;
        }
        struct SendPtr<T>(*mut T);
        unsafe impl<T> Send for SendPtr<T> {}
        unsafe impl<T> Sync for SendPtr<T> {}
        let base = SendPtr(self.lanes.as_mut_ptr());
        let base = &base;
        pg_parallel::parallel_for_grain(self.lanes.len(), 1, |s| {
            // SAFETY: the dynamic scheduler claims each index exactly
            // once, so lane `s` has exactly one writer for the duration of
            // the region — disjoint &mut access.
            let lane = unsafe { &mut *base.0.add(s) };
            lane.drain();
        });
    }

    /// Applies anything still staged, gathers the lanes into one snapshot
    /// (per-collection memcpy concatenation — shards are contiguous
    /// vertex ranges), and publishes it as the next epoch. Returns the new
    /// epoch number. Reclaimed older snapshots are kept as buffers, so
    /// steady-state publishes allocate nothing.
    pub fn publish_epoch(&mut self) -> u64 {
        self.apply_pending();
        // An empty 0-set buffer grows to size on its first gather, after
        // which it cycles through the double buffer at capacity.
        let mut snap = self
            .spares
            .pop()
            .unwrap_or_else(|| empty_rows(&self.params, &self.cfg, 0..0));
        let lanes: Vec<&ProbGraph> = self.lanes.iter().map(|l| &l.pg).collect();
        snap.gather_from(&lanes);
        let (epoch, mut reclaimed) = self.cell.publish(snap);
        self.spares.append(&mut reclaimed);
        epoch
    }

    /// Pins the latest published epoch and runs `visitor` against its
    /// resolved [`crate::oracle::IntersectionOracle`] — the same
    /// monomorphized row-sweep entry point as [`ProbGraph::with_oracle`].
    /// Staged or applied-but-unpublished writes are **not** visible;
    /// publish an epoch first.
    pub fn query_with_oracle<V: OracleVisitor>(&self, visitor: V) -> V::Output {
        self.cell.pin().with_oracle(visitor)
    }

    /// Pins the latest published snapshot for direct read access. The
    /// guard dereferences to an ordinary [`ProbGraph`].
    pub fn snapshot(&self) -> EpochGuard<'_, ProbGraph> {
        self.cell.pin()
    }

    /// A cloneable, `Send` reader handle over the epoch cell. Readers
    /// outlive nothing: they keep the cell alive via `Arc` and pin
    /// epochs lock-free from any thread.
    pub fn reader(&self) -> ServingReader {
        ServingReader {
            cell: Arc::clone(&self.cell),
        }
    }

    /// Routes one `(set, element)` insert straight to its lane — the
    /// live-tick fast path (no allocation, no sort, no fork/join).
    fn insert_direct(&mut self, set: VertexId, x: u32) {
        let lane_idx = self.lane_of(set);
        let local = set - self.bounds[lane_idx];
        self.lanes[lane_idx].pg.insert_into(local, x);
    }

    /// The shard owning vertex `v`.
    #[inline]
    fn lane_of(&self, v: VertexId) -> usize {
        debug_assert!((v as usize) < self.n, "vertex {v} outside 0..{}", self.n);
        self.bounds.partition_point(|&b| b <= v) - 1
    }

    /// Sorts, dedups, and routes a global update batch onto the per-shard
    /// queues. The global sort+dedup is exactly `ProbGraph::apply_updates`'
    /// preprocessing; contiguous shard ranges make the per-lane slices
    /// contiguous runs of the sorted batch.
    fn enqueue(&mut self, mut updates: Vec<(VertexId, u32)>, remove: bool) {
        updates.sort_unstable();
        updates.dedup();
        if updates.is_empty() {
            return;
        }
        self.pending += updates.len();
        let mut start = 0usize;
        for s in 0..self.lanes.len() {
            let (lo, hi) = (self.bounds[s], self.bounds[s + 1]);
            debug_assert!(updates[start..].iter().all(|&(v, _)| v >= lo || start == 0));
            let end = start
                + updates[start..]
                    .iter()
                    .position(|&(v, _)| v >= hi)
                    .unwrap_or(updates.len() - start);
            if end > start {
                self.lanes[s].queue.push(Segment {
                    remove,
                    updates: updates[start..end]
                        .iter()
                        .map(|&(v, x)| (v - lo, x))
                        .collect(),
                });
            }
            start = end;
            if start == updates.len() {
                break;
            }
        }
        debug_assert_eq!(start, updates.len(), "update outside the vertex universe");
    }

    fn check_remove_supported(&self) {
        if !self.remove_supported() {
            fail_remove_unsupported()
        }
    }
}

/// An empty graph over rows `rows` of the resolved table `params` — a
/// lane, the epoch-0 snapshot, or (over no rows) a fresh publish buffer.
fn empty_rows(params: &StratifiedParams, cfg: &PgConfig, rows: Range<usize>) -> ProbGraph {
    let n = rows.len();
    ProbGraph::build_rows_stratified(n, params.select(rows), cfg.bf_estimator, cfg.seed, |_| {
        &[][..]
    })
}

/// A cloneable, `Send + Sync` query handle: pins published epochs
/// lock-free and runs row sweeps against them from any thread, while the
/// single writer keeps ingesting.
#[derive(Clone, Debug)]
pub struct ServingReader {
    cell: Arc<EpochCell<ProbGraph>>,
}

impl ServingReader {
    /// The epoch of the latest published snapshot.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Pins the latest published snapshot. The guard dereferences to an
    /// ordinary [`ProbGraph`] and exposes the epoch it was published at;
    /// hold it only as long as the query runs — pinned epochs keep retired
    /// snapshots in limbo.
    pub fn snapshot(&self) -> EpochGuard<'_, ProbGraph> {
        self.cell.pin()
    }

    /// Pins the latest epoch and runs `visitor` against its resolved
    /// oracle — one pin per call, the steady-state query entry point.
    pub fn query_with_oracle<V: OracleVisitor>(&self, visitor: V) -> V::Output {
        self.cell.pin().with_oracle(visitor)
    }
}

/// Rough sketch-store footprint for `params` over `n` sets — used only to
/// cap the default shard count against [`pg_parallel::tile_bytes`], so it
/// can stay an estimate (word-granularity rounding ignored).
fn store_bytes_estimate(params: SketchParams, n: usize) -> usize {
    let per_set = match params {
        SketchParams::Bloom { bits_per_set, .. } => bits_per_set.div_ceil(8),
        // View bits plus 4-bit counters per bucket.
        SketchParams::CountingBloom { bits_per_set, .. } => {
            bits_per_set.div_ceil(8) + bits_per_set.div_ceil(2)
        }
        SketchParams::KHash { k } => 4 * k,
        // Element + hash arrays, both u32, at capacity k.
        SketchParams::OneHash { k } => 8 * k,
        SketchParams::Kmv { k } => 8 * k,
        SketchParams::Hll { precision } => 1usize << precision,
    };
    per_set.saturating_mul(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pg::Representation;
    use pg_graph::gen;

    fn all_reps() -> Vec<Representation> {
        vec![
            Representation::Bloom { b: 2 },
            Representation::CountingBloom { b: 2 },
            Representation::KHash,
            Representation::OneHash,
            Representation::Kmv,
            Representation::Hll,
        ]
    }

    #[test]
    fn epoch_zero_is_the_empty_graph() {
        let cfg = PgConfig::new(Representation::Bloom { b: 2 }, 0.3);
        let srv = ShardedProbGraph::with_shards(100, 4096, &cfg, 4);
        assert_eq!(srv.epoch(), 0);
        assert_eq!(srv.shards(), 4);
        let snap = srv.snapshot();
        assert_eq!(snap.len(), 100);
        assert_eq!(snap.sizes().iter().sum::<u32>(), 0);
    }

    #[test]
    fn writes_invisible_until_publish() {
        let g = gen::kronecker(7, 8, 3);
        let cfg = PgConfig::new(Representation::Bloom { b: 2 }, 0.3);
        let mut srv = ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), &cfg, 3);
        srv.apply_batch(&g.edge_list());
        assert_eq!(srv.snapshot().sizes().iter().sum::<u32>(), 0);
        let e = srv.publish_epoch();
        assert_eq!(e, 1);
        assert_eq!(
            srv.snapshot().sizes().iter().sum::<u32>() as usize,
            2 * g.num_edges()
        );
    }

    #[test]
    fn published_epoch_matches_serial_stream_for_every_representation() {
        let g = gen::erdos_renyi_gnm(90, 700, 17);
        let edges = g.edge_list();
        for rep in all_reps() {
            let cfg = PgConfig::new(rep, 0.3);
            let serial = ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), &cfg, &edges);
            for shards in [1usize, 2, 5] {
                let mut srv =
                    ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), &cfg, shards);
                // Mixed batch sizes, including the single-edge fast path.
                let (first, rest) = edges.split_first().unwrap();
                srv.apply_batch(std::slice::from_ref(first));
                for chunk in rest.chunks(97) {
                    srv.apply_batch(chunk);
                }
                srv.publish_epoch();
                let snap = srv.snapshot();
                assert_eq!(snap.params(), serial.params(), "{rep:?}/{shards}");
                assert_eq!(snap.sizes(), serial.sizes(), "{rep:?}/{shards}");
                for (u, v) in g.edges().take(200) {
                    assert_eq!(
                        snap.estimate_intersection(u, v),
                        serial.estimate_intersection(u, v),
                        "{rep:?}/{shards} ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn published_stratified_epoch_matches_serial_stream_for_every_representation() {
        use pg_sketch::StrataSpec;
        let g = gen::erdos_renyi_gnm(800, 24_000, 3);
        let edges = g.edge_list();
        for rep in all_reps() {
            let cfg = PgConfig::stratified(rep, 0.3, StrataSpec::skewed_default());
            let serial = ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), &cfg, &edges);
            for shards in [1usize, 3] {
                let mut srv =
                    ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), &cfg, shards);
                assert_eq!(
                    srv.stratified_params(),
                    serial.stratified_params(),
                    "{rep:?}/{shards}"
                );
                assert!(
                    srv.stratified_params().is_some(),
                    "{rep:?}: budget collapsed to uniform; the test covers nothing"
                );
                let (first, rest) = edges.split_first().unwrap();
                srv.apply_batch(std::slice::from_ref(first));
                for chunk in rest.chunks(977) {
                    srv.apply_batch(chunk);
                }
                srv.publish_epoch();
                let snap = srv.snapshot();
                assert_eq!(snap.params(), serial.params(), "{rep:?}/{shards}");
                assert_eq!(
                    snap.stratified_params(),
                    serial.stratified_params(),
                    "{rep:?}/{shards}"
                );
                assert_eq!(snap.sizes(), serial.sizes(), "{rep:?}/{shards}");
                for (u, v) in g.edges().take(200) {
                    assert_eq!(
                        snap.estimate_intersection(u, v),
                        serial.estimate_intersection(u, v),
                        "{rep:?}/{shards} ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn resolved_stratified_geometry_streams_like_build_rows() {
        use pg_sketch::StrataSpec;
        let g = gen::erdos_renyi_gnm(800, 24_000, 3);
        let edges = g.edge_list();
        let cfg = PgConfig::stratified(
            Representation::Bloom { b: 2 },
            0.3,
            StrataSpec::skewed_default(),
        );
        // Resolve against the *real* degree distribution — the case the
        // streaming layer cannot derive on its own.
        let offline = ProbGraph::build(&g, &cfg);
        let sp = offline
            .stratified_params()
            .expect("budget collapsed to uniform")
            .clone();
        let mut serial = ProbGraph::build_rows_stratified(
            g.num_vertices(),
            sp.clone(),
            cfg.bf_estimator,
            cfg.seed,
            |_| &[][..],
        );
        serial.apply_batch(&edges);
        let mut srv =
            ShardedProbGraph::with_shards_stratified(g.num_vertices(), &cfg, 4, sp.clone());
        assert_eq!(srv.stratified_params(), Some(&sp));
        for chunk in edges.chunks(511) {
            srv.apply_batch(chunk);
        }
        srv.publish_epoch();
        let snap = srv.snapshot();
        assert_eq!(snap.stratified_params(), Some(&sp));
        assert_eq!(snap.sizes(), serial.sizes());
        for (u, v) in g.edges().take(300) {
            assert_eq!(
                snap.estimate_intersection(u, v),
                serial.estimate_intersection(u, v),
                "({u},{v})"
            );
        }
    }

    #[test]
    fn one_stratum_geometry_lowers_onto_uniform_lanes() {
        let cfg = PgConfig::new(Representation::Kmv, 0.3);
        let params = crate::pg::resolve_stratified(100, 4096, &cfg, &[]).strata()[0];
        let sp = StratifiedParams::new(vec![params], vec![0u8; 100]);
        let srv = ShardedProbGraph::with_shards_stratified(100, &cfg, 3, sp);
        assert!(srv.stratified_params().is_none());
        assert_eq!(srv.params(), params);
        assert!(srv.snapshot().stratified_params().is_none());
    }

    #[test]
    fn stratified_spares_recycle_with_geometry_intact() {
        use pg_sketch::StrataSpec;
        let g = gen::erdos_renyi_gnm(400, 9_000, 11);
        let cfg = PgConfig::stratified(Representation::Hll, 0.3, StrataSpec::skewed_default());
        let mut srv = ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), &cfg, 2);
        assert!(srv.stratified_params().is_some());
        for chunk in g.edge_list().chunks(1024) {
            srv.apply_batch(chunk);
            srv.publish_epoch();
            assert_eq!(
                srv.snapshot().stratified_params(),
                srv.stratified_params(),
                "published geometry drifted from the lanes'"
            );
        }
        assert!(srv.spares.len() <= 2, "spares {}", srv.spares.len());
    }

    #[test]
    fn staged_batches_coalesce_and_preserve_order() {
        let g = gen::erdos_renyi_gnm(60, 400, 5);
        let edges = g.edge_list();
        let cfg = PgConfig::new(Representation::CountingBloom { b: 2 }, 0.3);
        let mut serial = ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), &cfg, &[]);
        let mut srv = ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), &cfg, 4);
        let (ins, del) = edges.split_at(edges.len() / 2);
        serial.apply_batch(ins);
        serial.apply_batch(del);
        serial.remove_batch(del);
        srv.stage_batch(ins);
        srv.stage_batch(del);
        srv.stage_removals(del);
        assert!(srv.pending_updates() > 0);
        srv.publish_epoch();
        assert_eq!(srv.pending_updates(), 0);
        let snap = srv.snapshot();
        assert_eq!(snap.sizes(), serial.sizes());
        for (u, v) in g.edges().take(200) {
            assert_eq!(
                snap.estimate_intersection(u, v),
                serial.estimate_intersection(u, v)
            );
        }
    }

    #[test]
    fn arcs_route_to_source_sets_only() {
        let g = gen::erdos_renyi_gnm(50, 250, 3);
        let dag = pg_graph::orient_by_degree(&g);
        let arcs: Vec<Edge> = (0..dag.num_vertices() as u32)
            .flat_map(|v| dag.neighbors_plus(v).iter().map(move |&u| (v, u)))
            .collect();
        let cfg = PgConfig::new(Representation::Bloom { b: 2 }, 0.3);
        let mut serial = ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), &cfg, &[]);
        serial.apply_arcs(&arcs);
        let mut srv = ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), &cfg, 3);
        srv.apply_arcs(&arcs);
        srv.publish_epoch();
        let snap = srv.snapshot();
        assert_eq!(snap.sizes(), serial.sizes());
    }

    #[test]
    fn spares_recycle_after_a_few_epochs() {
        let g = gen::kronecker(6, 6, 1);
        let cfg = PgConfig::new(Representation::Hll, 0.3);
        let mut srv = ShardedProbGraph::with_shards(g.num_vertices(), g.memory_bytes(), &cfg, 2);
        for chunk in g.edge_list().chunks(16) {
            srv.apply_batch(chunk);
            srv.publish_epoch();
        }
        // With no readers pinning, each publish reclaims the previous
        // snapshot: the double buffer never grows past a couple of spares.
        assert!(srv.spares.len() <= 2, "spares {}", srv.spares.len());
    }

    #[test]
    fn try_removals_refuse_on_non_invertible_stores() {
        let cfg = PgConfig::new(Representation::Bloom { b: 2 }, 0.3);
        let mut srv = ShardedProbGraph::with_shards(20, 1024, &cfg, 2);
        srv.apply_batch(&[(0, 1)]);
        assert!(srv.try_remove_batch(&[(0, 1)]).is_err());
        assert!(srv.try_remove_arcs(&[(0, 1)]).is_err());
        assert!(!srv.remove_supported());
    }

    #[test]
    #[should_panic(expected = "does not support removals")]
    fn staged_removals_panic_loudly_on_plain_bloom() {
        let cfg = PgConfig::new(Representation::Bloom { b: 2 }, 0.3);
        let mut srv = ShardedProbGraph::with_shards(20, 1024, &cfg, 2);
        srv.stage_removals(&[(0, 1)]);
    }

    #[test]
    fn default_shard_count_is_topology_capped() {
        let cfg = PgConfig::new(Representation::Bloom { b: 2 }, 0.25);
        // A tiny store cannot usefully split across many lanes.
        let tiny = ShardedProbGraph::new(16, 512, &cfg);
        assert_eq!(tiny.shards(), 1);
        // An explicit override is honored exactly (clamped to n).
        pg_parallel::with_shards(5, || {
            let srv = ShardedProbGraph::with_shards(100, 4096, &cfg, pg_parallel::current_shards());
            assert_eq!(srv.shards(), 5);
        });
    }

    #[test]
    fn empty_universe_serves_empty_snapshots() {
        let cfg = PgConfig::new(Representation::Kmv, 0.2);
        let mut srv = ShardedProbGraph::with_shards(0, 0, &cfg, 4);
        assert_eq!(srv.shards(), 1);
        assert!(srv.is_empty());
        srv.publish_epoch();
        assert!(srv.snapshot().is_empty());
    }
}
