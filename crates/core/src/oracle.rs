//! The monomorphized intersection-oracle layer.
//!
//! The paper's thesis (§IV–V) is that graph mining is a hot loop of
//! pairwise set-intersection estimates with the *representation* swappable
//! underneath: exact CSR adjacency, Bloom filters under three estimators,
//! k-hash MinHash, bottom-k MinHash, KMV, HyperLogLog. This module turns
//! that thesis into the type system: every representation implements
//! [`IntersectionOracle`], every algorithm is written **once** against a
//! generic `O: IntersectionOracle`, and the representation dispatch happens
//! exactly once per algorithm call — [`crate::ProbGraph::with_oracle`]
//! matches the store enum a single time and hands the monomorphized kernel
//! a concrete oracle, so the per-edge loop contains zero enum branching.
//!
//! Adding a new representation = implementing this trait and one
//! `with_oracle` arm; every algorithm (triangles, 4-cliques, clustering,
//! clustering coefficients, link prediction, similarity) picks it up for
//! free.
//!
//! Row sweeps pin the source once and batch destinations. Every
//! multi-lane sweep (Bloom uniform rows, tile segments and the three
//! stratified run kinds, HLL uniform and stratified rows) runs through
//! one private driver, `sweep_lanes`, which holds the 4 → 2 → 1 lane
//! split and its prefetch ramp; a sweep supplies only its kernel, window
//! and estimator tail. A Bloom estimator is exactly that tail
//! ([`BloomStrategy::tail`]), shared by the pairwise estimate and every
//! sweep.

use crate::intersect::intersect_card;
use pg_graph::{CsrGraph, OrientedDag, VertexId};
use pg_sketch::bitvec::{
    and_count_words, and_count_words_multi, prefetch_distance, prefetch_slice,
};
use pg_sketch::{
    estimators, BloomCollectionIn, BloomFlatView, BloomStratum, BottomKCollectionIn,
    HyperLogLogCollection, HyperLogLogCollectionIn, KmvCollectionIn, MinHashCollectionIn,
};
use std::marker::PhantomData;
use std::ops::Range;

/// `J = I / (|X| + |Y| − I)` clamped to `[0, 1]`, with the two-empty-sets
/// convention `J = 0` — the one place the Jaccard transform lives, so the
/// pairwise default and the row-batched default are bit-identical.
#[inline]
pub fn jaccard_from_intersection(nx: f64, ny: f64, inter: f64) -> f64 {
    let union = nx + ny - inter;
    if union <= 0.0 {
        // Degenerate: both empty ⇒ similarity 0 by convention.
        if nx + ny == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        (inter / union).clamp(0.0, 1.0)
    }
}

/// Shapes a reusable row buffer to `n` slots.
///
/// **Reuse contract:** kernels keep one scratch `Vec<f64>` per worker and
/// pass it to every [`IntersectionOracle::estimate_row`] /
/// [`IntersectionOracle::jaccard_row`] call; the buffer grows to the
/// widest row once and is then reused allocation-free. Implementations
/// write through `&mut [f64]` ([`IntersectionOracle::estimate_row_into`])
/// and *cannot* allocate; this wrapper is the only place the buffer may
/// grow, and it debug-asserts the buffer is not reallocated when its
/// capacity already suffices.
#[inline]
fn prepare_row_buf(out: &mut Vec<f64>, n: usize) {
    let cap = out.capacity();
    let ptr = out.as_ptr();
    if n <= out.len() {
        // Shrinking a warm buffer writes nothing; every slot is
        // overwritten by the row kernel.
        out.truncate(n);
    } else {
        out.resize(n, 0.0);
    }
    debug_assert!(
        cap < n || std::ptr::eq(ptr, out.as_ptr()),
        "row buffer reallocated despite sufficient capacity — \
         reuse one scratch Vec per worker, do not rebuild it per vertex"
    );
}

/// Worker-local scratch for
/// [`IntersectionOracle::accumulate_member_sum`]: grows to the largest
/// member list once, then is reused allocation-free. Only oracles that
/// override the hook touch it.
#[derive(Debug, Default)]
pub struct MemberScratch {
    /// Members keyed `rank << 32 | id`, sorted by rank.
    by_rank: Vec<u64>,
    /// Each member's raw hashes, in `by_rank` order.
    hashes: Vec<u32>,
}

/// A pairwise set-intersection estimator over an indexed family of sets
/// (vertex neighborhoods `N_v` or oriented out-neighborhoods `N⁺_v`).
///
/// The contract mirrors the blue operations of the paper's listings:
/// [`estimate`](Self::estimate) replaces `|N_u ∩ N_v|`,
/// [`jaccard`](Self::jaccard) replaces `J(N_u, N_v)`, and
/// [`estimate_vs_members`](Self::estimate_vs_members) replaces
/// `|N_w ∩ C|` against an ad-hoc explicit set `C` (the 4-clique inner
/// operation), which
/// [`accumulate_member_sum`](Self::accumulate_member_sum) sums over
/// `w ∈ C`. Exact adjacency is just another oracle, which is what lets
/// each algorithm keep a single body for its exact and approximate forms.
pub trait IntersectionOracle: Sync {
    /// Exact size of set `v` (degrees are free in CSR; every estimator
    /// that needs sizes uses the exact ones, as the paper's do).
    fn set_size(&self, v: VertexId) -> u32;

    /// `|N_u ∩ N_v|̂` — possibly negative for bias-corrected estimators;
    /// kernels clamp at their accumulation site.
    fn estimate(&self, u: VertexId, v: VertexId) -> f64;

    /// Slice-based batched row estimation: `out[t] = estimate(v, us[t])`,
    /// with `out.len() == us.len()` guaranteed by the caller.
    ///
    /// This is the hook oracles override — it takes a plain slice, so an
    /// implementation *cannot* allocate per row. Every real oracle pins
    /// its source-side state (the Bloom word window and cached popcount,
    /// the MinHash signature, the bottom-k sample, the KMV sketch, the
    /// HLL register window, the exact adjacency row) once per call and
    /// sweeps the destinations with multi-lane fused kernels where the
    /// representation has one. Results are bit-identical to the pairwise
    /// [`estimate`](Self::estimate), per destination.
    #[inline]
    fn estimate_row_into(&self, v: VertexId, us: &[VertexId], out: &mut [f64]) {
        debug_assert_eq!(us.len(), out.len());
        for (o, &u) in out.iter_mut().zip(us) {
            *o = self.estimate(v, u);
        }
    }

    /// Batched row estimation into a reusable buffer:
    /// `out[t] = estimate(v, us[t])`.
    ///
    /// Kernels that sweep a whole neighborhood per vertex should prefer
    /// this over pairwise [`estimate`](Self::estimate) calls. `out` is a
    /// worker-local scratch vector under the reuse contract: it is
    /// resized (never shrunk below capacity) to `us.len()` here — the
    /// **only** place the buffer may grow — and implementations then
    /// write through the slice hook
    /// [`estimate_row_into`](Self::estimate_row_into), so a warm buffer
    /// is reused allocation-free; debug builds assert it.
    #[inline]
    fn estimate_row(&self, v: VertexId, us: &[VertexId], out: &mut Vec<f64>) {
        prepare_row_buf(out, us.len());
        self.estimate_row_into(v, us, out);
    }

    /// `Ĵ(N_u, N_v)`, clamped to `[0, 1]`.
    ///
    /// The default derives it from [`estimate`](Self::estimate) and the
    /// exact sizes via [`jaccard_from_intersection`]; MinHash oracles
    /// override with their native Jaccard estimators.
    #[inline]
    fn jaccard(&self, u: VertexId, v: VertexId) -> f64 {
        jaccard_from_intersection(
            self.set_size(u) as f64,
            self.set_size(v) as f64,
            self.estimate(u, v),
        )
    }

    /// Slice-based batched row Jaccard: `out[t] = jaccard(v, us[t])`.
    ///
    /// The default runs [`estimate_row_into`](Self::estimate_row_into)
    /// and applies [`jaccard_from_intersection`] in place — bit-identical
    /// to the default pairwise [`jaccard`](Self::jaccard). Oracles with
    /// native Jaccard estimators (k-hash, bottom-k) override.
    #[inline]
    fn jaccard_row_into(&self, v: VertexId, us: &[VertexId], out: &mut [f64]) {
        self.estimate_row_into(v, us, out);
        let nv = self.set_size(v) as f64;
        for (o, &u) in out.iter_mut().zip(us) {
            *o = jaccard_from_intersection(nv, self.set_size(u) as f64, *o);
        }
    }

    /// Batched row Jaccard into a reusable buffer — same reuse contract
    /// as [`estimate_row`](Self::estimate_row).
    #[inline]
    fn jaccard_row(&self, v: VertexId, us: &[VertexId], out: &mut Vec<f64>) {
        prepare_row_buf(out, us.len());
        self.jaccard_row_into(v, us, out);
    }

    /// `|N_w ∩ C|̂` against an explicit **sorted** element list `C` with no
    /// prebuilt sketch (Listing 2's inner operation). Exact adjacency
    /// intersects directly; Bloom answers membership queries; MinHash
    /// counts sample hits, scaled by `|N_w|` over set `w`'s own sample
    /// size (its stratum's, on a stratified store). Against `C = N_w`
    /// every one of these returns `|N_w|` exactly. Representations
    /// storing hash values instead of elements (KMV, HLL) cannot answer
    /// this and panic loudly rather than return a silently wrong number —
    /// exactly as the paper, which only evaluates BF and MH on clique
    /// counting.
    fn estimate_vs_members(&self, w: VertexId, members: &[u32]) -> f64 {
        let _ = (w, members);
        panic!(
            "this representation stores hash values, not elements, and cannot \
             estimate against an explicit member list (use exact, Bloom, or MinHash)"
        )
    }

    /// `*acc += Σ_{w ∈ C} |N_w ∩ C|̂` for one explicit **sorted** element
    /// list `C` whose members are also sets of this family — 4-clique
    /// counting's whole inner loop for one oriented edge, `C = C3`.
    ///
    /// `rank` must be the order the sets were oriented by
    /// ([`OrientedDag::rank`]): every element of `N_w` ranks above `w`.
    /// `scratch` is worker-local and reused across calls.
    ///
    /// The default adds [`estimate_vs_members`](Self::estimate_vs_members)
    /// for each `w` in `C`'s order, each clamped at 0, so exact, k-hash
    /// and 1-hash sums keep their bits and summation order. Bloom
    /// overrides it: members that rank below `w` can never be in `N_w`,
    /// so it probes each filter only with the members ranked above its
    /// owner, and hashes each member once per call instead of once per
    /// probe.
    fn accumulate_member_sum(
        &self,
        members: &[u32],
        rank: &[u32],
        scratch: &mut MemberScratch,
        acc: &mut f64,
    ) {
        let _ = (rank, scratch);
        for &w in members {
            *acc += self.estimate_vs_members(w, members).max(0.0);
        }
    }

    /// True when one [`estimate`](Self::estimate) call costs `O(d)` rather
    /// than `O(sketch)` — the exact oracle. Kernels use this to pick a
    /// degree-power scheduling grain matching their true work profile.
    #[inline]
    fn degree_scaled_cost(&self) -> bool {
        false
    }

    /// Bytes of one destination window (filter words, register block) when
    /// the oracle's destinations live in a flat array that a blocked sweep
    /// can tile into cache-resident destination ranges; `None` when there
    /// is no such array (exact CSR rows have variable length) or tiling is
    /// not profitable for the representation. The tiling planner
    /// ([`crate::grain::plan_tiles`]) consumes this to decide between the
    /// blocked and the plain row-sweep traversal.
    #[inline]
    fn dest_window_bytes(&self) -> Option<usize> {
        None
    }

    /// Blocked batched estimation over one (source-batch × destination-tile)
    /// block: for each batch slot `s`, `us[seg_offsets[s]..seg_offsets[s+1]]`
    /// holds source `sources[s]`'s in-tile destinations, and the matching
    /// `out` range receives `estimate(sources[s], u)` per destination —
    /// bit-identical to [`estimate_row_into`](Self::estimate_row_into) over
    /// the same segments, which is exactly what the default does (so every
    /// oracle is block-correct for free). Tiled overrides (Bloom, and CBF
    /// via its read view) re-pin each source and sweep the cache-resident
    /// tile with the tiled kernels instead.
    #[inline]
    fn estimate_block_into(
        &self,
        sources: &[VertexId],
        seg_offsets: &[usize],
        us: &[VertexId],
        out: &mut [f64],
    ) {
        debug_assert_eq!(seg_offsets.len(), sources.len() + 1);
        debug_assert_eq!(us.len(), out.len());
        for (s, &v) in sources.iter().enumerate() {
            let (lo, hi) = (seg_offsets[s], seg_offsets[s + 1]);
            self.estimate_row_into(v, &us[lo..hi], &mut out[lo..hi]);
        }
    }

    /// Blocked batched Jaccard — segment layout as
    /// [`estimate_block_into`](Self::estimate_block_into). The default
    /// loops [`jaccard_row_into`](Self::jaccard_row_into) per segment (not
    /// the estimate block + transform), so oracles with native Jaccard row
    /// kernels (k-hash, 1-hash) stay bit-identical under tiling.
    #[inline]
    fn jaccard_block_into(
        &self,
        sources: &[VertexId],
        seg_offsets: &[usize],
        us: &[VertexId],
        out: &mut [f64],
    ) {
        debug_assert_eq!(seg_offsets.len(), sources.len() + 1);
        debug_assert_eq!(us.len(), out.len());
        for (s, &v) in sources.iter().enumerate() {
            let (lo, hi) = (seg_offsets[s], seg_offsets[s + 1]);
            self.jaccard_row_into(v, &us[lo..hi], &mut out[lo..hi]);
        }
    }

    /// Blocked estimation into a reusable buffer — the block-level analog
    /// of [`estimate_row`](Self::estimate_row), under the same
    /// truncate-don't-zero reuse contract: one scratch `Vec<f64>` per
    /// worker grows to the widest block once, then every later block
    /// reuses it allocation-free (debug-asserted).
    #[inline]
    fn estimate_block(
        &self,
        sources: &[VertexId],
        seg_offsets: &[usize],
        us: &[VertexId],
        out: &mut Vec<f64>,
    ) {
        prepare_row_buf(out, us.len());
        self.estimate_block_into(sources, seg_offsets, us, out);
    }

    /// Blocked Jaccard into a reusable buffer — same contract as
    /// [`estimate_block`](Self::estimate_block).
    #[inline]
    fn jaccard_block(
        &self,
        sources: &[VertexId],
        seg_offsets: &[usize],
        us: &[VertexId],
        out: &mut Vec<f64>,
    ) {
        prepare_row_buf(out, us.len());
        self.jaccard_block_into(sources, seg_offsets, us, out);
    }
}

/// The streaming extension of the oracle layer: in-place sketch updates
/// for evolving graphs (the ROADMAP's "dynamic / streaming sketches"
/// item, now closed under deletion for invertible representations).
///
/// Where [`IntersectionOracle`] is the read path — borrowed views over
/// built collections — `MutableOracle` is the write path, implemented by
/// the store enum [`crate::SketchStore`] (which forwards to each
/// collection's inherent `insert`/`insert_batch`) and by
/// [`crate::ProbGraph`], which also maintains the exact set sizes. Each
/// representation absorbs an element in place:
///
/// * **Bloom** sets its `b` bits and bumps the cached popcount — filters
///   are naturally insert-only;
/// * **Counting Bloom** increments its `b` bucket counters and maintains
///   the derived bit view (counter > 0 ⇔ bit set) — the one
///   representation whose update is *invertible*, so it also implements
///   the `remove_*` family below;
/// * **HLL** takes register-wise maxima — naturally insert-only;
/// * **k-hash MinHash** takes per-slot minima, recovering each slot's
///   current best hash once per batch (the collection stores elements,
///   not hashes);
/// * **KMV and bottom-k** maintain a bounded max-heap behind their
///   sorted-slice views — `O(log k)` per element — and re-sort once per
///   batch, before the next row sweep reads the slices.
///
/// Every update is equivalent to a from-scratch rebuild over the
/// surviving set (bit-identical sketches for Bloom/counting-Bloom/
/// k-hash/HLL, estimator-identical for KMV/bottom-k), which
/// `tests/streaming_equivalence.rs` pins differentially. Callers must
/// not insert an edge that is already present, and must only remove
/// edges that are: sketches tolerate a double insert (min/max/bit
/// updates are idempotent), but counting-Bloom counters and the recorded
/// set sizes would diverge from a rebuild.
pub trait MutableOracle {
    /// Absorbs element `x` into the sketch of set `v`, in place.
    fn insert_into(&mut self, v: VertexId, x: u32);

    /// Batched per-set insert: absorbs all of `xs` into set `v`.
    ///
    /// Implementations hoist per-set state (the Bloom word window, the
    /// recovered MinHash slot hashes, the bottom-k/KMV heap) once per
    /// call, so callers should group updates by source vertex — exactly
    /// what [`crate::ProbGraph::apply_batch`] does.
    fn insert_into_many(&mut self, v: VertexId, xs: &[u32]) {
        for &x in xs {
            self.insert_into(v, x);
        }
    }

    /// Inserts the undirected edge `{u, v}`: `v` into `N_u`'s sketch and
    /// `u` into `N_v`'s.
    fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        self.insert_into(u, v);
        self.insert_into(v, u);
    }

    /// Removes element `x` from the sketch of set `v`, in place. `x`
    /// must have been inserted (sketches cannot verify membership, so a
    /// bogus removal silently corrupts shared state — the counting-Bloom
    /// implementation debug-asserts what it can).
    ///
    /// The default panics loudly: most representations' updates are not
    /// invertible. Check [`MutableOracle::remove_supported`] before
    /// routing deletions at a store.
    fn remove_from(&mut self, v: VertexId, x: u32) {
        let _ = (v, x);
        fail_remove_unsupported()
    }

    /// Batched per-set removal: removes all of `xs` from set `v`. Same
    /// per-set-state hoisting contract as
    /// [`MutableOracle::insert_into_many`]; callers group removals by
    /// source vertex ([`crate::ProbGraph::remove_batch`] does).
    fn remove_from_many(&mut self, v: VertexId, xs: &[u32]) {
        for &x in xs {
            self.remove_from(v, x);
        }
    }

    /// Removes the undirected edge `{u, v}`: `v` out of `N_u`'s sketch
    /// and `u` out of `N_v`'s.
    fn remove_edge(&mut self, u: VertexId, v: VertexId) {
        self.remove_from(u, v);
        self.remove_from(v, u);
    }

    /// True when the representation supports removals. Counting Bloom
    /// filters do (decrementable counters); the other five do not —
    /// plain Bloom bits and HLL register maxima are not invertible, and
    /// the MinHash/bottom-k/KMV samples evict without remembering what
    /// they evicted.
    fn remove_supported(&self) -> bool {
        false
    }

    /// Non-panicking form of [`MutableOracle::remove_from`]: checks
    /// [`MutableOracle::remove_supported`] first and reports an
    /// unsupported store as an error instead of unwinding — the right
    /// entry point when the representation is picked at runtime (config
    /// files, loaded snapshots).
    fn try_remove_from(&mut self, v: VertexId, x: u32) -> Result<(), UnsupportedOperation> {
        if !self.remove_supported() {
            return Err(UnsupportedOperation::removal());
        }
        self.remove_from(v, x);
        Ok(())
    }

    /// Non-panicking form of [`MutableOracle::remove_from_many`]. Either
    /// the whole batch applies or nothing does.
    fn try_remove_from_many(
        &mut self,
        v: VertexId,
        xs: &[u32],
    ) -> Result<(), UnsupportedOperation> {
        if !self.remove_supported() {
            return Err(UnsupportedOperation::removal());
        }
        self.remove_from_many(v, xs);
        Ok(())
    }

    /// Non-panicking form of [`MutableOracle::remove_edge`]. Either both
    /// endpoints update or neither does.
    fn try_remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), UnsupportedOperation> {
        if !self.remove_supported() {
            return Err(UnsupportedOperation::removal());
        }
        self.remove_edge(u, v);
        Ok(())
    }
}

/// A mutation was routed at a representation that cannot perform it —
/// the typed counterpart of the loud panic in
/// [`MutableOracle::remove_from`], returned by the `try_remove_*` family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnsupportedOperation {
    /// The mutation that was refused.
    pub operation: &'static str,
}

impl UnsupportedOperation {
    /// The removal refusal every non-invertible store returns.
    pub(crate) fn removal() -> Self {
        UnsupportedOperation {
            operation: "edge removal (remove_supported() == false); \
                        use Representation::CountingBloom",
        }
    }
}

impl core::fmt::Display for UnsupportedOperation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "unsupported operation: {}", self.operation)
    }
}

impl std::error::Error for UnsupportedOperation {}

/// The loud removal panic every non-invertible store shares (the
/// [`MutableOracle::remove_from`] default, the store enum's non-counting
/// arms, and the serving layer's staged removals).
#[cold]
pub(crate) fn fail_remove_unsupported() -> ! {
    panic!(
        "this representation does not support removals \
         (remove_supported() == false); use Representation::CountingBloom"
    )
}

/// Rank-2 adapter for [`crate::ProbGraph::with_oracle`]: a closure cannot
/// be generic over the oracle type, so callers implement this one-method
/// trait instead (usually a tiny local struct capturing the kernel's other
/// arguments). `visit` is instantiated once per concrete oracle —
/// full monomorphization, dispatch hoisted out of the kernel.
pub trait OracleVisitor {
    /// The kernel's result type.
    type Output;
    /// Runs the kernel against one concrete, monomorphized oracle.
    fn visit<O: IntersectionOracle>(self, oracle: &O) -> Self::Output;
}

// ---------------------------------------------------------------------------
// Exact adjacency
// ---------------------------------------------------------------------------

/// Row access shared by the two exact set families: full neighborhoods of
/// a [`CsrGraph`] and oriented out-neighborhoods of an [`OrientedDag`].
pub trait AdjacencyRows: Sync {
    /// The sorted adjacency row of vertex `v`.
    fn adjacency_row(&self, v: VertexId) -> &[u32];
}

impl AdjacencyRows for CsrGraph {
    #[inline]
    fn adjacency_row(&self, v: VertexId) -> &[u32] {
        self.neighbors(v)
    }
}

impl AdjacencyRows for OrientedDag {
    #[inline]
    fn adjacency_row(&self, v: VertexId) -> &[u32] {
        self.neighbors_plus(v)
    }
}

/// The exact oracle: merge/galloping intersections over sorted adjacency
/// rows (Fig. 1 panel 2). Running a generic kernel with this oracle *is*
/// the tuned exact baseline.
#[derive(Clone, Copy)]
pub struct ExactOracle<'a, A: AdjacencyRows> {
    adj: &'a A,
}

impl<'a, A: AdjacencyRows> ExactOracle<'a, A> {
    /// Wraps an adjacency structure.
    #[inline]
    pub fn new(adj: &'a A) -> Self {
        ExactOracle { adj }
    }
}

impl<A: AdjacencyRows> IntersectionOracle for ExactOracle<'_, A> {
    #[inline]
    fn set_size(&self, v: VertexId) -> u32 {
        self.adj.adjacency_row(v).len() as u32
    }

    #[inline]
    fn estimate(&self, u: VertexId, v: VertexId) -> f64 {
        intersect_card(self.adj.adjacency_row(u), self.adj.adjacency_row(v)) as f64
    }

    #[inline]
    fn estimate_row_into(&self, v: VertexId, us: &[VertexId], out: &mut [f64]) {
        let nv = self.adj.adjacency_row(v);
        for (o, &u) in out.iter_mut().zip(us) {
            *o = intersect_card(nv, self.adj.adjacency_row(u)) as f64;
        }
    }

    #[inline]
    fn estimate_vs_members(&self, w: VertexId, members: &[u32]) -> f64 {
        intersect_card(self.adj.adjacency_row(w), members) as f64
    }

    #[inline]
    fn degree_scaled_cost(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// The multi-lane sweep driver
// ---------------------------------------------------------------------------

/// One multi-lane row sweep's per-destination steps, driven by
/// [`sweep_lanes`]: a fused kernel over four or two destination windows
/// against the pinned source window, its scalar form for a last odd
/// destination, and the estimator tail.
trait LaneSweep {
    /// What the kernel yields per destination: a Bloom AND popcount, an
    /// HLL union estimate.
    type Stat: Copy;
    /// Prefetches destination `j`'s window.
    fn prefetch(&self, j: usize);
    /// The fused kernel over `L` destinations.
    fn lanes<const L: usize>(&self, js: [usize; L]) -> [Self::Stat; L];
    /// The scalar kernel over one destination.
    fn one(&self, j: usize) -> Self::Stat;
    /// The estimator tail of destination `j`.
    fn finish(&self, stat: Self::Stat, j: usize) -> f64;
}

/// The one multi-lane sweep: `out[t]` receives destination `us[t]`'s
/// estimate. Destinations go four per fused pass (the tails of a group
/// stay adjacent, so their table lookups pipeline), then two, then one.
/// With `dist > 0` every destination window is prefetched once, `dist`
/// destinations ahead: flat row sweeps pass [`l2_prefetch_distance`],
/// while sweeps of cache-resident tiles and of stratum runs pass 0.
#[inline]
fn sweep_lanes<K: LaneSweep>(k: &K, us: &[VertexId], out: &mut [f64], dist: usize) {
    debug_assert_eq!(us.len(), out.len());
    for &p in us.iter().take(dist.min(us.len())) {
        k.prefetch(p as usize);
    }
    let mut t = 0;
    while t + 4 <= us.len() {
        if dist > 0 {
            // Each group prefetches exactly the windows entering the
            // look-ahead horizon.
            for &p in us.iter().take((t + dist + 4).min(us.len())).skip(t + dist) {
                k.prefetch(p as usize);
            }
        }
        let js = [
            us[t] as usize,
            us[t + 1] as usize,
            us[t + 2] as usize,
            us[t + 3] as usize,
        ];
        let stats = k.lanes(js);
        for l in 0..4 {
            out[t + l] = k.finish(stats[l], js[l]);
        }
        t += 4;
    }
    if t + 2 <= us.len() {
        let js = [us[t] as usize, us[t + 1] as usize];
        let stats = k.lanes(js);
        for l in 0..2 {
            out[t + l] = k.finish(stats[l], js[l]);
        }
        t += 2;
    }
    if t < us.len() {
        let j = us[t] as usize;
        out[t] = k.finish(k.one(j), j);
    }
}

/// How far ahead a flat row sweep prefetches the `window_bytes`-byte
/// destination windows of an `n_sets`-window store: not at all when the
/// store fits the probed L2 (every window is already a hit, and the ramp
/// is pure instruction overhead, measurably slower at the scaled bench
/// sizes), else [`prefetch_distance`] (~4 KiB of fills in flight).
fn l2_prefetch_distance(window_bytes: usize, n_sets: usize) -> usize {
    if window_bytes * n_sets <= pg_parallel::cache_topology().l2_bytes {
        0
    } else {
        prefetch_distance(window_bytes)
    }
}

/// The maximal runs of `us` whose destinations share one stratum, in
/// order, as `(stratum, range)`. Stratified sweeps fuse each run as one
/// equal-width multi-lane sweep.
fn stratum_runs<'u>(
    us: &'u [VertexId],
    stratum_of: impl Fn(usize) -> usize + 'u,
) -> impl Iterator<Item = (usize, Range<usize>)> + 'u {
    let mut t = 0;
    std::iter::from_fn(move || {
        let s = stratum_of(*us.get(t)? as usize);
        let lo = t;
        t += 1;
        while t < us.len() && stratum_of(us[t] as usize) == s {
            t += 1;
        }
        Some((s, lo..t))
    })
}

// ---------------------------------------------------------------------------
// Bloom filters: one oracle type, three zero-sized estimator strategies
// ---------------------------------------------------------------------------

/// Which Bloom intersection estimator a [`BloomOracle`] applies, resolved
/// at *compile time*: each strategy is a zero-sized type, so
/// `BloomOracle<BloomAnd>`, `BloomOracle<BloomLimit>`, and
/// `BloomOracle<BloomOr>` monomorphize into three distinct branch-free
/// kernels instead of one kernel matching an estimator enum per edge.
///
/// Every Bloom estimator is one fused AND-popcount followed by a scalar
/// tail, and a strategy is exactly that tail. The pairwise estimate and
/// the row, tile and stratified sweeps all produce the popcounts and call
/// [`tail`](Self::tail), so a new estimator is one `tail` and every path
/// serves it bit-identically.
pub trait BloomStrategy: Send + Sync + 'static {
    /// The estimate from one pair's popcounts at the comparison width,
    /// evaluated at stratum `at` (the narrower set's). `and_ones` is
    /// `B_{X∩Y,1}`; `row_ones` and `dest_ones()` are the source's and the
    /// destination's popcounts (folded ones when a filter was folded);
    /// `row_size` and `nj` are the exact set sizes. `dest_ones` is lazy
    /// so a tail that does not need it (AND, Limit) never loads it.
    fn tail(
        at: &BloomStratum<'_>,
        and_ones: usize,
        row_ones: usize,
        dest_ones: impl FnOnce() -> usize,
        row_size: u32,
        nj: u32,
    ) -> f64;
}

/// `|X∩Y|̂_AND` (Eq. 2) — the paper's default.
pub struct BloomAnd;

/// `|X∩Y|̂_L` (Eq. 4) — better on very dense graphs (§VIII-B).
pub struct BloomLimit;

/// `|X∩Y|̂_OR` (Eq. 29) — the prior-work estimator, for comparison.
pub struct BloomOr;

impl BloomStrategy for BloomAnd {
    #[inline]
    fn tail(
        at: &BloomStratum<'_>,
        and_ones: usize,
        _: usize,
        _: impl FnOnce() -> usize,
        _: u32,
        _: u32,
    ) -> f64 {
        at.swamidass(and_ones)
    }
}

impl BloomStrategy for BloomLimit {
    #[inline]
    fn tail(
        at: &BloomStratum<'_>,
        and_ones: usize,
        _: usize,
        _: impl FnOnce() -> usize,
        _: u32,
        _: u32,
    ) -> f64 {
        // Eq. 4 depends only on `B_{X∩Y,1}` and `b` — width-free.
        estimators::bf_intersect_limit(and_ones, at.num_hashes())
    }
}

impl BloomStrategy for BloomOr {
    #[inline]
    fn tail(
        at: &BloomStratum<'_>,
        and_ones: usize,
        row_ones: usize,
        dest_ones: impl FnOnce() -> usize,
        row_size: u32,
        nj: u32,
    ) -> f64 {
        let or_ones = row_ones + dest_ones() - and_ones;
        (row_size + nj) as f64 - at.swamidass(or_ones)
    }
}

/// One Bloom sweep for [`sweep_lanes`]: the pinned source window `row`
/// against destination windows of one comparison width, each finished by
/// `S`'s tail at that width's stratum.
struct BloomLanes<'w, S, W, O> {
    row: &'w [u64],
    row_ones: usize,
    row_size: u32,
    at: BloomStratum<'w>,
    sizes: &'w [u32],
    /// Destination `j`'s window at the comparison width.
    window: W,
    /// Destination `j`'s popcount at the comparison width.
    dest_ones: O,
    strategy: PhantomData<S>,
}

impl<'w, S, W, O> LaneSweep for BloomLanes<'w, S, W, O>
where
    S: BloomStrategy,
    W: Fn(usize) -> &'w [u64],
    O: Fn(usize) -> usize,
{
    type Stat = usize;

    #[inline]
    fn prefetch(&self, j: usize) {
        prefetch_slice((self.window)(j));
    }

    #[inline]
    fn lanes<const L: usize>(&self, js: [usize; L]) -> [usize; L] {
        and_count_words_multi(self.row, js.map(|j| (self.window)(j)))
    }

    #[inline]
    fn one(&self, j: usize) -> usize {
        and_count_words(self.row, (self.window)(j))
    }

    #[inline]
    fn finish(&self, and_ones: usize, j: usize) -> f64 {
        S::tail(
            &self.at,
            and_ones,
            self.row_ones,
            || (self.dest_ones)(j),
            self.row_size,
            self.sizes[j],
        )
    }
}

/// Oracle over a [`BloomCollection`], specialized per estimator via the
/// zero-sized [`BloomStrategy`] parameter.
pub struct BloomOracle<'a, S: BloomStrategy> {
    col: &'a BloomCollectionIn<'a>,
    sizes: &'a [u32],
    /// A uniform store's flat view of itself and its one stratum,
    /// resolved once instead of per row or tile segment.
    uniform: Option<(BloomFlatView<'a>, BloomStratum<'a>)>,
    _strategy: PhantomData<S>,
}

impl<'a, S: BloomStrategy> BloomOracle<'a, S> {
    /// Wraps a collection plus the exact set sizes recorded at build time.
    #[inline]
    pub fn new(col: &'a BloomCollectionIn<'a>, sizes: &'a [u32]) -> Self {
        BloomOracle {
            col,
            sizes,
            uniform: col
                .geometry()
                .is_uniform()
                .then(|| (col.base_view(), col.stratum(0))),
            _strategy: PhantomData,
        }
    }

    /// A sweep of set `i`'s pinned window `row` (popcount `row_ones`)
    /// against the destinations' `window`s and popcounts `dest_ones`,
    /// with tails at stratum `at`.
    #[inline]
    fn lanes<'w, W, O>(
        &'w self,
        i: usize,
        (row, row_ones): (&'w [u64], usize),
        at: BloomStratum<'w>,
        window: W,
        dest_ones: O,
    ) -> BloomLanes<'w, S, W, O> {
        BloomLanes {
            row,
            row_ones,
            row_size: self.sizes[i],
            at,
            sizes: self.sizes,
            window,
            dest_ones,
            strategy: PhantomData,
        }
    }

    /// The row sweep behind both [`IntersectionOracle::estimate_row_into`]
    /// and the tiled [`IntersectionOracle::estimate_block_into`]; `dist`
    /// is the prefetch distance of the flat base-view sweep.
    ///
    /// A narrowest-width source (every source of a uniform store, and the
    /// bulk of every row under a skewed assignment) compares every
    /// destination at its own width, so the whole row is one flat pass
    /// over [`BloomCollectionIn::base_view`]: no run grouping (runs in
    /// hub-heavy destination lists are too short to fill lanes) and no
    /// per-destination geometry resolution. A wider source walks the row
    /// in runs of equal destination stratum, each one equal-width sweep
    /// at the narrower of the two widths. Cross-width runs read
    /// *precomputed* folded shadows from the lazily built
    /// [`pg_sketch::BloomFoldCache`] — the source's shadow when the run
    /// is narrower, the destinations' shadows when it is wider — so no
    /// sweep folds per destination. Values are bit-identical to the
    /// pairwise [`IntersectionOracle::estimate`], whose cross-stratum
    /// path folds the wider filter to exactly these shadow words.
    #[inline]
    fn sweep_row(&self, v: VertexId, us: &[VertexId], out: &mut [f64], dist: usize) {
        let col = self.col;
        let i = v as usize;
        let src = (col.words(i), col.count_ones(i));
        let (view, at) = match self.uniform {
            Some(flat) => flat,
            None => {
                let si = col.stratum_of(i);
                let widths = col.geometry().widths();
                if widths.iter().any(|&w| w < widths[si]) {
                    return self.sweep_runs(i, si, src, us, out);
                }
                (col.base_view(), col.stratum(si))
            }
        };
        let k = self.lanes(i, src, at, |j| view.window(j), |j| view.ones(j));
        sweep_lanes(&k, us, out, dist);
    }

    /// The wider-source half of [`BloomOracle::sweep_row`]: one
    /// equal-width sweep per run of equal destination stratum.
    fn sweep_runs(
        &self,
        i: usize,
        si: usize,
        src: (&[u64], usize),
        us: &[VertexId],
        out: &mut [f64],
    ) {
        let col = self.col;
        let widths = col.geometry().widths();
        let wi = widths[si];
        let cache = col.fold_cache();
        for (sj, run) in stratum_runs(us, |j| col.stratum_of(j)) {
            let (us, out) = (&us[run.clone()], &mut out[run]);
            let wj = widths[sj];
            if wj > wi {
                let shadow = |j| cache.shadow(j, sj, si);
                let at = col.stratum(si);
                let k = self.lanes(i, src, at, |j| shadow(j).0, |j| shadow(j).1);
                sweep_lanes(&k, us, out, 0);
            } else {
                // Equal widths compare raw windows with the tail at the
                // source's stratum — the pairwise tie-break.
                let (src, s) = if wj == wi {
                    (src, si)
                } else {
                    (cache.shadow(i, si, sj), sj)
                };
                let at = col.stratum(s);
                let k = self.lanes(i, src, at, |j| col.words(j), |j| col.count_ones(j));
                sweep_lanes(&k, us, out, 0);
            }
        }
    }
}

impl<S: BloomStrategy> IntersectionOracle for BloomOracle<'_, S> {
    #[inline]
    fn set_size(&self, v: VertexId) -> u32 {
        self.sizes[v as usize]
    }

    /// [`BloomCollectionIn::pair_stats`] followed by the strategy's tail.
    #[inline]
    fn estimate(&self, u: VertexId, v: VertexId) -> f64 {
        let (i, j) = (u as usize, v as usize);
        let (p, s) = self.col.pair_stats(i, j);
        S::tail(
            &self.col.stratum(s),
            p.and_ones,
            p.a_ones,
            || p.b_ones,
            self.sizes[i],
            self.sizes[j],
        )
    }

    /// Multi-lane row sweep: the source word window, cached popcount, and
    /// exact size are pinned once, then `sweep_lanes` runs destinations
    /// through the fused AND+popcount kernel four at a time. A uniform
    /// store's windows are prefetched by `l2_prefetch_distance`; a
    /// stratified store's sweeps do not prefetch.
    #[inline]
    fn estimate_row_into(&self, v: VertexId, us: &[VertexId], out: &mut [f64]) {
        let dist = if self.col.geometry().is_uniform() {
            l2_prefetch_distance(self.col.words_per_set() * 8, self.sizes.len())
        } else {
            0
        };
        self.sweep_row(v, us, out, dist);
    }

    #[inline]
    fn dest_window_bytes(&self) -> Option<usize> {
        if !self.col.geometry().is_uniform() {
            // No single window stride exists under per-stratum widths; the
            // tiling planner declines and kernels keep the plain row sweep.
            return None;
        }
        Some(self.col.words_per_set() * 8)
    }

    /// Tiled block sweep: each batch source runs the row sweep over its
    /// in-tile destination segment with software prefetch off — the whole
    /// point of the blocked schedule is that the destination tile is
    /// already cache-resident across the source batch, so per-segment
    /// prefetch would be pure instruction overhead on segments a few
    /// destinations long. While one segment is swept, the *next* source's
    /// word window is prefetched — the one fill the per-segment sweep
    /// cannot overlap itself. Values are bit-identical to
    /// [`IntersectionOracle::estimate_row_into`] over the same segments.
    #[inline]
    fn estimate_block_into(
        &self,
        sources: &[VertexId],
        seg_offsets: &[usize],
        us: &[VertexId],
        out: &mut [f64],
    ) {
        debug_assert_eq!(seg_offsets.len(), sources.len() + 1);
        debug_assert_eq!(us.len(), out.len());
        for (s, &v) in sources.iter().enumerate() {
            if let Some(&next) = sources.get(s + 1) {
                prefetch_slice(self.col.words(next as usize));
            }
            let (lo, hi) = (seg_offsets[s], seg_offsets[s + 1]);
            self.sweep_row(v, &us[lo..hi], &mut out[lo..hi], 0);
        }
    }

    #[inline]
    fn estimate_vs_members(&self, w: VertexId, members: &[u32]) -> f64 {
        // Membership queries: no false negatives, small fp inflation.
        let wi = w as usize;
        members
            .iter()
            .filter(|&&x| self.col.contains(wi, x))
            .count() as f64
    }

    /// Rank-suffix membership: members are ordered by rank and hashed
    /// once each; the `t`-th member's filter is then probed only with
    /// members `t+1..`, reducing each raw hash at that filter's own width
    /// — bit-identical to [`BloomCollectionIn::contains`]. The skipped
    /// members rank below `w`, so they can only be false positives: the
    /// sum drops those and never a true member (Bloom filters have no
    /// false negatives). Integer hits, so the sum is exact in `f64`.
    fn accumulate_member_sum(
        &self,
        members: &[u32],
        rank: &[u32],
        scratch: &mut MemberScratch,
        acc: &mut f64,
    ) {
        let col = self.col;
        let b = col.num_hashes();
        let MemberScratch { by_rank, hashes } = scratch;
        by_rank.clear();
        by_rank.extend(
            members
                .iter()
                .map(|&x| u64::from(rank[x as usize]) << 32 | u64::from(x)),
        );
        by_rank.sort_unstable();
        hashes.resize(by_rank.len() * b, 0);
        for (&key, h) in by_rank.iter().zip(hashes.chunks_exact_mut(b)) {
            col.hashes_into(key as u32, h);
        }
        let mut hits = 0usize;
        for (t, &key) in by_rank.iter().enumerate() {
            let words = col.words(key as u32 as usize);
            let bits = words.len() as u64 * 64;
            for h in hashes[(t + 1) * b..].chunks_exact(b) {
                let all_set = h.iter().fold(true, |all, &h| {
                    let pos = ((u64::from(h) * bits) >> 32) as usize;
                    all & ((words[pos / 64] >> (pos % 64)) & 1 == 1)
                });
                hits += usize::from(all_set);
            }
        }
        *acc += hits as f64;
    }
}

// ---------------------------------------------------------------------------
// MinHash (k-hash), bottom-k (1-hash), KMV, HyperLogLog
// ---------------------------------------------------------------------------

/// Oracle over a k-hash [`MinHashCollection`] (§IV-C): native Jaccard,
/// Eq. (5) intersection with exact sizes.
pub struct KHashOracle<'a> {
    col: &'a MinHashCollectionIn<'a>,
    sizes: &'a [u32],
}

impl<'a> KHashOracle<'a> {
    /// Wraps a collection plus the exact set sizes.
    #[inline]
    pub fn new(col: &'a MinHashCollectionIn<'a>, sizes: &'a [u32]) -> Self {
        KHashOracle { col, sizes }
    }
}

impl IntersectionOracle for KHashOracle<'_> {
    #[inline]
    fn set_size(&self, v: VertexId) -> u32 {
        self.sizes[v as usize]
    }

    #[inline]
    fn estimate(&self, u: VertexId, v: VertexId) -> f64 {
        let (i, j) = (u as usize, v as usize);
        self.col
            .estimate_intersection(i, j, self.sizes[i] as usize, self.sizes[j] as usize)
    }

    /// Multi-lane row sweep: the source signature and exact size are
    /// pinned once; destinations go two per fused compare sweep
    /// ([`MinHashCollection::matches_with_row_x2`] — `vpcmpeqd` against
    /// both destinations per source vector load on AVX-512), scalar
    /// pinned matching on the odd tail. Cross-stratum pairs compare (and
    /// divide by) the shared slot prefix `min(k_i, k_j)` — the narrower
    /// stratum's exact signature, by the hash family's prefix property.
    #[inline]
    fn estimate_row_into(&self, v: VertexId, us: &[VertexId], out: &mut [f64]) {
        let i = v as usize;
        let row = self.col.signature(i);
        let ni = self.sizes[i] as usize;
        let ki = self.col.k_of(i);
        let finish = |m: usize, j: usize| {
            estimators::jaccard_to_intersection(
                estimators::mh_jaccard(m, ki.min(self.col.k_of(j))),
                ni,
                self.sizes[j] as usize,
            )
        };
        let mut t = 0;
        while t + 2 <= us.len() {
            let (j0, j1) = (us[t] as usize, us[t + 1] as usize);
            let (m0, m1) = self.col.matches_with_row_x2(row, j0, j1);
            out[t] = finish(m0, j0);
            out[t + 1] = finish(m1, j1);
            t += 2;
        }
        if t < us.len() {
            let j = us[t] as usize;
            out[t] = finish(self.col.matches_with_row(row, j), j);
        }
    }

    #[inline]
    fn jaccard(&self, u: VertexId, v: VertexId) -> f64 {
        self.col.estimate_jaccard(u as usize, v as usize)
    }

    /// Native row Jaccard: same pinned two-lane matching as
    /// [`estimate_row_into`](IntersectionOracle::estimate_row_into), with
    /// the `Ĵ = matches/k` tail instead of the Eq. (5) transform.
    #[inline]
    fn jaccard_row_into(&self, v: VertexId, us: &[VertexId], out: &mut [f64]) {
        let row = self.col.signature(v as usize);
        let ki = self.col.k_of(v as usize);
        let mut t = 0;
        while t + 2 <= us.len() {
            let (j0, j1) = (us[t] as usize, us[t + 1] as usize);
            let (m0, m1) = self.col.matches_with_row_x2(row, j0, j1);
            out[t] = estimators::mh_jaccard(m0, ki.min(self.col.k_of(j0)));
            out[t + 1] = estimators::mh_jaccard(m1, ki.min(self.col.k_of(j1)));
            t += 2;
        }
        if t < us.len() {
            let j = us[t] as usize;
            out[t] =
                estimators::mh_jaccard(self.col.matches_with_row(row, j), ki.min(self.col.k_of(j)));
        }
    }

    #[inline]
    fn estimate_vs_members(&self, w: VertexId, members: &[u32]) -> f64 {
        // Each signature slot is a uniform-ish sample of the set; the hit
        // fraction estimates `|N_w ∩ C| / |N_w|`.
        let wi = w as usize;
        let sig = self.col.signature(wi);
        let hits = sig
            .iter()
            .filter(|&&x| members.binary_search(&x).is_ok())
            .count();
        let d = self.sizes[wi];
        if d == 0 {
            return 0.0;
        }
        hits as f64 / sig.len() as f64 * d as f64
    }
}

/// Oracle over a bottom-k [`BottomKCollection`] (§IV-D): union-restricted
/// match counting, lossless shortcut for small sets.
pub struct OneHashOracle<'a> {
    col: &'a BottomKCollectionIn<'a>,
    sizes: &'a [u32],
}

impl<'a> OneHashOracle<'a> {
    /// Wraps a collection plus the exact set sizes.
    #[inline]
    pub fn new(col: &'a BottomKCollectionIn<'a>, sizes: &'a [u32]) -> Self {
        OneHashOracle { col, sizes }
    }
}

impl IntersectionOracle for OneHashOracle<'_> {
    #[inline]
    fn set_size(&self, v: VertexId) -> u32 {
        self.sizes[v as usize]
    }

    #[inline]
    fn estimate(&self, u: VertexId, v: VertexId) -> f64 {
        self.col.estimate_intersection(u as usize, v as usize)
    }

    /// Row sweep with the source sample, its precomputed hashes, and the
    /// exact size pinned once per row; destinations are processed two per
    /// step through the lockstep-interleaved branchless merge walk
    /// (two comparison chains overlap instead of serializing), scalar on
    /// the odd tail.
    #[inline]
    fn estimate_row_into(&self, v: VertexId, us: &[VertexId], out: &mut [f64]) {
        let i = v as usize;
        let a = self.col.sample(i);
        let ah = self.col.sample_hashes(i);
        let ni = self.col.set_size(i);
        let ka = self.col.cap_of(i);
        let mut t = 0;
        while t + 2 <= us.len() {
            let (e0, e1) = self.col.estimate_intersection_with_row_x2(
                a,
                ah,
                ni,
                ka,
                us[t] as usize,
                us[t + 1] as usize,
            );
            out[t] = e0;
            out[t + 1] = e1;
            t += 2;
        }
        if t < us.len() {
            out[t] = self
                .col
                .estimate_intersection_with_row(a, ah, ni, ka, us[t] as usize);
        }
    }

    #[inline]
    fn jaccard(&self, u: VertexId, v: VertexId) -> f64 {
        self.col.estimate_jaccard(u as usize, v as usize)
    }

    /// Native row Jaccard with the source sample pinned.
    #[inline]
    fn jaccard_row_into(&self, v: VertexId, us: &[VertexId], out: &mut [f64]) {
        let i = v as usize;
        let a = self.col.sample(i);
        let ah = self.col.sample_hashes(i);
        let ni = self.col.set_size(i);
        let ka = self.col.cap_of(i);
        for (o, &u) in out.iter_mut().zip(us) {
            *o = self
                .col
                .estimate_jaccard_with_row(a, ah, ni, ka, u as usize);
        }
    }

    #[inline]
    fn estimate_vs_members(&self, w: VertexId, members: &[u32]) -> f64 {
        let wi = w as usize;
        let sample = self.col.sample(wi);
        let d = self.sizes[wi] as usize;
        if sample.is_empty() || d == 0 {
            return 0.0;
        }
        let hits = sample
            .iter()
            .filter(|&&x| members.binary_search(&x).is_ok())
            .count();
        let k = self.col.cap_of(wi);
        if d <= k {
            hits as f64 // lossless sample: exact
        } else {
            hits as f64 * d as f64 / k as f64
        }
    }
}

/// Oracle over a [`KmvCollection`] (§IX): the low-variance
/// union-membership estimator. Stores hash values, so it cannot answer
/// explicit-member queries (4-clique counting rejects it).
pub struct KmvOracle<'a> {
    col: &'a KmvCollectionIn<'a>,
    sizes: &'a [u32],
}

impl<'a> KmvOracle<'a> {
    /// Wraps a collection plus the exact set sizes.
    #[inline]
    pub fn new(col: &'a KmvCollectionIn<'a>, sizes: &'a [u32]) -> Self {
        KmvOracle { col, sizes }
    }
}

impl IntersectionOracle for KmvOracle<'_> {
    #[inline]
    fn set_size(&self, v: VertexId) -> u32 {
        self.sizes[v as usize]
    }

    #[inline]
    fn estimate(&self, u: VertexId, v: VertexId) -> f64 {
        self.col.estimate_intersection(u as usize, v as usize)
    }

    /// Row sweep with the source sketch pinned once; destinations are
    /// processed two per step through the lockstep-interleaved merge walk
    /// (two data-dependent comparison chains overlap instead of
    /// serializing), scalar on the odd tail.
    #[inline]
    fn estimate_row_into(&self, v: VertexId, us: &[VertexId], out: &mut [f64]) {
        let s = self.col.sketch(v as usize);
        let mut t = 0;
        while t + 2 <= us.len() {
            let (e0, e1) = s.estimate_intersection_x2(
                self.col.sketch(us[t] as usize),
                self.col.sketch(us[t + 1] as usize),
            );
            out[t] = e0;
            out[t + 1] = e1;
            t += 2;
        }
        if t < us.len() {
            out[t] = s.estimate_intersection(self.col.sketch(us[t] as usize));
        }
    }
}

/// One HLL sweep for [`sweep_lanes`]: the pinned source register window
/// `row` against destination windows of its own width.
struct HllLanes<'a> {
    col: &'a HyperLogLogCollectionIn<'a>,
    row: &'a [u8],
    nx: usize,
    sizes: &'a [u32],
}

impl LaneSweep for HllLanes<'_> {
    type Stat = f64;

    #[inline]
    fn prefetch(&self, j: usize) {
        prefetch_slice(self.col.registers(j));
    }

    #[inline]
    fn lanes<const L: usize>(&self, js: [usize; L]) -> [f64; L] {
        self.col.union_estimates_multi(self.row, js)
    }

    /// Also folds a wider destination down to the row's precision.
    #[inline]
    fn one(&self, j: usize) -> f64 {
        self.col.union_estimate_with_row(self.row, j)
    }

    #[inline]
    fn finish(&self, union_est: f64, j: usize) -> f64 {
        HyperLogLogCollection::intersection_from_union(self.nx, self.sizes[j] as usize, union_est)
    }
}

/// Oracle over a [`HyperLogLogCollection`] — the §X "beyond BF and MH"
/// representation, reachable end-to-end through
/// [`crate::Representation::Hll`]. Intersection by inclusion–exclusion
/// against the exact sizes; like KMV it stores no elements, so
/// explicit-member queries are rejected.
pub struct HllOracle<'a> {
    col: &'a HyperLogLogCollectionIn<'a>,
    sizes: &'a [u32],
}

impl<'a> HllOracle<'a> {
    /// Wraps a collection plus the exact set sizes.
    #[inline]
    pub fn new(col: &'a HyperLogLogCollectionIn<'a>, sizes: &'a [u32]) -> Self {
        HllOracle { col, sizes }
    }

    /// A sweep of set `i`'s pinned register window `row`, raw or folded.
    #[inline]
    fn lanes<'r>(&'r self, i: usize, row: &'r [u8]) -> HllLanes<'r> {
        HllLanes {
            col: self.col,
            row,
            nx: self.sizes[i] as usize,
            sizes: self.sizes,
        }
    }
}

impl IntersectionOracle for HllOracle<'_> {
    #[inline]
    fn set_size(&self, v: VertexId) -> u32 {
        self.sizes[v as usize]
    }

    #[inline]
    fn estimate(&self, u: VertexId, v: VertexId) -> f64 {
        let (i, j) = (u as usize, v as usize);
        self.col
            .estimate_intersection(i, j, self.sizes[i] as usize, self.sizes[j] as usize)
    }

    /// Multi-lane row sweep: the source register window and exact size
    /// are pinned once, then `sweep_lanes` runs destinations through
    /// the fused register-max kernel four at a time (four independent
    /// harmonic-sum chains pipeline where the scalar pass is `f64`-add
    /// latency-bound). A uniform store's windows are prefetched by
    /// `l2_prefetch_distance`.
    ///
    /// On a stratified store, destinations are grouped into runs of equal
    /// stratum. The source window is folded down **once per narrower
    /// stratum** encountered ([`pg_sketch::fold_hll_registers_into`] —
    /// exact), so same-width and narrower runs are multi-lane sweeps;
    /// destinations in strata *wider* than the source fold one by one
    /// inside [`HyperLogLogCollection::union_estimate_with_row`] (scalar —
    /// wide strata hold only the top-degree sliver). Bit-identical to the
    /// pairwise [`IntersectionOracle::estimate`], whose cross-precision
    /// path performs exactly these folds.
    #[inline]
    fn estimate_row_into(&self, v: VertexId, us: &[VertexId], out: &mut [f64]) {
        let col = self.col;
        let i = v as usize;
        let raw_row = col.registers(i);
        if col.geometry().is_uniform() {
            let dist = l2_prefetch_distance(raw_row.len(), self.sizes.len());
            return sweep_lanes(&self.lanes(i, raw_row), us, out, dist);
        }
        let widths = col.geometry().widths();
        let p_i = col.precision_of(i) as u32;
        let mut folded: Vec<Option<Vec<u8>>> = vec![None; widths.len()];
        for (sj, run) in stratum_runs(us, |j| col.stratum_of(j)) {
            let (us, out) = (&us[run.clone()], &mut out[run]);
            let p_j = widths[sj].trailing_zeros();
            if p_j > p_i {
                let k = self.lanes(i, raw_row);
                for (o, &u) in out.iter_mut().zip(us) {
                    *o = k.finish(k.one(u as usize), u as usize);
                }
                continue;
            }
            let row: &[u8] = if p_j < p_i {
                folded[sj].get_or_insert_with(|| {
                    let mut w = Vec::with_capacity(1usize << p_j);
                    pg_sketch::fold_hll_registers_into(raw_row, p_i, p_j, &mut w);
                    w
                })
            } else {
                raw_row
            };
            sweep_lanes(&self.lanes(i, row), us, out, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_graph::gen;
    use pg_sketch::{BloomCollection, KmvCollection, SetGeometry};

    #[test]
    fn exact_oracle_matches_direct_intersection() {
        let g = gen::kronecker(8, 8, 3);
        let o = ExactOracle::new(&g);
        for (u, v) in g.edges().take(200) {
            let want = intersect_card(g.neighbors(u), g.neighbors(v)) as f64;
            assert_eq!(o.estimate(u, v), want);
            assert_eq!(o.set_size(u) as usize, g.degree(u));
        }
    }

    #[test]
    fn exact_oracle_row_matches_pairwise() {
        let g = gen::erdos_renyi_gnm(100, 1500, 5);
        let dag = pg_graph::orient_by_degree(&g);
        let o = ExactOracle::new(&dag);
        let mut row = Vec::new();
        for v in 0..g.num_vertices() as u32 {
            let np = dag.neighbors_plus(v);
            o.estimate_row(v, np, &mut row);
            assert_eq!(row.len(), np.len());
            for (t, &u) in np.iter().enumerate() {
                assert_eq!(row[t], o.estimate(v, u));
            }
        }
    }

    #[test]
    fn exact_oracle_jaccard_matches_definition() {
        let g = gen::kronecker(7, 8, 1);
        let o = ExactOracle::new(&g);
        for (u, v) in g.edges().take(100) {
            let inter = intersect_card(g.neighbors(u), g.neighbors(v)) as f64;
            let union = (g.degree(u) + g.degree(v)) as f64 - inter;
            let want = if union <= 0.0 { 0.0 } else { inter / union };
            assert!((o.jaccard(u, v) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn bloom_row_path_is_bit_identical_to_pairwise() {
        let g = gen::erdos_renyi_gnm(150, 3000, 9);
        let sets: Vec<&[u32]> = (0..g.num_vertices())
            .map(|v| g.neighbors(v as u32))
            .collect();
        let col = BloomCollection::build(sets.len(), 512, 2, 7, |i| sets[i]);
        let sizes: Vec<u32> = sets.iter().map(|s| s.len() as u32).collect();
        let us: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let mut row = Vec::new();
        fn check<S: BloomStrategy>(
            col: &BloomCollection,
            sizes: &[u32],
            us: &[u32],
            row: &mut Vec<f64>,
        ) {
            let o = BloomOracle::<S>::new(col, sizes);
            for v in 0..sizes.len() as u32 {
                o.estimate_row(v, us, row);
                for (t, &u) in us.iter().enumerate() {
                    assert_eq!(row[t], o.estimate(v, u), "v={v} u={u}");
                }
            }
        }
        check::<BloomAnd>(&col, &sizes, &us, &mut row);
        check::<BloomLimit>(&col, &sizes, &us, &mut row);
        check::<BloomOr>(&col, &sizes, &us, &mut row);
    }

    /// Two stratum assignments for the stratified sweep tests: `i % 3`
    /// makes every same-stratum run of an ascending row one destination
    /// long, and `(i / 7) % 3` makes runs seven long, so every run kind
    /// also reaches its 4-, 2- and 1-lane groups.
    fn strata_assignments(n: usize, strata: usize) -> [Vec<u8>; 2] {
        [
            (0..n).map(|i| (i % strata) as u8).collect(),
            (0..n).map(|i| ((i / 7) % 3) as u8).collect(),
        ]
    }

    #[test]
    fn stratified_bloom_row_path_is_bit_identical_to_pairwise() {
        let g = gen::erdos_renyi_gnm(150, 3000, 9);
        let sets: Vec<&[u32]> = (0..g.num_vertices())
            .map(|v| g.neighbors(v as u32))
            .collect();
        for assign in strata_assignments(sets.len(), 3) {
            let geom = SetGeometry::stratified(vec![8, 4, 2], assign);
            let col = BloomCollection::build_on(geom, 2, 7, |i| sets[i]);
            assert!(!col.geometry().is_uniform(), "expected a stratified build");
            let sizes: Vec<u32> = sets.iter().map(|s| s.len() as u32).collect();
            let us: Vec<u32> = (0..g.num_vertices() as u32).collect();
            let mut row = Vec::new();
            check::<BloomAnd>(&col, &sizes, &us, &mut row);
            check::<BloomLimit>(&col, &sizes, &us, &mut row);
            check::<BloomOr>(&col, &sizes, &us, &mut row);
        }
        fn check<S: BloomStrategy>(
            col: &BloomCollection,
            sizes: &[u32],
            us: &[u32],
            row: &mut Vec<f64>,
        ) {
            let o = BloomOracle::<S>::new(col, sizes);
            assert_eq!(o.dest_window_bytes(), None);
            for v in 0..sizes.len() as u32 {
                o.estimate_row(v, us, row);
                for (t, &u) in us.iter().enumerate() {
                    assert_eq!(row[t], o.estimate(v, u), "v={v} u={u}");
                }
            }
        }
    }

    #[test]
    fn stratified_bloom_block_path_matches_row_path() {
        let g = gen::erdos_renyi_gnm(120, 2000, 11);
        let sets: Vec<&[u32]> = (0..g.num_vertices())
            .map(|v| g.neighbors(v as u32))
            .collect();
        let sizes: Vec<u32> = sets.iter().map(|s| s.len() as u32).collect();
        let [by_two, by_sevens] = strata_assignments(sets.len(), 2);
        // Under the second assignment, source 0 is in the widest stratum,
        // 9 in the narrowest and 15 in the middle one.
        for (widths, assign, sources) in [
            (vec![4, 1], by_two, [0u32, 5, 9]),
            (vec![4, 1, 2], by_sevens, [0, 9, 15]),
        ] {
            let geom = SetGeometry::stratified(widths, assign);
            let col = BloomCollection::build_on(geom, 2, 3, |i| sets[i]);
            let o = BloomOracle::<BloomAnd>::new(&col, &sizes);
            let us: Vec<u32> = (0..40u32).chain(50..70).chain(10..30).collect();
            let seg_offsets = [0usize, 40, 60, us.len()];
            let mut block = Vec::new();
            o.estimate_block(&sources, &seg_offsets, &us, &mut block);
            let mut row = Vec::new();
            for (s, &v) in sources.iter().enumerate() {
                let (lo, hi) = (seg_offsets[s], seg_offsets[s + 1]);
                o.estimate_row(v, &us[lo..hi], &mut row);
                assert_eq!(&block[lo..hi], &row[..], "source {v}");
                for (t, &u) in us[lo..hi].iter().enumerate() {
                    assert_eq!(row[t], o.estimate(v, u), "v={v} u={u}");
                }
            }
        }
    }

    #[test]
    fn stratified_khash_and_hll_row_paths_match_pairwise() {
        let g = gen::erdos_renyi_gnm(140, 2600, 21);
        let sets: Vec<&[u32]> = (0..g.num_vertices())
            .map(|v| g.neighbors(v as u32))
            .collect();
        let sizes: Vec<u32> = sets.iter().map(|s| s.len() as u32).collect();
        let us: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let mut row = Vec::new();
        for assign in strata_assignments(sets.len(), 3) {
            let geom = SetGeometry::stratified(vec![64, 32, 16], assign.clone());
            let mh = pg_sketch::MinHashCollection::build_on(geom, 5, |i| sets[i]);
            assert!(!mh.geometry().is_uniform(), "expected a stratified build");
            let o = KHashOracle::new(&mh, &sizes);
            for v in 0..sizes.len() as u32 {
                o.estimate_row(v, &us, &mut row);
                for (t, &u) in us.iter().enumerate() {
                    assert_eq!(row[t], o.estimate(v, u), "kh est v={v} u={u}");
                }
                o.jaccard_row(v, &us, &mut row);
                for (t, &u) in us.iter().enumerate() {
                    assert_eq!(row[t], o.jaccard(v, u), "kh jac v={v} u={u}");
                }
            }

            let geom = SetGeometry::stratified(vec![1 << 8, 1 << 6, 1 << 4], assign);
            let hll = HyperLogLogCollection::build_on(geom, 5, |i| sets[i]);
            assert!(!hll.geometry().is_uniform(), "expected a stratified build");
            let o = HllOracle::new(&hll, &sizes);
            assert_eq!(o.dest_window_bytes(), None);
            for v in 0..sizes.len() as u32 {
                o.estimate_row(v, &us, &mut row);
                for (t, &u) in us.iter().enumerate() {
                    assert_eq!(row[t], o.estimate(v, u), "hll v={v} u={u}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "explicit member list")]
    fn kmv_oracle_rejects_member_queries() {
        let sets = [vec![1u32, 2, 3]];
        let col = KmvCollection::build(1, 8, 1, |i| &sets[i][..]);
        let sizes = [3u32];
        KmvOracle::new(&col, &sizes).estimate_vs_members(0, &[1, 2]);
    }
}
