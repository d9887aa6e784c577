//! The ProbGraph representation (§V of the paper).
//!
//! A [`ProbGraph`] is a collection of probabilistic sketches, one per
//! vertex set (full neighborhoods `N_v`, or oriented out-neighborhoods
//! `N⁺_v` for the clique algorithms), built under a storage budget
//! `s ∈ [0, 1]` relative to the CSR footprint. The user picks a
//! [`Representation`] and, for Bloom filters, a [`BfEstimator`]; the paper
//! shows no single choice wins everywhere (§VIII-B).

use crate::oracle::{
    fail_remove_unsupported, BloomAnd, BloomLimit, BloomOr, BloomOracle, HllOracle,
    IntersectionOracle, KHashOracle, KmvOracle, MutableOracle, OneHashOracle, OracleVisitor,
    UnsupportedOperation,
};
use pg_graph::{CsrGraph, OrientedDag, VertexId};
use pg_sketch::{
    BloomCollection, BloomCollectionIn, BottomKCollection, BottomKCollectionIn, BudgetPlan,
    CountingBloomCollection, CountingBloomCollectionIn, HyperLogLogCollection,
    HyperLogLogCollectionIn, KmvCollection, KmvCollectionIn, MinHashCollection,
    MinHashCollectionIn, SketchParams, StrataSpec, StratifiedParams, StratifiedPlan,
};
use std::borrow::Cow;

/// Which probabilistic set representation backs the ProbGraph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Representation {
    /// Bloom filters with `b` hash functions (§IV-B).
    Bloom {
        /// Number of hash functions; the paper finds `b ∈ {1, 2}` best.
        b: usize,
    },
    /// Counting Bloom filters with `b` hash functions — the same derived
    /// read view (and estimators) as [`Representation::Bloom`], with
    /// per-bucket saturating counters paying for a real deletion path
    /// ([`crate::oracle::MutableOracle::remove_edge`] /
    /// [`ProbGraph::remove_batch`]). The counter width is charged against
    /// the storage budget, so a counting filter gets ~5× fewer buckets
    /// than a plain one at the same `s`.
    CountingBloom {
        /// Number of hash functions, as for [`Representation::Bloom`].
        b: usize,
    },
    /// k-hash MinHash (§IV-C) — the MLE estimator with exponential bounds.
    KHash,
    /// 1-hash / bottom-k MinHash (§IV-D) — cheapest construction.
    OneHash,
    /// K-Minimum-Values (§IX).
    Kmv,
    /// HyperLogLog (§X's "beyond BF and MH" extension).
    Hll,
}

/// Which Bloom-filter intersection estimator to evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BfEstimator {
    /// `|X∩Y|̂_AND` (Eq. 2) — the paper's default.
    #[default]
    And,
    /// `|X∩Y|̂_L` (Eq. 4) — better on very dense graphs (§VIII-B).
    Limit,
    /// `|X∩Y|̂_OR` (Eq. 29) — the prior-work estimator, for comparison.
    Or,
}

/// Configuration for [`ProbGraph::build`] — mirrors
/// `ProbGraph(g, BF, 0.25)` from Listing 6.
#[derive(Clone, Debug)]
pub struct PgConfig {
    /// The chosen representation.
    pub representation: Representation,
    /// Storage budget `s ∈ [0, 1]` as a fraction of the CSR bytes (§V-A).
    pub budget: f64,
    /// Master RNG seed for all hash functions.
    pub seed: u64,
    /// Bloom estimator variant (ignored for MinHash/KMV).
    pub bf_estimator: BfEstimator,
    /// Degree-stratification spec: `Some` resolves the budget per degree
    /// quantile ([`StratifiedPlan`]) so heavy-tail vertices get wider
    /// sketches under the **same total budget**; `None` (the default)
    /// keeps the uniform geometry. A one-stratum spec resolves
    /// bit-identically to `None`.
    pub strata: Option<StrataSpec>,
}

impl PgConfig {
    /// A configuration with the default seed and the AND estimator.
    pub fn new(representation: Representation, budget: f64) -> Self {
        PgConfig {
            representation,
            budget,
            seed: 0xC0FF_EE00,
            bf_estimator: BfEstimator::And,
            strata: None,
        }
    }

    /// A degree-stratified configuration: the same total budget as
    /// [`PgConfig::new`], split per degree quantile according to `spec`
    /// (see [`StrataSpec::skewed_default`] for the paper-motivated
    /// heavy-tail split).
    pub fn stratified(representation: Representation, budget: f64, spec: StrataSpec) -> Self {
        Self::new(representation, budget).with_strata(spec)
    }

    /// Overrides the hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the Bloom estimator variant.
    pub fn with_bf_estimator(mut self, e: BfEstimator) -> Self {
        self.bf_estimator = e;
        self
    }

    /// Overrides the stratification spec.
    pub fn with_strata(mut self, spec: StrataSpec) -> Self {
        self.strata = Some(spec);
        self
    }
}

/// An undirected edge, as consumed by [`ProbGraph::apply_batch`].
pub type Edge = (VertexId, VertexId);

/// The per-set sketches backing a [`ProbGraph`]. The lifetime tracks
/// copy-on-write backing storage: an owned store ([`SketchStore`], the
/// `'static` alias) carries its arrays in `Vec`s, while a borrowed one
/// serves a validated snapshot buffer in place (the zero-copy load path,
/// [`crate::snapshot::ProbGraphIn`] borrowing semantics).
#[derive(Clone, Debug)]
pub enum SketchStoreIn<'a> {
    /// Flat Bloom filters.
    Bloom(BloomCollectionIn<'a>),
    /// Counting Bloom filters (packed counters + derived Bloom view).
    CountingBloom(CountingBloomCollectionIn<'a>),
    /// Flat k-hash signatures.
    KHash(MinHashCollectionIn<'a>),
    /// Flat bottom-k samples.
    OneHash(BottomKCollectionIn<'a>),
    /// KMV sketches.
    Kmv(KmvCollectionIn<'a>),
    /// HyperLogLog register arrays.
    Hll(HyperLogLogCollectionIn<'a>),
}

/// The owned (`'static`) form of [`SketchStoreIn`].
pub type SketchStore = SketchStoreIn<'static>;

/// Matches a [`SketchStoreIn`] (by value or by reference) and evaluates
/// `$body` with `$c` bound to the concrete collection — the **one** list
/// of the six variants behind every store-level operation that treats the
/// collections alike. Only code that differs per representation matches
/// by hand: the read side ([`ProbGraphIn::with_oracle`]), construction
/// from resolved params (`build_store`), removals (counting Bloom only)
/// and the snapshot codec (`crate::snapshot`). Inside `$body`, `Same`
/// names the matched variant, so a body can rewrap a result
/// (`Same(c.into_owned())`) or pick the same variant out of another store.
macro_rules! each_store {
    ($store:expr, $c:ident => $body:expr) => {
        each_store!(@arms $store, $c, $body, Bloom CountingBloom KHash OneHash Kmv Hll)
    };
    (@arms $store:expr, $c:ident, $body:expr, $($variant:ident)*) => {
        match $store {
            $(SketchStoreIn::$variant($c) => {
                #[allow(unused_imports)]
                use SketchStoreIn::$variant as Same;
                $body
            })*
        }
    };
}

impl<'a> SketchStoreIn<'a> {
    /// Detaches the store from any borrowed snapshot buffer, cloning the
    /// backing arrays if they were served in place. No-op for owned data.
    pub fn into_owned(self) -> SketchStore {
        each_store!(self, c => Same(c.into_owned()))
    }
}

/// The probabilistic graph representation: one sketch per vertex set plus
/// the exact set sizes (degrees are free in CSR, and the MinHash/OR
/// estimators use them). Like [`SketchStoreIn`], the lifetime tracks
/// copy-on-write backing storage; the owned alias [`ProbGraph`] is the
/// ordinary built form, a borrowed graph serves a snapshot buffer in
/// place.
#[derive(Clone, Debug)]
pub struct ProbGraphIn<'a> {
    store: SketchStoreIn<'a>,
    sizes: Cow<'a, [u32]>,
    bf_estimator: BfEstimator,
    /// The resolved per-stratum parameter table and per-set assignment —
    /// one stratum and no assignment array on the uniform layout.
    params: StratifiedParams,
    /// The master hash seed the sketches were built under. The collections
    /// only retain their derived [`pg_hash::HashFamily`] seeds, so the
    /// master is recorded here — snapshots persist it, and a reloaded
    /// store hashes identically to the one that was saved.
    seed: u64,
}

/// The owned (`'static`) form of [`ProbGraphIn`].
pub type ProbGraph = ProbGraphIn<'static>;

impl<'a> ProbGraphIn<'a> {
    /// Builds sketches of the full neighborhoods `N_v` of `g`
    /// (Listing 6: `ProbGraph pg = ProbGraph(g, BF, 0.25)`).
    pub fn build(g: &CsrGraph, cfg: &PgConfig) -> ProbGraph {
        Self::build_over(
            g.num_vertices(),
            g.memory_bytes(),
            |v| g.neighbors(v as VertexId),
            cfg,
        )
    }

    /// Builds sketches of the oriented out-neighborhoods `N⁺_v` of a
    /// degree-ordered DAG — the sets Triangle/4-Clique Counting intersect
    /// (Listings 1–2). `base_bytes` should be the CSR footprint of the
    /// original graph so the budget means the same thing as in
    /// [`ProbGraph::build`].
    pub fn build_dag(dag: &OrientedDag, base_bytes: usize, cfg: &PgConfig) -> ProbGraph {
        Self::build_over(
            dag.num_vertices(),
            base_bytes,
            |v| dag.neighbors_plus(v as VertexId),
            cfg,
        )
    }

    /// Low-level constructor over arbitrary sorted sets. `n_sets` may be
    /// zero — an empty graph yields a truly empty ProbGraph
    /// (`len() == 0`), not a dummy one-set sentinel.
    pub fn build_over<'s, F>(n_sets: usize, base_bytes: usize, set: F, cfg: &PgConfig) -> ProbGraph
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        let mut sizes = vec![0u32; n_sets];
        pg_parallel::parallel_fill_with(&mut sizes, |i| set(i).len() as u32);
        // Stratified geometry needs the degree distribution, which is
        // exactly the size array just computed.
        let params = resolve_stratified(n_sets, base_bytes, cfg, &sizes);
        ProbGraphIn {
            store: build_store(&params, n_sets, cfg.seed, &set),
            sizes: Cow::Owned(sizes),
            bf_estimator: cfg.bf_estimator,
            params,
            seed: cfg.seed,
        }
    }

    /// Builds sketches over `n_sets` sorted sets with **already-resolved**
    /// parameters, bypassing budget resolution. Each row's sketch depends
    /// only on `(params, seed, set(i))`, so a store built here over any
    /// subset of a graph's rows is bit-identical, row for row, to the
    /// corresponding rows of the full [`ProbGraph::build_dag`] store built
    /// under the same params and seed — the property the distributed
    /// exchange (`crate::exchange`) relies on when workers rebuild their
    /// owned sub-stores independently.
    pub fn build_rows<'s, F>(
        n_sets: usize,
        params: SketchParams,
        bf_estimator: BfEstimator,
        seed: u64,
        set: F,
    ) -> ProbGraph
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        let sparams = StratifiedParams::uniform(params);
        Self::build_rows_stratified(n_sets, sparams, bf_estimator, seed, set)
    }

    /// [`ProbGraph::build_rows`] under a per-stratum parameter table and
    /// per-set assignment (`sparams.assign()` must cover exactly these
    /// rows unless the table has one stratum). Row `i`'s sketch depends
    /// only on `(sparams.params_of(i), seed, set(i))`, so sub-stores built
    /// here over row ranges are bit-identical, row for row, to the full
    /// build.
    pub fn build_rows_stratified<'s, F>(
        n_sets: usize,
        sparams: StratifiedParams,
        bf_estimator: BfEstimator,
        seed: u64,
        set: F,
    ) -> ProbGraph
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        let mut sizes = vec![0u32; n_sets];
        pg_parallel::parallel_fill_with(&mut sizes, |i| set(i).len() as u32);
        ProbGraphIn {
            store: build_store(&sparams, n_sets, seed, &set),
            sizes: Cow::Owned(sizes),
            bf_estimator,
            params: sparams,
            seed,
        }
    }

    /// Detaches the graph from any borrowed snapshot buffer, cloning the
    /// backing arrays if they were served in place. No-op for owned data.
    pub fn into_owned(self) -> ProbGraph {
        ProbGraphIn {
            store: self.store.into_owned(),
            sizes: Cow::Owned(self.sizes.into_owned()),
            bf_estimator: self.bf_estimator,
            params: self.params,
            seed: self.seed,
        }
    }

    /// Overwrites this graph with the row concatenation of `parts`, in
    /// order — sketches, recorded sizes and stratum assignment — reusing
    /// its allocations. The serving layer gathers its shard lanes into a
    /// reclaimed snapshot here, and an exchange worker gathers its owned
    /// rows with the rows it received. Every part must share this graph's
    /// representation, stratum table and seed (they were built from the
    /// same resolved params); panics on a representation mismatch.
    pub(crate) fn gather_from(&mut self, parts: &[&ProbGraphIn<'_>]) {
        each_store!(&mut self.store, dst => {
            let srcs: Vec<_> = parts
                .iter()
                .map(|p| match p.store() {
                    Same(c) => c,
                    _ => panic!("gather: mixed representations"),
                })
                .collect();
            dst.gather_into(&srcs)
        });
        let sizes = self.sizes.to_mut();
        sizes.clear();
        for p in parts {
            sizes.extend_from_slice(&p.sizes);
        }
        // Steady-state publishes gather the assignment the target already
        // holds, so it is only rebuilt when it changed.
        let assign = parts.iter().flat_map(|p| p.params.assign());
        let strata = parts[0].params.strata();
        if self.params.strata() != strata || !self.params.assign().iter().eq(assign.clone()) {
            self.params = StratifiedParams::new(strata.to_vec(), assign.copied().collect());
        }
    }

    /// Assembles a ProbGraph from already-validated parts — the snapshot
    /// load path (`crate::snapshot`), which has checked that the store,
    /// sizes, params, and seed are mutually consistent before calling.
    pub(crate) fn from_parts(
        store: SketchStoreIn<'a>,
        sizes: impl Into<Cow<'a, [u32]>>,
        bf_estimator: BfEstimator,
        params: StratifiedParams,
        seed: u64,
    ) -> ProbGraphIn<'a> {
        ProbGraphIn {
            store,
            sizes: sizes.into(),
            bf_estimator,
            params,
            seed,
        }
    }

    /// Number of sketched sets.
    #[inline]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// True when no sets are sketched.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Exact size of set `i` (the degree, recorded at build time).
    #[inline]
    pub fn set_size(&self, i: usize) -> usize {
        self.sizes[i] as usize
    }

    /// The resolved sketch parameters (B and b, or k). For stratified
    /// graphs this is **stratum 0** — the widest, highest-degree stratum;
    /// use [`ProbGraph::stratified_params`] for the full per-set geometry.
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.params.strata()[0]
    }

    /// The full per-set geometry when the graph was built under a
    /// multi-stratum [`StrataSpec`]; `None` on the uniform layout
    /// (including one-stratum and collapsed specs).
    #[inline]
    pub fn stratified_params(&self) -> Option<&StratifiedParams> {
        (!self.params.is_uniform()).then_some(&self.params)
    }

    /// The resolved parameter table in every case — the one-stratum
    /// table (no assignment array) on the uniform layout.
    #[inline]
    pub fn resolved_params(&self) -> &StratifiedParams {
        &self.params
    }

    /// The underlying sketches (for algorithms needing membership queries
    /// or raw samples, e.g. 4-clique counting).
    #[inline]
    pub fn store(&self) -> &SketchStoreIn<'a> {
        &self.store
    }

    /// The configured Bloom estimator variant.
    #[inline]
    pub fn bf_estimator(&self) -> BfEstimator {
        self.bf_estimator
    }

    /// The master hash seed the sketches were built under (persisted by
    /// snapshots so a reloaded store hashes identically).
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The exact set sizes recorded at build time (one per sketched set).
    #[inline]
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Resolves the stored representation to a concrete
    /// [`IntersectionOracle`] and runs `visitor` against it — the **one**
    /// place the representation enum (and the Bloom estimator variant) is
    /// matched. Algorithm kernels written against a generic
    /// `O: IntersectionOracle` get monomorphized per representation, so
    /// their per-edge loops carry no enum dispatch at all.
    ///
    /// ```
    /// use pg_graph::gen;
    /// use probgraph::oracle::{IntersectionOracle, OracleVisitor};
    /// use probgraph::{PgConfig, ProbGraph, Representation};
    ///
    /// struct SumOverEdges<'a>(&'a pg_graph::CsrGraph);
    /// impl OracleVisitor for SumOverEdges<'_> {
    ///     type Output = f64;
    ///     fn visit<O: IntersectionOracle>(self, o: &O) -> f64 {
    ///         // Dispatch already happened; this loop is branch-free.
    ///         self.0.edges().map(|(u, v)| o.estimate(u, v).max(0.0)).sum()
    ///     }
    /// }
    ///
    /// let g = gen::kronecker(8, 8, 1);
    /// let pg = ProbGraph::build(&g, &PgConfig::new(Representation::Hll, 0.25));
    /// let total = pg.with_oracle(SumOverEdges(&g));
    /// assert!(total >= 0.0);
    /// ```
    pub fn with_oracle<V: OracleVisitor>(&self, visitor: V) -> V::Output {
        let sizes = &self.sizes[..];
        let bloom: &BloomCollectionIn<'_> = match &self.store {
            SketchStoreIn::Bloom(c) => c,
            // The counting store reads through its derived Bloom view, so
            // the very same monomorphized oracles (and estimator
            // strategies) serve it — deletions cost nothing on this path.
            SketchStoreIn::CountingBloom(c) => c.read_view(),
            SketchStoreIn::KHash(c) => return visitor.visit(&KHashOracle::new(c, sizes)),
            SketchStoreIn::OneHash(c) => return visitor.visit(&OneHashOracle::new(c, sizes)),
            SketchStoreIn::Kmv(c) => return visitor.visit(&KmvOracle::new(c, sizes)),
            SketchStoreIn::Hll(c) => return visitor.visit(&HllOracle::new(c, sizes)),
        };
        match self.bf_estimator {
            BfEstimator::And => visitor.visit(&BloomOracle::<BloomAnd>::new(bloom, sizes)),
            BfEstimator::Limit => visitor.visit(&BloomOracle::<BloomLimit>::new(bloom, sizes)),
            BfEstimator::Or => visitor.visit(&BloomOracle::<BloomOr>::new(bloom, sizes)),
        }
    }

    /// Incremental builder for evolving graphs: empty sketches resolved
    /// under exactly the same budget plan as [`ProbGraph::build`] (same
    /// `base_bytes`, set count, and config ⇒ same sketch parameters),
    /// then `edges` absorbed in place via [`ProbGraph::apply_batch`].
    ///
    /// `base_bytes` should be the CSR footprint the budget is measured
    /// against — for a graph that will grow to a known working size, pass
    /// that target footprint so the sketches are provisioned once. The
    /// differential property suite (`tests/streaming_equivalence.rs`)
    /// pins this path to [`ProbGraph::build`]: streaming any prefix and
    /// applying the rest in batches yields bit-identical sketches for
    /// Bloom/k-hash/HLL and estimator-identical ones for KMV/bottom-k.
    pub fn stream_from(
        n_vertices: usize,
        base_bytes: usize,
        cfg: &PgConfig,
        edges: &[Edge],
    ) -> ProbGraph {
        let mut pg = Self::build_over(n_vertices, base_bytes, |_| &[][..], cfg);
        pg.apply_batch(edges);
        pg
    }

    /// Absorbs a batch of **new undirected edges** into the sketches in
    /// place — no rebuild. Each `{u, v}` inserts `v` into `N_u`'s sketch
    /// and `u` into `N_v`'s and bumps both recorded set sizes.
    ///
    /// Updates are grouped per source vertex before hitting the store, so
    /// per-set state (Bloom word window, counting-Bloom counter window,
    /// MinHash slot hashes, the bottom-k/KMV bounded heap) is hoisted
    /// once per touched set and the multi-lane row kernels remain the
    /// untouched read path. Batches follow [`pg_graph::CsrGraph`] rebuild
    /// semantics: self-loops are dropped, and duplicate edges *within the
    /// batch* (in either orientation) are applied once. Edges must not
    /// already be present in the graph (see [`MutableOracle`] — sketches
    /// cannot check membership, so cross-batch duplicates still inflate
    /// the recorded sizes); endpoints must lie in `0..len()` — the vertex
    /// universe is fixed at construction.
    pub fn apply_batch(&mut self, edges: &[Edge]) {
        if let [(u, v)] = edges {
            // Single-edge batches — the live-tick steady state — skip the
            // sort/group machinery and its allocations entirely.
            if u != v {
                self.insert_edge(*u, *v);
            }
            return;
        }
        self.apply_updates(Self::undirected_updates(edges), false);
    }

    /// Directed form of [`ProbGraph::apply_batch`] for oriented sets
    /// (DAG out-neighborhoods, [`ProbGraph::build_dag`]'s shape): each
    /// arc `(v, u)` inserts `u` into set `v`'s sketch only. Use it with
    /// sketches *seeded from arcs too* (`stream_from` with an empty edge
    /// list, then `apply_arcs` for the history) — seeding through the
    /// undirected [`ProbGraph::stream_from`] would put both endpoints in
    /// every sketch and silently corrupt the `N⁺` sets. Self-loop arcs
    /// are dropped and in-batch duplicates applied once, as in
    /// [`ProbGraph::apply_batch`].
    pub fn apply_arcs(&mut self, arcs: &[Edge]) {
        if let [(v, u)] = arcs {
            if v != u {
                self.insert_into(*v, *u);
            }
            return;
        }
        self.apply_updates(Self::arc_updates(arcs), false);
    }

    /// Removes a batch of **present undirected edges** from the sketches
    /// in place — the deletion mirror of [`ProbGraph::apply_batch`], with
    /// identical per-source-vertex grouping and the same rebuild
    /// semantics (self-loops dropped, in-batch duplicates removed once).
    /// Every edge must currently be present, and the representation must
    /// support removals ([`ProbGraph::remove_supported`], i.e.
    /// [`Representation::CountingBloom`]) — routing a removal at any
    /// other store panics loudly rather than corrupting it.
    pub fn remove_batch(&mut self, edges: &[Edge]) {
        if let [(u, v)] = edges {
            if u != v {
                self.remove_edge(*u, *v);
            }
            return;
        }
        self.apply_updates(Self::undirected_updates(edges), true);
    }

    /// Directed form of [`ProbGraph::remove_batch`]: each arc `(v, u)`
    /// removes `u` from set `v`'s sketch only — the deletion mirror of
    /// [`ProbGraph::apply_arcs`].
    pub fn remove_arcs(&mut self, arcs: &[Edge]) {
        if let [(v, u)] = arcs {
            if v != u {
                self.remove_from(*v, *u);
            }
            return;
        }
        self.apply_updates(Self::arc_updates(arcs), true);
    }

    /// Non-panicking form of [`ProbGraph::remove_batch`]: refuses the
    /// whole batch with [`UnsupportedOperation`] when the stored
    /// representation is not invertible, leaving the sketches untouched.
    pub fn try_remove_batch(&mut self, edges: &[Edge]) -> Result<(), UnsupportedOperation> {
        if !self.remove_supported() {
            return Err(UnsupportedOperation::removal());
        }
        self.remove_batch(edges);
        Ok(())
    }

    /// Non-panicking form of [`ProbGraph::remove_arcs`] — same all-or-
    /// nothing contract as [`ProbGraph::try_remove_batch`].
    pub fn try_remove_arcs(&mut self, arcs: &[Edge]) -> Result<(), UnsupportedOperation> {
        if !self.remove_supported() {
            return Err(UnsupportedOperation::removal());
        }
        self.remove_arcs(arcs);
        Ok(())
    }

    /// Expands undirected edges into per-set `(set, element)` updates,
    /// dropping self-loops (duplicates die in `apply_updates`' dedup).
    pub(crate) fn undirected_updates(edges: &[Edge]) -> Vec<(VertexId, u32)> {
        let mut updates = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            if u != v {
                updates.push((u, v));
                updates.push((v, u));
            }
        }
        updates
    }

    /// Keeps arcs as they are, dropping self-loops.
    pub(crate) fn arc_updates(arcs: &[Edge]) -> Vec<(VertexId, u32)> {
        arcs.iter().copied().filter(|&(v, u)| v != u).collect()
    }

    /// Shared update path: sort `(set, element)` pairs so each touched
    /// set is one contiguous run, dedup within the batch (CSR rebuild
    /// semantics — a duplicate edge contributes one neighbor), then apply
    /// the runs.
    fn apply_updates(&mut self, mut updates: Vec<(VertexId, u32)>, remove: bool) {
        updates.sort_unstable();
        updates.dedup();
        self.apply_sorted_updates(&updates, remove);
    }

    /// Applies already sorted and deduped `(set, element)` updates, one
    /// batched store insert/remove per set run — also the drain of every
    /// serving lane, whose queued segments are slices of a sorted batch.
    pub(crate) fn apply_sorted_updates(&mut self, updates: &[(VertexId, u32)], remove: bool) {
        let mut xs: Vec<u32> = Vec::new();
        let mut i = 0;
        while i < updates.len() {
            let s = updates[i].0;
            xs.clear();
            while i < updates.len() && updates[i].0 == s {
                xs.push(updates[i].1);
                i += 1;
            }
            if remove {
                self.remove_from_many(s, &xs);
            } else {
                self.insert_into_many(s, &xs);
            }
        }
    }

    /// True when the stored representation supports edge removals —
    /// [`Representation::CountingBloom`] does, the other five do not
    /// (see [`MutableOracle::remove_supported`]).
    #[inline]
    pub fn remove_supported(&self) -> bool {
        self.store.remove_supported()
    }

    /// `|N_u ∩ N_v|̂` — the drop-in replacement for the exact intersection
    /// cardinality (the blue operations in the paper's listings).
    ///
    /// Convenience single-pair entry point; loops should go through
    /// [`ProbGraph::with_oracle`] so the dispatch below happens once per
    /// call instead of once per edge.
    pub fn estimate_intersection(&self, u: VertexId, v: VertexId) -> f64 {
        struct Pair(VertexId, VertexId);
        impl OracleVisitor for Pair {
            type Output = f64;
            fn visit<O: IntersectionOracle>(self, o: &O) -> f64 {
                o.estimate(self.0, self.1)
            }
        }
        self.with_oracle(Pair(u, v))
    }

    /// `Ĵ(N_u, N_v)` — approximate Jaccard similarity (Listing 3 / 6).
    ///
    /// MinHash stores estimate Jaccard natively; Bloom/KMV/HLL derive it
    /// from the intersection estimate and the exact sizes, clamped to
    /// `[0, 1]` (the [`IntersectionOracle::jaccard`] default).
    pub fn estimate_jaccard(&self, u: VertexId, v: VertexId) -> f64 {
        struct Pair(VertexId, VertexId);
        impl OracleVisitor for Pair {
            type Output = f64;
            fn visit<O: IntersectionOracle>(self, o: &O) -> f64 {
                o.jaccard(self.0, self.1)
            }
        }
        self.with_oracle(Pair(u, v))
    }

    /// Bytes of additional storage used by the sketches — the quantity the
    /// paper's "relative memory" axis reports against the budget.
    pub fn memory_bytes(&self) -> usize {
        each_store!(&self.store, c => c.memory_bytes()) + self.sizes.len() * 4
    }
}

impl MutableOracle for SketchStoreIn<'_> {
    #[inline]
    fn insert_into(&mut self, v: VertexId, x: u32) {
        each_store!(self, c => c.insert(v as usize, x))
    }

    #[inline]
    fn insert_into_many(&mut self, v: VertexId, xs: &[u32]) {
        each_store!(self, c => c.insert_batch(v as usize, xs))
    }

    #[inline]
    fn remove_from(&mut self, v: VertexId, x: u32) {
        match self {
            SketchStoreIn::CountingBloom(c) => c.remove(v as usize, x),
            _ => fail_remove_unsupported(),
        }
    }

    #[inline]
    fn remove_from_many(&mut self, v: VertexId, xs: &[u32]) {
        match self {
            SketchStoreIn::CountingBloom(c) => c.remove_batch(v as usize, xs),
            _ => fail_remove_unsupported(),
        }
    }

    #[inline]
    fn remove_supported(&self) -> bool {
        matches!(self, SketchStoreIn::CountingBloom(_))
    }
}

/// Resolves the sketch parameters [`ProbGraph::build_over`] would use for
/// a `n_sets`-set graph with CSR footprint `base_bytes` under `cfg` — the
/// **one** place budget planning happens, shared with the serving layer so
/// shard lanes resolve against the *global* set count and footprint and
/// end up parameter-identical to a serial build. A spec-less `cfg` plans
/// the one-stratum [`StrataSpec::uniform`] table, which is exactly the
/// uniform [`BudgetPlan`]; otherwise the budget is split per
/// degree-quantile stratum by [`StratifiedPlan`], and `degrees` drives
/// the assignment (set `i` → stratum by descending-degree rank).
///
/// The strict planners reject budgets below one slot; ProbGraph
/// explicitly opts into the minimal uniform sketch instead — on the
/// degenerate graphs where a sane `s` still cannot pay for one slot (a
/// few dozen vertices), overshooting the budget by a handful of bytes per
/// set beats refusing to build. Real deployments planning real budgets
/// should use the `try_*` planners and surface the error.
pub(crate) fn resolve_stratified(
    n_sets: usize,
    base_bytes: usize,
    cfg: &PgConfig,
    degrees: &[u32],
) -> StratifiedParams {
    let spec = cfg.strata.clone().unwrap_or_else(StrataSpec::uniform);
    let plan = StratifiedPlan::new(BudgetPlan::new(base_bytes, n_sets, cfg.budget), spec);
    let min_uniform = StratifiedParams::uniform;
    match cfg.representation {
        Representation::Bloom { b } => plan.bloom(degrees, b),
        Representation::CountingBloom { b } => plan.counting_bloom(degrees, b),
        Representation::KHash => plan
            .try_khash(degrees)
            .unwrap_or_else(|_| min_uniform(SketchParams::KHash { k: 1 })),
        Representation::OneHash => plan
            .try_onehash(degrees)
            .unwrap_or_else(|_| min_uniform(SketchParams::OneHash { k: 1 })),
        Representation::Kmv => plan
            .try_kmv(degrees)
            .unwrap_or_else(|_| min_uniform(SketchParams::Kmv { k: 1 })),
        Representation::Hll => plan.hll(degrees),
    }
}

/// Builds the concrete store for already-resolved parameters over
/// `n_sets` sets, laid out by [`StratifiedParams::geometry`]. The params
/// variant determines the representation, so a store built here always
/// matches its params.
fn build_store<'a, F>(sparams: &StratifiedParams, n_sets: usize, seed: u64, set: F) -> SketchStore
where
    F: Fn(usize) -> &'a [u32] + Sync,
{
    let geom = sparams.geometry(n_sets);
    match sparams.strata()[0] {
        SketchParams::Bloom { b, .. } => {
            SketchStoreIn::Bloom(BloomCollection::build_on(geom, b, seed, set))
        }
        SketchParams::CountingBloom { b, .. } => {
            SketchStoreIn::CountingBloom(CountingBloomCollection::build_on(geom, b, seed, set))
        }
        SketchParams::KHash { .. } => {
            SketchStoreIn::KHash(MinHashCollection::build_on(geom, seed, set))
        }
        SketchParams::OneHash { .. } => {
            SketchStoreIn::OneHash(BottomKCollection::build_on(geom, seed, set))
        }
        SketchParams::Kmv { .. } => SketchStoreIn::Kmv(KmvCollection::build_on(geom, seed, set)),
        SketchParams::Hll { .. } => {
            SketchStoreIn::Hll(HyperLogLogCollection::build_on(geom, seed, set))
        }
    }
}

/// The [`ProbGraph`]-level write path: updates the stored sketch **and**
/// the recorded exact set size, keeping every size-consuming estimator
/// (Eq. 5, OR, inclusion–exclusion) consistent with the mutation.
impl MutableOracle for ProbGraphIn<'_> {
    #[inline]
    fn insert_into(&mut self, v: VertexId, x: u32) {
        self.store.insert_into(v, x);
        self.sizes.to_mut()[v as usize] += 1;
    }

    #[inline]
    fn insert_into_many(&mut self, v: VertexId, xs: &[u32]) {
        self.store.insert_into_many(v, xs);
        self.sizes.to_mut()[v as usize] += xs.len() as u32;
    }

    #[inline]
    fn remove_from(&mut self, v: VertexId, x: u32) {
        self.store.remove_from(v, x);
        self.sizes.to_mut()[v as usize] -= 1;
    }

    #[inline]
    fn remove_from_many(&mut self, v: VertexId, xs: &[u32]) {
        self.store.remove_from_many(v, xs);
        self.sizes.to_mut()[v as usize] -= xs.len() as u32;
    }

    #[inline]
    fn remove_supported(&self) -> bool {
        self.store.remove_supported()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::intersect_card;
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
    fn builds_under_budget_for_every_representation() {
        let g = gen::kronecker(9, 8, 3);
        for rep in all_reps() {
            let pg = ProbGraph::build(&g, &PgConfig::new(rep, 0.25));
            assert_eq!(pg.len(), g.num_vertices());
            // Sizes must equal degrees.
            for v in 0..g.num_vertices() {
                assert_eq!(pg.set_size(v), g.degree(v as u32), "{rep:?}");
            }
            // Budget respected within word-granularity and per-sketch
            // bookkeeping slack.
            let slack = pg.len() * 32 + 64;
            assert!(
                pg.memory_bytes()
                    <= (g.memory_bytes() as f64 * 0.25) as usize + slack + pg.len() * 4,
                "{rep:?}: {} vs budget {}",
                pg.memory_bytes(),
                (g.memory_bytes() as f64 * 0.25) as usize
            );
        }
    }

    #[test]
    fn estimates_correlate_with_truth() {
        // On a dense ER graph all estimators must track the exact
        // intersection with errors far below the degree scale.
        let g = gen::erdos_renyi_gnm(300, 300 * 40, 7);
        for rep in all_reps() {
            let pg = ProbGraph::build(&g, &PgConfig::new(rep, 0.33));
            let mut total_rel_err = 0.0;
            let mut pairs = 0;
            for (u, v) in g.edges().take(400) {
                let exact = intersect_card(g.neighbors(u), g.neighbors(v));
                if exact == 0 {
                    continue;
                }
                let est = pg.estimate_intersection(u, v);
                total_rel_err += (est - exact as f64).abs() / exact as f64;
                pairs += 1;
            }
            let mean_err = total_rel_err / pairs as f64;
            // HLL's inclusion–exclusion error scales with |X∪Y| rather than
            // |X∩Y| (same caveat as the paper's Eq. 41 KMV estimator), so
            // its tolerance on this intersection-dominated workload is
            // looser; the element-based sketches keep the tight bound.
            // Counting Bloom pays 4 counter bits per view bit, so at equal
            // budget its filters hold ~1/5 the buckets of plain Bloom and
            // run far denser — the deletion path is what the accuracy gap
            // buys.
            let bound = match rep {
                Representation::Hll => 3.0,
                Representation::CountingBloom { .. } => 6.0,
                _ => 0.8,
            };
            assert!(mean_err < bound, "{rep:?}: mean relative error {mean_err}");
        }
    }

    #[test]
    fn jaccard_estimates_are_probabilities() {
        let g = gen::kronecker(8, 8, 1);
        for rep in all_reps() {
            let pg = ProbGraph::build(&g, &PgConfig::new(rep, 0.25));
            for (u, v) in g.edges().take(200) {
                let j = pg.estimate_jaccard(u, v);
                assert!((0.0..=1.0).contains(&j), "{rep:?}: J={j}");
            }
        }
    }

    #[test]
    fn bf_estimator_variants_differ_but_agree_in_scale() {
        let g = gen::erdos_renyi_gnm(200, 6000, 5);
        let base = PgConfig::new(Representation::Bloom { b: 2 }, 0.33);
        let and = ProbGraph::build(&g, &base);
        let lim = ProbGraph::build(&g, &base.clone().with_bf_estimator(BfEstimator::Limit));
        let or = ProbGraph::build(&g, &base.clone().with_bf_estimator(BfEstimator::Or));
        let (u, v) = g.edges().next().unwrap();
        let exact = intersect_card(g.neighbors(u), g.neighbors(v)) as f64;
        for (name, pg) in [("AND", &and), ("L", &lim), ("OR", &or)] {
            let e = pg.estimate_intersection(u, v);
            assert!(
                e >= 0.0 && (e - exact).abs() < exact.max(8.0) * 1.5,
                "{name}: est={e} exact={exact}"
            );
        }
    }

    #[test]
    fn dag_variant_sketches_out_neighborhoods() {
        let g = gen::kronecker(8, 8, 2);
        let dag = pg_graph::orient_by_degree(&g);
        let pg = ProbGraph::build_dag(
            &dag,
            g.memory_bytes(),
            &PgConfig::new(Representation::OneHash, 0.25),
        );
        for v in 0..g.num_vertices() {
            assert_eq!(pg.set_size(v), dag.out_degree(v as u32));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = gen::kronecker(7, 6, 9);
        let cfg = PgConfig::new(Representation::KHash, 0.2).with_seed(42);
        let a = ProbGraph::build(&g, &cfg);
        let b = ProbGraph::build(&g, &cfg);
        let (u, v) = g.edges().next().unwrap();
        assert_eq!(a.estimate_intersection(u, v), b.estimate_intersection(u, v));
    }

    #[test]
    fn stream_from_matches_build_for_every_representation() {
        let g = gen::erdos_renyi_gnm(80, 600, 11);
        let edges = g.edge_list();
        let split = edges.len() / 2;
        for rep in all_reps() {
            let cfg = PgConfig::new(rep, 0.3);
            let full = ProbGraph::build(&g, &cfg);
            let mut inc =
                ProbGraph::stream_from(g.num_vertices(), g.memory_bytes(), &cfg, &edges[..split]);
            inc.apply_batch(&edges[split..]);
            assert_eq!(inc.params(), full.params(), "{rep:?}");
            for v in 0..g.num_vertices() {
                assert_eq!(inc.set_size(v), full.set_size(v), "{rep:?} v={v}");
            }
            for (u, v) in g.edges().take(300) {
                assert_eq!(
                    inc.estimate_intersection(u, v),
                    full.estimate_intersection(u, v),
                    "{rep:?} ({u},{v})"
                );
                assert_eq!(
                    inc.estimate_jaccard(u, v),
                    full.estimate_jaccard(u, v),
                    "{rep:?} ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn single_edge_insert_updates_sketch_and_sizes() {
        // A fresh edge between previously unconnected vertices must show
        // up in sizes immediately and match the rebuilt graph exactly.
        let edges: Vec<(u32, u32)> = vec![(0, 1), (0, 2), (1, 2), (3, 4)];
        let g = pg_graph::CsrGraph::from_edges(6, &edges);
        let mut with_new = edges.clone();
        with_new.push((2, 3));
        let g2 = pg_graph::CsrGraph::from_edges(6, &with_new);
        for rep in all_reps() {
            let cfg = PgConfig::new(rep, 1.0);
            let mut pg = ProbGraph::stream_from(6, g.memory_bytes(), &cfg, &edges);
            assert_eq!(
                pg.remove_supported(),
                matches!(rep, Representation::CountingBloom { .. }),
                "{rep:?}"
            );
            pg.insert_edge(2, 3);
            let rebuilt =
                ProbGraph::build_over(6, g.memory_bytes(), |v| g2.neighbors(v as u32), &cfg);
            for v in 0..6u32 {
                assert_eq!(pg.set_size(v as usize), g2.degree(v), "{rep:?} v={v}");
                for u in 0..6u32 {
                    assert_eq!(
                        pg.estimate_intersection(v, u),
                        rebuilt.estimate_intersection(v, u),
                        "{rep:?} ({v},{u})"
                    );
                }
            }
        }
    }

    #[test]
    fn counting_bloom_removal_matches_survivor_rebuild() {
        // Build, remove a batch of edges, and compare every estimator
        // against a from-scratch build over the surviving edge set.
        let g = gen::erdos_renyi_gnm(60, 400, 13);
        let edges = g.edge_list();
        let (gone, kept) = edges.split_at(edges.len() / 4);
        let g2 = pg_graph::CsrGraph::from_edges(g.num_vertices(), kept);
        for est in [BfEstimator::And, BfEstimator::Limit, BfEstimator::Or] {
            let cfg =
                PgConfig::new(Representation::CountingBloom { b: 2 }, 0.3).with_bf_estimator(est);
            let mut pg = ProbGraph::build(&g, &cfg);
            assert!(pg.remove_supported());
            // Batched removal plus the single-edge path on the last one.
            let (last, bulk) = gone.split_last().unwrap();
            pg.remove_batch(bulk);
            pg.remove_edge(last.0, last.1);
            let rebuilt = ProbGraph::build_over(
                g.num_vertices(),
                g.memory_bytes(),
                |v| g2.neighbors(v as u32),
                &cfg,
            );
            for v in 0..g.num_vertices() {
                assert_eq!(
                    pg.set_size(v),
                    g2.degree(v as u32) as usize,
                    "{est:?} v={v}"
                );
            }
            for (u, v) in g2.edges().take(300) {
                assert_eq!(
                    pg.estimate_intersection(u, v),
                    rebuilt.estimate_intersection(u, v),
                    "{est:?} ({u},{v})"
                );
                assert_eq!(
                    pg.estimate_jaccard(u, v),
                    rebuilt.estimate_jaccard(u, v),
                    "{est:?} ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn counting_bloom_remove_arcs_matches_dag_rebuild() {
        let g = gen::erdos_renyi_gnm(50, 300, 5);
        let dag = pg_graph::orient_by_degree(&g);
        let arcs: Vec<(u32, u32)> = (0..dag.num_vertices() as u32)
            .flat_map(|v| dag.neighbors_plus(v).iter().map(move |&u| (v, u)))
            .collect();
        let cfg = PgConfig::new(Representation::CountingBloom { b: 2 }, 0.3);
        let mut pg = ProbGraph::build_dag(&dag, g.memory_bytes(), &cfg);
        let (gone, kept) = arcs.split_at(arcs.len() / 3);
        pg.remove_arcs(gone);
        // Rebuild over the surviving oriented sets.
        let mut survivors: Vec<Vec<u32>> = vec![Vec::new(); dag.num_vertices()];
        for &(v, u) in kept {
            survivors[v as usize].push(u);
        }
        let rebuilt = ProbGraph::build_over(
            dag.num_vertices(),
            g.memory_bytes(),
            |v| &survivors[v][..],
            &cfg,
        );
        for (v, surv) in survivors.iter().enumerate() {
            assert_eq!(pg.set_size(v), surv.len(), "v={v}");
            for u in 0..dag.num_vertices() as u32 {
                assert_eq!(
                    pg.estimate_intersection(v as u32, u),
                    rebuilt.estimate_intersection(v as u32, u),
                    "({v},{u})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not support removals")]
    fn removal_on_plain_bloom_panics_loudly() {
        let g = gen::erdos_renyi_gnm(20, 60, 1);
        let mut pg = ProbGraph::build(&g, &PgConfig::new(Representation::Bloom { b: 2 }, 0.3));
        let (u, v) = g.edges().next().unwrap();
        pg.remove_edge(u, v);
    }

    #[test]
    fn try_removals_error_instead_of_panicking() {
        let g = gen::erdos_renyi_gnm(30, 120, 2);
        let (u, v) = g.edges().next().unwrap();
        for rep in all_reps() {
            let mut pg = ProbGraph::build(&g, &PgConfig::new(rep, 0.3));
            let before = pg.sizes().to_vec();
            let supported = matches!(rep, Representation::CountingBloom { .. });
            assert_eq!(pg.try_remove_edge(u, v).is_ok(), supported, "{rep:?}");
            if supported {
                // The supported store applied exactly one removal.
                assert_eq!(pg.set_size(u as usize), before[u as usize] as usize - 1);
                assert_eq!(pg.set_size(v as usize), before[v as usize] as usize - 1);
                pg.apply_batch(&[(u, v)]);
            } else {
                // The refusing stores touched nothing.
                assert_eq!(pg.sizes(), &before[..], "{rep:?}");
                assert!(pg.try_remove_batch(&[(u, v)]).is_err(), "{rep:?}");
                assert!(pg.try_remove_arcs(&[(u, v)]).is_err(), "{rep:?}");
                let err = pg.try_remove_edge(u, v).unwrap_err();
                assert!(err.to_string().contains("CountingBloom"), "{rep:?}");
            }
        }
    }

    #[test]
    fn try_remove_batch_matches_panicking_form_on_cbf() {
        let g = gen::erdos_renyi_gnm(50, 300, 9);
        let edges = g.edge_list();
        let (gone, _) = edges.split_at(edges.len() / 3);
        let cfg = PgConfig::new(Representation::CountingBloom { b: 2 }, 0.3);
        let mut via_try = ProbGraph::build(&g, &cfg);
        let mut via_panic = ProbGraph::build(&g, &cfg);
        via_try
            .try_remove_batch(gone)
            .expect("CBF supports removal");
        via_panic.remove_batch(gone);
        for u in 0..g.num_vertices() as u32 {
            for v in 0..g.num_vertices() as u32 {
                assert_eq!(
                    via_try.estimate_intersection(u, v),
                    via_panic.estimate_intersection(u, v),
                    "({u},{v})"
                );
            }
        }
    }

    #[test]
    fn batches_follow_csr_rebuild_semantics() {
        // Self-loops are dropped and in-batch duplicates (either
        // orientation) applied once — streaming a dirty edge list must
        // land exactly where building from the same dirty list does.
        let dirty: Vec<(u32, u32)> = vec![
            (0, 1),
            (1, 0), // duplicate, flipped orientation
            (2, 2), // self-loop
            (1, 2),
            (1, 2), // duplicate, same orientation
            (3, 4),
        ];
        let g = pg_graph::CsrGraph::from_edges(6, &dirty);
        for rep in all_reps() {
            let cfg = PgConfig::new(rep, 1.0);
            let streamed = ProbGraph::stream_from(6, g.memory_bytes(), &cfg, &dirty);
            // Single-edge path: a lone self-loop batch must be a no-op.
            let mut looped = streamed.clone();
            looped.apply_batch(&[(5, 5)]);
            let rebuilt =
                ProbGraph::build_over(6, g.memory_bytes(), |v| g.neighbors(v as u32), &cfg);
            for v in 0..6u32 {
                assert_eq!(streamed.set_size(v as usize), g.degree(v), "{rep:?} v={v}");
                assert_eq!(looped.set_size(v as usize), g.degree(v), "{rep:?} v={v}");
                for u in 0..6u32 {
                    assert_eq!(
                        streamed.estimate_intersection(v, u),
                        rebuilt.estimate_intersection(v, u),
                        "{rep:?} ({v},{u})"
                    );
                    assert_eq!(
                        looped.estimate_intersection(v, u),
                        rebuilt.estimate_intersection(v, u),
                        "{rep:?} ({v},{u})"
                    );
                }
            }
        }
    }

    #[test]
    fn one_stratum_spec_matches_uniform_build_exactly() {
        // Satellite (c) at the ProbGraph level: a uniform StrataSpec must
        // resolve and build bit-identically to no spec at all, for every
        // representation.
        let g = gen::erdos_renyi_gnm(120, 1800, 17);
        for rep in all_reps() {
            let plain = ProbGraph::build(&g, &PgConfig::new(rep, 0.3));
            let strat = ProbGraph::build(
                &g,
                &PgConfig::stratified(rep, 0.3, pg_sketch::StrataSpec::uniform()),
            );
            assert_eq!(strat.params(), plain.params(), "{rep:?}");
            assert!(strat.stratified_params().is_none(), "{rep:?}");
            for (u, v) in g.edges().take(300) {
                assert_eq!(
                    strat.estimate_intersection(u, v),
                    plain.estimate_intersection(u, v),
                    "{rep:?} ({u},{v})"
                );
                assert_eq!(
                    strat.estimate_jaccard(u, v),
                    plain.estimate_jaccard(u, v),
                    "{rep:?} ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn stratified_build_assigns_by_degree_and_estimates_sanely() {
        // A graph dense enough that every stratum's byte share clears the
        // per-representation floors, under the default heavy-tail spec:
        // the widest stratum must hold the highest-degree vertices, and
        // estimates stay plausible for every representation.
        let g = gen::erdos_renyi_gnm(800, 24_000, 3);
        for rep in all_reps() {
            let cfg = PgConfig::stratified(rep, 0.25, pg_sketch::StrataSpec::skewed_default());
            let pg = ProbGraph::build(&g, &cfg);
            let sp = pg
                .stratified_params()
                .unwrap_or_else(|| panic!("{rep:?}: expected a stratified build"));
            assert!(sp.n_strata() > 1, "{rep:?}");
            // Every stratum-0 vertex out-ranks every base-stratum vertex.
            let top_min = (0..pg.len())
                .filter(|&v| sp.assign()[v] == 0)
                .map(|v| g.degree(v as u32))
                .min()
                .unwrap();
            let base_max = (0..pg.len())
                .filter(|&v| sp.assign()[v] as usize == sp.n_strata() - 1)
                .map(|v| g.degree(v as u32))
                .max()
                .unwrap();
            assert!(
                top_min >= base_max,
                "{rep:?}: stratum 0 min degree {top_min} < base max {base_max}"
            );
            for (u, v) in g.edges().take(200) {
                let e = pg.estimate_intersection(u, v);
                assert!(e.is_finite(), "{rep:?} ({u},{v}): {e}");
                let j = pg.estimate_jaccard(u, v);
                assert!((0.0..=1.0).contains(&j), "{rep:?} ({u},{v}): J={j}");
            }
            // Same total budget discipline as the uniform planner (plus
            // the same word-granularity slack the uniform test allows).
            let slack = pg.len() * 32 + 64;
            assert!(
                pg.memory_bytes()
                    <= (g.memory_bytes() as f64 * 0.25) as usize + slack + pg.len() * 4,
                "{rep:?}: {} over budget",
                pg.memory_bytes()
            );
        }
    }

    #[test]
    fn stratified_stream_from_matches_build() {
        // The streaming path must land exactly where a from-scratch
        // stratified build does — per-set geometry is fixed by the
        // degree-provisioned plan, so this only holds when both sides
        // resolve the same plan; stream_from(build target sizes) does.
        let g = gen::erdos_renyi_gnm(90, 1400, 23);
        let edges = g.edge_list();
        let split = edges.len() / 2;
        for rep in all_reps() {
            let cfg = PgConfig::stratified(rep, 0.3, pg_sketch::StrataSpec::skewed_default());
            let full = ProbGraph::build(&g, &cfg);
            let Some(sp) = full.stratified_params() else {
                continue;
            };
            // Seed the incremental graph with the *resolved* geometry
            // (streaming cannot re-derive degree ranks from an empty
            // graph), then replay the edges.
            let mut inc = ProbGraph::build_rows_stratified(
                g.num_vertices(),
                sp.clone(),
                cfg.bf_estimator,
                cfg.seed,
                |_| &[][..],
            );
            inc.apply_batch(&edges[..split]);
            inc.apply_batch(&edges[split..]);
            for v in 0..g.num_vertices() {
                assert_eq!(inc.set_size(v), full.set_size(v), "{rep:?} v={v}");
            }
            for (u, v) in g.edges().take(250) {
                assert_eq!(
                    inc.estimate_intersection(u, v),
                    full.estimate_intersection(u, v),
                    "{rep:?} ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn stratified_row_builds_are_row_identical_to_full_build() {
        // The exchange property: sub-stores built over row ranges with the
        // sliced assignment match the full build row for row, so gathering
        // two halves into an empty graph reproduces the full build's
        // snapshot bytes — every representation, uniform and stratified.
        // The graph is dense enough for every representation's strata to
        // clear their floors (as in the degree-assignment test above).
        let g = gen::erdos_renyi_gnm(800, 24_000, 3);
        let mid = g.num_vertices() / 2;
        for rep in all_reps() {
            for strata in [None, Some(pg_sketch::StrataSpec::skewed_default())] {
                let cfg = PgConfig {
                    strata,
                    ..PgConfig::new(rep, 0.25)
                };
                let full = ProbGraph::build(&g, &cfg);
                assert_eq!(
                    full.stratified_params().is_some(),
                    cfg.strata.is_some(),
                    "{rep:?}: budget collapsed to uniform; the input covers nothing"
                );
                let mk = |rows: std::ops::Range<usize>| {
                    let (lo, sub) = (rows.start, full.resolved_params().select(rows.clone()));
                    ProbGraph::build_rows_stratified(
                        rows.len(),
                        sub,
                        cfg.bf_estimator,
                        cfg.seed,
                        |i| g.neighbors((lo + i) as u32),
                    )
                };
                let mut gathered = mk(0..0);
                gathered.gather_from(&[&mk(0..mid), &mk(mid..g.num_vertices())]);
                // A static bottom-k build tight-packs its samples while a
                // gather always lays them out strided, so the reference is
                // the full build passed through the same gather — which,
                // for the other five, must be the full build's own bytes.
                let mut want = mk(0..0);
                want.gather_from(&[&full]);
                let want = want.snapshot_to_bytes();
                assert!(
                    rep == Representation::OneHash || want == full.snapshot_to_bytes(),
                    "{rep:?} {:?}: a one-part gather changed the bytes",
                    cfg.strata
                );
                assert!(
                    gathered.snapshot_to_bytes() == want,
                    "{rep:?} {:?}: gathered halves differ from the full build",
                    cfg.strata
                );
            }
        }
    }

    #[test]
    fn empty_graph_builds_truly_empty_probgraph() {
        let g = pg_graph::CsrGraph::from_edges(0, &[]);
        for rep in all_reps() {
            let pg = ProbGraph::build(&g, &PgConfig::new(rep, 0.1));
            assert_eq!(pg.len(), 0, "{rep:?}");
            assert!(pg.is_empty(), "{rep:?}");
        }
        // Same for the DAG form.
        let dag = pg_graph::orient_by_degree(&g);
        let pg = ProbGraph::build_dag(&dag, 0, &PgConfig::new(Representation::OneHash, 0.25));
        assert!(pg.is_empty());
    }
}
