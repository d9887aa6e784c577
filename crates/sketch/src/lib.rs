//! # pg-sketch — probabilistic set representations and their estimators
//!
//! The core data structures of the ProbGraph paper (§II-D, §IV, §IX):
//!
//! * [`BitVec`] — the SIMD-friendly bit vector under every Bloom filter,
//!   with the fused AND+popcount kernel of Fig. 1 panel 3.
//! * [`BloomFilter`] / [`BloomCollection`] — Bloom filters with `b` seeded
//!   hash functions; the collection form stores all per-vertex filters in
//!   one flat word array (identical fixed size per set — the paper's load
//!   balancing argument).
//! * [`CountingBloomCollection`] — counting Bloom filters: packed 4-bit
//!   saturating counters behind a derived [`BloomCollection`] read view
//!   (counter > 0 ⇔ bit set), the first representation with a real
//!   deletion path.
//! * [`MinHashSignature`] / [`MinHashCollection`] — the k-hash MinHash
//!   variant: `k` independent hash functions, one minimum per function.
//! * [`BottomK`] / [`BottomKCollection`] — the 1-hash variant: a single
//!   hash function, the `k` elements with smallest hashes.
//! * [`KmvSketch`] — K-Minimum-Values (§IX), storing unit-interval hashes.
//! * [`HyperLogLog`] / [`HyperLogLogCollection`] — the §X extension beyond
//!   BF and MH, with a flat fixed-size collection form whose intersection
//!   estimator is one fused register-wise-max pass (no merged sketch).
//! * [`estimators`] — every `|X|` and `|X ∩ Y|` estimator of the paper as a
//!   pure function: Swamidass (Eq. 1), AND (Eq. 2), the limiting estimator
//!   (Eq. 4), OR (Eq. 29), k-hash (Eq. 5), 1-hash (§IV-D), KMV (Eq. 40/41),
//!   plus the pre-existing Papapetrou baseline the paper compares against.
//! * [`budget`] — the storage-budget parameter `s` (§V-A): converts a
//!   fraction of the CSR footprint into per-set sketch parameters.
//! * [`SetGeometry`] — where each set's window lies in a collection's
//!   flat arrays: the one layout of all six collections, with uniform as
//!   its one-stratum, stride-indexed case.
//!
//! Sketches of *sets of `u32` vertex IDs* are the only case ProbGraph
//! needs, so all APIs take sorted `&[u32]` sets; everything generalizes to
//! arbitrary hashable items by pre-hashing to IDs.
//!
//! ## Fused-kernel design
//!
//! The per-edge estimator cost is the whole ballgame (Table IV): every hot
//! path here is **single-pass and zero-allocation**.
//!
//! * [`bitvec::and_or_ones_words`] computes `B_{X∩Y,1}`, `B_{X∪Y,1}`,
//!   `B_{X,1}`, `B_{Y,1}` in one four-lane-unrolled traversal.
//! * [`BloomCollection`] caches every filter's popcount at build time and
//!   memoizes the Swamidass curve, so the AND (Eq. 2), Limit (Eq. 4) and
//!   OR (Eq. 29) estimators each cost **one** fused AND+popcount pass and
//!   a table lookup — `B_{X∪Y,1}` falls out of inclusion–exclusion.
//! * Construction batches all `b` bucket computations per key through
//!   [`pg_hash::HashFamily::for_each_bucket`] (key-side Murmur mixing
//!   hoisted out of the per-function loop).
//!
//! The `kernel_equivalence` suite proves each fused path bit-identical to
//! its naive multi-pass counterpart.

pub mod bitvec;
pub mod bloom;
pub mod bottomk;
pub mod budget;
pub mod counting_bloom;
mod cowvec;
pub mod estimators;
pub mod geometry;
mod heap;
pub mod hyperloglog;
pub mod kmv;
pub mod minhash;

pub use bitvec::{and_or_ones_words, BitVec, PairOnes};
pub use bloom::{
    fold_words_into, BloomCollection, BloomCollectionIn, BloomFilter, BloomFlatView,
    BloomFoldCache, BloomStratum, MAX_BLOOM_HASHES,
};
pub use bottomk::{BottomK, BottomKCollection, BottomKCollectionIn, PositionTable};
pub use budget::{
    BudgetPlan, PlanError, SketchParams, StrataSpec, StratifiedParams, StratifiedPlan, MAX_STRATA,
};
pub use counting_bloom::{CountingBloomCollection, CountingBloomCollectionIn};
pub use geometry::SetGeometry;
pub use hyperloglog::{
    fold_hll_registers_into, HyperLogLog, HyperLogLogCollection, HyperLogLogCollectionIn,
};
pub use kmv::{KmvCollection, KmvCollectionIn, KmvSketch, KmvSketchIn};
pub use minhash::{MinHashCollection, MinHashCollectionIn, MinHashSignature};
