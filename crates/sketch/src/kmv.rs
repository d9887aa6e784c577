//! K-Minimum-Values sketches (§IX of the paper).
//!
//! Unlike bottom-k MinHash, a KMV sketch stores the *hash values*
//! (unit-interval reals), not the elements. `|X|̂ = (k−1)/max(K_X)`, the
//! union sketch is the k smallest of `K_X ∪ K_Y`, and the intersection
//! follows by inclusion–exclusion (Eq. 40/41). Concentration bounds for
//! these estimators are Prop. A.7–A.9.

use crate::estimators;
use crate::geometry::SetGeometry;
use crate::heap::{sift_down, sift_up};
use pg_hash::HashFamily;
use std::borrow::Cow;

/// A KMV sketch: up to `k` smallest unit-interval hashes, ascending.
///
/// The hash list is copy-on-write over `'a` (see
/// [`crate::BloomCollectionIn`]): the owned alias [`KmvSketch`] is the
/// ordinary built/streamed form, while a borrowed sketch serves a
/// validated snapshot buffer in place.
#[derive(Clone, Debug, PartialEq)]
pub struct KmvSketchIn<'a> {
    hashes: Cow<'a, [f64]>,
    k: usize,
    set_size: usize,
}

/// The owned (`'static`) form of [`KmvSketchIn`].
pub type KmvSketch = KmvSketchIn<'static>;

impl<'a> KmvSketchIn<'a> {
    /// Builds the sketch of `items` with parameter `k`, hash seeded from
    /// `seed`. Comparable only across sketches with equal `seed`.
    pub fn from_set(items: &[u32], k: usize, seed: u64) -> Self {
        assert!(k > 0, "KMV needs k ≥ 1");
        let family = HashFamily::new(1, seed);
        let mut hashes: Vec<f64> = items.iter().map(|&x| family.unit(0, x as u64)).collect();
        // `HashFamily::unit` maps into (0, 1] — never NaN — so the total
        // order is the usual numeric order.
        hashes.sort_unstable_by(f64::total_cmp);
        hashes.dedup();
        hashes.truncate(k);
        KmvSketchIn {
            hashes: Cow::Owned(hashes),
            k,
            set_size: items.len(),
        }
    }

    /// Reconstructs a sketch from already-materialized parts (the
    /// snapshot load path; owned `Vec<f64>` or borrowed `&'a [f64]`).
    /// `hashes` must be strictly ascending values in (0, 1] with
    /// `hashes.len() ≤ k`; the snapshot loader validates this before
    /// calling.
    pub fn from_raw_parts(hashes: impl Into<Cow<'a, [f64]>>, k: usize, set_size: usize) -> Self {
        let hashes = hashes.into();
        assert!(k > 0, "KMV needs k ≥ 1");
        debug_assert!(hashes.len() <= k);
        debug_assert!(hashes.windows(2).all(|w| w[0] < w[1]));
        KmvSketchIn {
            hashes,
            k,
            set_size,
        }
    }

    /// Detaches the sketch from any borrowed snapshot buffer, cloning the
    /// hash list if it was served in place. No-op for owned data.
    pub fn into_owned(self) -> KmvSketch {
        KmvSketchIn {
            hashes: Cow::Owned(self.hashes.into_owned()),
            k: self.k,
            set_size: self.set_size,
        }
    }

    /// Configured `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The stored hash values, ascending.
    #[inline]
    pub fn hashes(&self) -> &[f64] {
        &self.hashes
    }

    /// Exact input-set size recorded at build time.
    #[inline]
    pub fn set_size(&self) -> usize {
        self.set_size
    }

    /// True when the sketch saw the whole set (`|X| ≤ k`).
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.hashes.len() < self.k || self.set_size <= self.k
    }

    /// `|X|̂_KMV = (k−1)/max(K_X)` (Eq. 39); exact count when the sketch is
    /// lossless.
    pub fn estimate_size(&self) -> f64 {
        if self.is_exact() {
            return self.hashes.len() as f64;
        }
        match self.hashes.last() {
            Some(&max) => estimators::kmv_size(max, self.hashes.len()),
            None => 0.0,
        }
    }

    /// The union sketch `K_{X∪Y}`: k smallest of the merged hash lists
    /// (`k = min(k_X, k_Y)` as §IX prescribes).
    pub fn union(&self, other: &KmvSketchIn<'_>) -> KmvSketch {
        let k = self.k.min(other.k);
        let mut merged = Vec::with_capacity(self.hashes.len() + other.hashes.len());
        let (a, b) = (&self.hashes, &other.hashes);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] < b[j] {
                merged.push(a[i]);
                i += 1;
            } else if b[j] < a[i] {
                merged.push(b[j]);
                j += 1;
            } else {
                // Same hash = same element (same hash function).
                merged.push(a[i]);
                i += 1;
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        let full_union_len = merged.len();
        merged.truncate(k);
        // The union's true size is unknown in general; mark it exact only
        // when both inputs were lossless AND the merge survived the
        // truncation to k — a truncated union of two lossless sketches is
        // an ordinary k-sample of X ∪ Y, not the whole union.
        let exact = self.is_exact() && other.is_exact() && full_union_len <= k;
        let set_size = if exact { merged.len() } else { usize::MAX };
        KmvSketchIn {
            hashes: Cow::Owned(merged),
            k,
            set_size,
        }
    }

    /// `|X∪Y|̂_KMV = (k−1)/max(K_{X∪Y})` (§IX).
    pub fn estimate_union_size(&self, other: &KmvSketchIn<'_>) -> f64 {
        self.union(other).estimate_size()
    }

    /// `Ĵ_KMV = p / k'`: the Beyer et al. union-membership Jaccard
    /// estimator, where `p` counts the hashes of the union sketch present
    /// in *both* input sketches and `k'` is the realized union-sketch size.
    /// The k smallest union hashes are `k'` uniform draws without
    /// replacement from `X ∪ Y`, and such a draw lies in both sketches iff
    /// its element lies in `X ∩ Y` — the same hypergeometric argument as
    /// the paper's 1-hash MinHash (§IV-D).
    pub fn estimate_jaccard(&self, other: &KmvSketchIn<'_>) -> f64 {
        // A union-sketch hash lies in both input sketches iff the merge walk
        // sees it on both sides simultaneously, so p accumulates in the same
        // single ascending pass that would build the union — no allocation,
        // no per-hash binary searches.
        let (p, seen) = union_match_walk(&self.hashes, &other.hashes, self.k.min(other.k));
        if seen == 0 {
            return 0.0;
        }
        p as f64 / seen as f64
    }

    /// `|X∩Y|̂_K` with exact set sizes, clamped below at 0.
    ///
    /// Lossless sketches give the exact count. Otherwise the Eq. (5)
    /// transform of [`KmvSketch::estimate_jaccard`] is used: its error
    /// scales with `|X∩Y|` itself, whereas the paper's Eq. (41)
    /// inclusion–exclusion form has error scaling with `|X∪Y|` — ruinous when the intersection is a small
    /// fraction of the union, which is the common case for per-edge
    /// neighborhood intersections.
    pub fn estimate_intersection(&self, other: &KmvSketchIn<'_>) -> f64 {
        if self.is_exact() && other.is_exact() {
            // Both sketches hold every hash of their set, so the number of
            // common hashes IS |X ∩ Y| (same hash function, duplicates
            // collapsed). Count it with an uncapped merge walk — the k-capped
            // union() must NOT be used here: truncation would undercount the
            // union and inflate the inclusion–exclusion result.
            return count_common_hashes(&self.hashes, &other.hashes) as f64;
        }
        estimators::jaccard_to_intersection(
            self.estimate_jaccard(other),
            self.set_size,
            other.set_size,
        )
        .max(0.0)
    }

    /// Two-lane batched `|X∩Y|̂_K`: estimates this sketch against **two**
    /// destination sketches at once. When both pairs are in the sampling
    /// regime the two union-membership merge walks advance in lockstep
    /// ([`union_match_walk_x2`]) so their data-dependent branch chains
    /// overlap instead of serializing; any lane touching the lossless
    /// shortcut falls back to the scalar path. Each lane's result is
    /// bit-identical to [`KmvSketch::estimate_intersection`].
    pub fn estimate_intersection_x2(
        &self,
        o0: &KmvSketchIn<'_>,
        o1: &KmvSketchIn<'_>,
    ) -> (f64, f64) {
        let exact0 = self.is_exact() && o0.is_exact();
        let exact1 = self.is_exact() && o1.is_exact();
        if exact0 || exact1 {
            return (
                self.estimate_intersection(o0),
                self.estimate_intersection(o1),
            );
        }
        let ((p0, seen0), (p1, seen1)) = union_match_walk_x2(
            &self.hashes,
            &o0.hashes,
            self.k.min(o0.k),
            &o1.hashes,
            self.k.min(o1.k),
        );
        let finish = |p: usize, seen: usize, other: &KmvSketchIn<'_>| {
            let j = if seen == 0 {
                0.0
            } else {
                p as f64 / seen as f64
            };
            estimators::jaccard_to_intersection(j, self.set_size, other.set_size).max(0.0)
        };
        (finish(p0, seen0, o0), finish(p1, seen1, o1))
    }

    /// Absorbs pre-hashed values into the sketch in place; `items` is how
    /// many input elements they came from (`set_size` bookkeeping).
    ///
    /// The stored ascending list is reversed into a bounded max-heap
    /// (descending order is already heap order), each hash costs an
    /// `O(log k)` push / replace-root step, and one final sort restores
    /// the ascending view — so a batch of inserts pays one sort, not one
    /// memmove per element. Keeping the k smallest values of a stream is
    /// associative, hence the result equals a from-scratch build over the
    /// extended set (callers must not re-insert elements already in the
    /// set; an exact duplicate hash is collapsed like the offline build's
    /// dedup, but only if it never forced an eviction).
    pub fn absorb<I: IntoIterator<Item = f64>>(&mut self, hs: I, items: usize) {
        self.set_size = self.set_size.saturating_add(items);
        let k = self.k;
        let hashes = self.hashes.to_mut();
        hashes.reverse();
        for h in hs {
            if hashes.len() < k {
                hashes.push(h);
                let last = hashes.len() - 1;
                sift_up(hashes, last);
            } else if h < hashes[0] {
                hashes[0] = h;
                sift_down(hashes, 0);
            }
        }
        // Hashes come from `HashFamily::unit` — (0, 1], never NaN.
        hashes.sort_unstable_by(f64::total_cmp);
        hashes.dedup();
    }
}

/// Uncapped merge walk counting hashes present in both ascending lists.
/// Hash equality is exact: both lists store outputs of the same
/// deterministic function. Branchless pointer updates: per union element
/// the walk does two compares and three conditional increments instead of
/// a three-way branch the predictor loses on (merge-order outcomes are
/// data-random), which roughly halves the walk's cost.
fn count_common_hashes(a: &[f64], b: &[f64]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        c += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    c
}

/// Merge walk over the first `cap` distinct union hashes of two ascending
/// lists; returns `(matches, union_seen)` where `matches` counts union
/// hashes present in **both** lists and `union_seen ≤ cap` is how many
/// union hashes were available. Mirrors `union_matches` in the bottom-k
/// module — the hypergeometric sampling argument is the same.
///
/// The loop is branchless per union element (see [`count_common_hashes`]);
/// once either list is exhausted no further matches are possible, so the
/// remaining union draws are counted in one step instead of walked.
fn union_match_walk(a: &[f64], b: &[f64], cap: usize) -> (usize, usize) {
    let (mut i, mut j) = (0, 0);
    let mut taken = 0usize;
    let mut matches = 0usize;
    while taken < cap && i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        matches += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        taken += 1;
    }
    // Tail: at most one list still has elements; each is one union draw.
    let rest = (a.len() - i) + (b.len() - j);
    taken += rest.min(cap - taken);
    (matches, taken)
}

/// Two [`union_match_walk`]s sharing one source list `a`, advanced in
/// lockstep: each loop iteration performs one branchless step of each
/// still-active lane, so the two load→compare→increment dependency
/// chains interleave and pipeline instead of serializing. Per lane the
/// `(matches, taken)` result is exactly the scalar walk's.
fn union_match_walk_x2(
    a: &[f64],
    b0: &[f64],
    cap0: usize,
    b1: &[f64],
    cap1: usize,
) -> ((usize, usize), (usize, usize)) {
    let (mut i0, mut j0, mut m0, mut t0) = (0usize, 0usize, 0usize, 0usize);
    let (mut i1, mut j1, mut m1, mut t1) = (0usize, 0usize, 0usize, 0usize);
    loop {
        // Both-active fast path: two interleaved branchless steps.
        while t0 < cap0
            && i0 < a.len()
            && j0 < b0.len()
            && t1 < cap1
            && i1 < a.len()
            && j1 < b1.len()
        {
            let (x0, y0) = (a[i0], b0[j0]);
            let (x1, y1) = (a[i1], b1[j1]);
            m0 += usize::from(x0 == y0);
            m1 += usize::from(x1 == y1);
            i0 += usize::from(x0 <= y0);
            i1 += usize::from(x1 <= y1);
            j0 += usize::from(y0 <= x0);
            j1 += usize::from(y1 <= x1);
            t0 += 1;
            t1 += 1;
        }
        // One lane went inactive: finish the other with the scalar walk's
        // merge phase, then stop.
        let act0 = t0 < cap0 && i0 < a.len() && j0 < b0.len();
        let act1 = t1 < cap1 && i1 < a.len() && j1 < b1.len();
        if act0 {
            let (x, y) = (a[i0], b0[j0]);
            m0 += usize::from(x == y);
            i0 += usize::from(x <= y);
            j0 += usize::from(y <= x);
            t0 += 1;
        } else if act1 {
            let (x, y) = (a[i1], b1[j1]);
            m1 += usize::from(x == y);
            i1 += usize::from(x <= y);
            j1 += usize::from(y <= x);
            t1 += 1;
        } else {
            break;
        }
    }
    // Exhaustion tails, one step each (same shortcut as the scalar walk).
    let rest0 = (a.len() - i0) + (b0.len() - j0);
    t0 += rest0.min(cap0 - t0);
    let rest1 = (a.len() - i1) + (b1.len() - j1);
    t1 += rest1.min(cap1 - t1);
    ((m0, t0), (m1, t1))
}

/// All KMV sketches of a ProbGraph representation (flat storage).
///
/// A collection may be **stratified**: its [`SetGeometry`] gives each
/// sketch its own `k` (the uniform layout is the one-stratum case).
/// Cross-stratum estimators need no special casing — every pairwise path
/// already truncates to `min(k)`, and a KMV sketch truncated to `k' < k`
/// entries is exactly the sketch built at `k'`.
#[derive(Clone, Debug)]
pub struct KmvCollectionIn<'a> {
    sketches: Vec<KmvSketchIn<'a>>,
    /// Per-set `k` (only the widths are read: each sketch holds its own
    /// hash list).
    geom: SetGeometry<'a>,
    /// The single seeded hash function — kept after construction so
    /// streamed elements can be hashed for in-place absorption.
    family: HashFamily,
}

/// The owned (`'static`) form of [`KmvCollectionIn`].
pub type KmvCollection = KmvCollectionIn<'static>;

impl<'a> KmvCollectionIn<'a> {
    /// Builds sketches for `n_sets` sets in parallel.
    pub fn build<'s, F>(n_sets: usize, k: usize, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        assert!(k > 0, "KMV needs k ≥ 1");
        Self::build_on(SetGeometry::uniform(n_sets, k), seed, set)
    }

    /// Builds one sketch per set of `geom` in parallel: sketch `i` keeps
    /// the `geom.width_of(i)` smallest hashes.
    pub fn build_on<'s, F>(geom: SetGeometry<'a>, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        let sketches = pg_parallel::parallel_init(geom.len(), |s| {
            KmvSketch::from_set(set(s), geom.width_of(s), seed)
        });
        KmvCollectionIn {
            sketches,
            geom,
            family: HashFamily::new(1, seed),
        }
    }

    /// Reconstructs a collection from already-validated sketches built
    /// under `seed` (the snapshot load path); sketch `i`'s `k` must be
    /// `geom.width_of(i)`.
    pub fn from_sketches(sketches: Vec<KmvSketchIn<'a>>, geom: SetGeometry<'a>, seed: u64) -> Self {
        assert_eq!(sketches.len(), geom.len(), "one sketch per set");
        debug_assert!(sketches
            .iter()
            .enumerate()
            .all(|(i, s)| s.k == geom.width_of(i)));
        KmvCollectionIn {
            sketches,
            geom,
            family: HashFamily::new(1, seed),
        }
    }

    /// Overwrites `self` with the concatenation of `parts`' sketches, in
    /// order — the serving layer's double-buffer publish path. All parts
    /// must have been built under one width table and seed. Sketches
    /// already present in `self` keep their per-sketch hash allocations
    /// (owned lists clear-and-refill), so a steady-state publish allocates
    /// nothing beyond hash vectors that grew since the last epoch.
    pub fn gather_into(&mut self, parts: &[&KmvCollectionIn<'_>]) {
        self.geom.gather_into(parts.iter().map(|p| &p.geom));
        let total: usize = parts.iter().map(|p| p.sketches.len()).sum();
        self.sketches.truncate(total);
        let mut src = parts.iter().flat_map(|p| p.sketches.iter());
        for dst in self.sketches.iter_mut() {
            let s = src.next().expect("src covers the truncated prefix");
            match &mut dst.hashes {
                Cow::Owned(v) => {
                    v.clear();
                    v.extend_from_slice(&s.hashes);
                }
                h => *h = Cow::Owned(s.hashes.to_vec()),
            }
            dst.k = s.k;
            dst.set_size = s.set_size;
        }
        self.sketches.extend(src.map(|s| KmvSketchIn {
            hashes: Cow::Owned(s.hashes.to_vec()),
            k: s.k,
            set_size: s.set_size,
        }));
    }

    /// Detaches the collection from any borrowed snapshot buffer, cloning
    /// in-place-served hash lists. No-op for owned data.
    pub fn into_owned(self) -> KmvCollection {
        KmvCollectionIn {
            sketches: self
                .sketches
                .into_iter()
                .map(KmvSketchIn::into_owned)
                .collect(),
            geom: self.geom.into_owned(),
            family: self.family,
        }
    }

    /// Inserts one element into sketch `i` in place.
    #[inline]
    pub fn insert(&mut self, i: usize, x: u32) {
        self.insert_batch(i, std::slice::from_ref(&x));
    }

    /// Batched per-set insert: hashes `xs` and absorbs them into sketch
    /// `i` through one bounded-heap pass ([`KmvSketch::absorb`]).
    pub fn insert_batch(&mut self, i: usize, xs: &[u32]) {
        let family = &self.family;
        self.sketches[i].absorb(xs.iter().map(|&x| family.unit(0, x as u64)), xs.len());
    }

    /// Number of sketches.
    #[inline]
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// True when the collection holds no sketches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// The sketch of set `i`.
    #[inline]
    pub fn sketch(&self, i: usize) -> &KmvSketchIn<'a> {
        &self.sketches[i]
    }

    /// Sketch size of set `i`.
    #[inline]
    pub fn k_of(&self, i: usize) -> usize {
        self.sketches[i].k
    }

    /// Stratum index of set `i` (0 for uniform collections).
    #[inline]
    pub fn stratum_of(&self, i: usize) -> usize {
        self.geom.stratum_of(i)
    }

    /// The per-set `k`, as a window layout in hash slots.
    #[inline]
    pub fn geometry(&self) -> &SetGeometry<'a> {
        &self.geom
    }

    /// `|X∩Y|̂_K` between sets `i` and `j`.
    #[inline]
    pub fn estimate_intersection(&self, i: usize, j: usize) -> f64 {
        self.sketches[i].estimate_intersection(&self.sketches[j])
    }

    /// Bytes of sketch storage.
    pub fn memory_bytes(&self) -> usize {
        self.sketches.iter().map(|s| s.hashes.len() * 8 + 24).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_estimate_large_set() {
        let x: Vec<u32> = (0..10_000).collect();
        let s = KmvSketch::from_set(&x, 256, 3);
        let est = s.estimate_size();
        assert!((est - 10_000.0).abs() < 1500.0, "est={est}");
    }

    #[test]
    fn small_set_is_exact() {
        let x = [1u32, 5, 7];
        let s = KmvSketch::from_set(&x, 64, 1);
        assert!(s.is_exact());
        assert_eq!(s.estimate_size(), 3.0);
    }

    #[test]
    fn hashes_sorted_and_bounded() {
        let x: Vec<u32> = (0..500).collect();
        let s = KmvSketch::from_set(&x, 32, 9);
        assert_eq!(s.hashes().len(), 32);
        assert!(s.hashes().windows(2).all(|w| w[0] < w[1]));
        assert!(s.hashes().iter().all(|&h| h > 0.0 && h <= 1.0));
    }

    #[test]
    fn union_of_identical_sets_is_same_sketch() {
        let x: Vec<u32> = (0..300).collect();
        let a = KmvSketch::from_set(&x, 32, 4);
        let u = a.union(&a);
        assert_eq!(u.hashes(), a.hashes());
    }

    #[test]
    fn union_size_estimate() {
        let x: Vec<u32> = (0..3000).collect();
        let y: Vec<u32> = (1500..4500).collect(); // |union| = 4500
        let a = KmvSketch::from_set(&x, 256, 4);
        let b = KmvSketch::from_set(&y, 256, 4);
        let u = a.estimate_union_size(&b);
        assert!((u - 4500.0).abs() < 700.0, "u={u}");
    }

    #[test]
    fn intersection_estimate() {
        let x: Vec<u32> = (0..3000).collect();
        let y: Vec<u32> = (1500..4500).collect(); // |inter| = 1500
        let a = KmvSketch::from_set(&x, 512, 4);
        let b = KmvSketch::from_set(&y, 512, 4);
        let i = a.estimate_intersection(&b);
        assert!((i - 1500.0).abs() < 600.0, "i={i}");
    }

    #[test]
    fn fused_jaccard_walk_matches_materialized_union() {
        // The single-pass union_match_walk must agree with the definition:
        // count union-sketch hashes present in both input sketches.
        for (nx, ny, overlap, k) in [(300, 300, 100, 64), (50, 500, 25, 32), (10, 10, 10, 16)] {
            let x: Vec<u32> = (0..nx).collect();
            let y: Vec<u32> = (nx - overlap..nx - overlap + ny).collect();
            let a = KmvSketch::from_set(&x, k, 5);
            let b = KmvSketch::from_set(&y, k, 5);
            let u = a.union(&b);
            let p_ref = u
                .hashes()
                .iter()
                .filter(|h| a.hashes().contains(h) && b.hashes().contains(h))
                .count();
            let (p, seen) = super::union_match_walk(a.hashes(), b.hashes(), k);
            assert_eq!(p, p_ref, "nx={nx} ny={ny} k={k}");
            assert_eq!(seen, u.hashes().len(), "nx={nx} ny={ny} k={k}");
        }
    }

    #[test]
    fn lossless_pair_with_truncated_union_stays_exact() {
        // Regression: k=32, |X|=|Y|=30 disjoint — both sketches lossless but
        // the merged union (60) exceeds k. The old exact path truncated the
        // union to k and reported 30+30−32 = 28 instead of 0.
        let x: Vec<u32> = (0..30).collect();
        let y: Vec<u32> = (1000..1030).collect();
        let a = KmvSketch::from_set(&x, 32, 9);
        let b = KmvSketch::from_set(&y, 32, 9);
        assert!(a.is_exact() && b.is_exact());
        assert_eq!(a.estimate_intersection(&b), 0.0);
        // Overlapping lossless pair: exact count too.
        let z: Vec<u32> = (20..50).collect();
        let c = KmvSketch::from_set(&z, 32, 9);
        assert_eq!(a.estimate_intersection(&c), 10.0);
        // And the truncated union must no longer claim exactness.
        assert!(!a.union(&b).is_exact());
        assert!(a.union(&a).is_exact());
    }

    #[test]
    fn two_lane_walk_matches_scalar_across_regimes() {
        // Mix of lossless (small) and sampled (large) sketches so both
        // the interleaved fast path and the scalar fallback are hit.
        let sets: Vec<Vec<u32>> = vec![
            (0..2000).collect(),
            (1000..3000).collect(),
            (0..10).collect(), // lossless
            (5..25).collect(), // lossless
            (500..2500).collect(),
            vec![], // empty
        ];
        let col = KmvCollection::build(sets.len(), 64, 3, |i| &sets[i][..]);
        for i in 0..sets.len() {
            let s = col.sketch(i);
            for j in 0..sets.len() - 1 {
                let (e0, e1) = s.estimate_intersection_x2(col.sketch(j), col.sketch(j + 1));
                assert_eq!(e0, s.estimate_intersection(col.sketch(j)), "i={i} j={j}");
                assert_eq!(
                    e1,
                    s.estimate_intersection(col.sketch(j + 1)),
                    "i={i} j={j}"
                );
            }
        }
    }

    #[test]
    fn disjoint_intersection_clamped_nonnegative() {
        let x: Vec<u32> = (0..1000).collect();
        let y: Vec<u32> = (5000..6000).collect();
        let a = KmvSketch::from_set(&x, 128, 2);
        let b = KmvSketch::from_set(&y, 128, 2);
        assert!(a.estimate_intersection(&b) >= 0.0);
        assert!(a.estimate_intersection(&b) < 300.0);
    }

    #[test]
    fn empty_set_estimates_zero() {
        let e = KmvSketch::from_set(&[], 16, 1);
        assert_eq!(e.estimate_size(), 0.0);
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        // Stored hash lists (and hence every estimate) after streaming a
        // suffix must equal a from-scratch build over the extended sets.
        let full: Vec<Vec<u32>> = (0..10)
            .map(|s| (0..5 + s * 17).map(|i| (i * 7 + s) as u32).collect())
            .collect();
        let k = 16;
        let want = KmvCollection::build(full.len(), k, 31, |i| &full[i][..]);
        let mut got = KmvCollection::build(full.len(), k, 31, |i| &full[i][..full[i].len() / 3]);
        for (i, set) in full.iter().enumerate() {
            got.insert_batch(i, &set[set.len() / 3..]);
        }
        for i in 0..full.len() {
            assert_eq!(got.sketch(i), want.sketch(i), "set {i}");
            for j in 0..full.len() {
                assert_eq!(
                    got.estimate_intersection(i, j),
                    want.estimate_intersection(i, j),
                    "({i},{j})"
                );
            }
        }
        // Single-element path agrees too.
        let mut one = KmvCollection::build(1, 4, 2, |_| &[][..]);
        for x in [3u32, 14, 15, 9, 26, 5] {
            one.insert(0, x);
        }
        let rebuilt = KmvCollection::build(1, 4, 2, |_| &[3u32, 14, 15, 9, 26, 5][..]);
        assert_eq!(one.sketch(0), rebuilt.sketch(0));
    }

    #[test]
    fn one_stratum_build_is_bit_identical_to_uniform() {
        let sets: Vec<Vec<u32>> = (0..8)
            .map(|s| (0..20 + s * 30).map(|i| (i * 7 + s) as u32).collect())
            .collect();
        let uniform = KmvCollection::build(sets.len(), 32, 9, |i| &sets[i][..]);
        let one = SetGeometry::stratified(vec![32], vec![0u8; sets.len()]);
        let strat = KmvCollection::build_on(one, 9, |i| &sets[i][..]);
        assert!(
            strat.geometry().is_uniform(),
            "one stratum must lower to uniform"
        );
        for i in 0..sets.len() {
            assert_eq!(strat.sketch(i), uniform.sketch(i), "set {i}");
        }
    }

    /// Stratified geometry with per-stratum `ks`.
    fn strata(ks: &[usize], assign: &[u8]) -> SetGeometry<'static> {
        SetGeometry::stratified(ks.to_vec(), assign.to_vec())
    }

    #[test]
    fn cross_stratum_pairs_match_both_built_at_the_narrow_k() {
        // A KMV sketch truncated to k' entries is the k'-sketch, and all
        // pairwise paths min(k)-truncate — so a (k=64, k=16) pair must
        // estimate exactly like both sets sketched at k=16.
        let sets: Vec<Vec<u32>> = (0..9)
            .map(|s| (0..10 + s * 60).map(|i| (i * 5 + s) as u32).collect())
            .collect();
        let ks = [64, 32, 16];
        let assign: Vec<u8> = (0..sets.len()).map(|i| (i % 3) as u8).collect();
        let strat = KmvCollection::build_on(strata(&ks, &assign), 5, |i| &sets[i][..]);
        for i in 0..sets.len() {
            assert_eq!(strat.k_of(i), ks[assign[i] as usize]);
            for j in 0..sets.len() {
                let kmin = strat.k_of(i).min(strat.k_of(j));
                let narrow = KmvCollection::build(sets.len(), kmin, 5, |s| &sets[s][..]);
                let a_regime = strat.sketch(i).is_exact() == narrow.sketch(i).is_exact();
                let b_regime = strat.sketch(j).is_exact() == narrow.sketch(j).is_exact();
                if a_regime && b_regime {
                    assert_eq!(
                        strat.estimate_intersection(i, j),
                        narrow.estimate_intersection(i, j),
                        "i={i} j={j}"
                    );
                }
                let j1 = (j + 1) % sets.len();
                let (e0, e1) = strat
                    .sketch(i)
                    .estimate_intersection_x2(strat.sketch(j), strat.sketch(j1));
                assert_eq!(e0, strat.estimate_intersection(i, j), "x2 ({i},{j})");
                assert_eq!(e1, strat.estimate_intersection(i, j1), "x2 ({i},{j1})");
            }
        }
    }

    #[test]
    fn stratified_insert_matches_stratified_rebuild() {
        let full: Vec<Vec<u32>> = (0..8)
            .map(|s| (0..5 + s * 17).map(|i| (i * 7 + s) as u32).collect())
            .collect();
        let assign: Vec<u8> = (0..full.len()).map(|i| (i % 2) as u8).collect();
        let geom = strata(&[24, 8], &assign);
        let want = KmvCollection::build_on(geom.clone(), 31, |i| &full[i][..]);
        let mut got = KmvCollection::build_on(geom, 31, |i| &full[i][..full[i].len() / 3]);
        for (i, set) in full.iter().enumerate() {
            got.insert_batch(i, &set[set.len() / 3..]);
        }
        for i in 0..full.len() {
            assert_eq!(got.sketch(i), want.sketch(i), "set {i}");
        }
    }

    #[test]
    fn stratified_gather_concatenates_parts() {
        let sets: Vec<Vec<u32>> = (0..8)
            .map(|s| (0..10 + s * 11).map(|i| (i * 3 + s) as u32).collect())
            .collect();
        let ks = [16, 4];
        let assign: Vec<u8> = (0..8).map(|i| (i % 2) as u8).collect();
        let whole = KmvCollection::build_on(strata(&ks, &assign), 5, |i| &sets[i][..]);
        let left = KmvCollection::build_on(strata(&ks, &assign[..4]), 5, |i| &sets[i][..]);
        let right = KmvCollection::build_on(strata(&ks, &assign[4..]), 5, |i| &sets[i + 4][..]);
        let mut gathered = left.clone();
        gathered.gather_into(&[&left, &right]);
        assert_eq!(gathered.geometry(), whole.geometry());
        for i in 0..8 {
            assert_eq!(gathered.sketch(i), whole.sketch(i), "set {i}");
        }
    }

    #[test]
    fn collection_consistent_with_standalone() {
        let sets: Vec<Vec<u32>> = (0..20)
            .map(|s| (0..100 + s * 10).map(|i| (i * 7 + s) as u32).collect())
            .collect();
        let col = KmvCollection::build(sets.len(), 32, 6, |i| &sets[i][..]);
        let a = KmvSketch::from_set(&sets[2], 32, 6);
        assert_eq!(col.sketch(2), &a);
        let b = KmvSketch::from_set(&sets[9], 32, 6);
        assert!((col.estimate_intersection(2, 9) - a.estimate_intersection(&b)).abs() < 1e-12);
    }
}
