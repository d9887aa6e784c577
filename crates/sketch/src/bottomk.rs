//! MinHash, 1-hash variant — "bottom-k" (§II-D, §IV-D of the paper).
//!
//! One hash function `h`; the sketch keeps the `k` elements of the set with
//! the smallest hashes. Never contains duplicates, and costs only one hash
//! evaluation per element to build (`O(d_v)` work, Table V) — which is why
//! the paper finds 1-hash faster to construct than k-hash.
//!
//! The paper's distributional claim — `|M¹_X ∩ M¹_Y|` follows
//! `Hypergeometric(|X∪Y|, |X∩Y|, k)` (§IV-D, footnote 4) — holds for the
//! *union-restricted* match count: the `k` hash-smallest elements of
//! `X ∪ Y` are `k` uniform draws without replacement from the union, and
//! such a draw lies in both samples iff it lies in `X ∩ Y`. We therefore
//! count matches among the bottom-k of the union (the classic bottom-k
//! estimator), which is what makes `Ĵ_1H = matches/k` unbiased and
//! Prop. IV.3's exponential bound applicable. Samples are stored in hash
//! order so this union-merge costs `O(k)` (Table IV).
//!
//! A collection may be **stratified**: its [`SetGeometry`] gives each
//! set's sample cap `k` per stratum (the uniform layout is the
//! one-stratum case). Cross-stratum pairs walk the first
//! `min(k_i, k_j)` union draws — exact, because truncating a bottom-k
//! sample to its `k' < k` hash-smallest entries *is* the bottom-`k'`
//! sample, so the capped walk equals both sketches built at the narrower
//! cap. The offsets/lens layout is heterogeneous anyway; stratification
//! only varies the per-set capacity.

use crate::cowvec::cow_clear;
use crate::estimators;
use crate::geometry::SetGeometry;
use crate::heap::{sift_down, sift_up};
use pg_hash::HashFamily;
use std::borrow::Cow;

/// A bottom-k sketch of one set: the (up to) `k` elements with smallest
/// hashes, stored in ascending hash order.
#[derive(Clone, Debug)]
pub struct BottomK {
    elems: Vec<u32>,
    hashes: Vec<u32>,
    k: usize,
    set_size: usize,
}

/// Selects the `k` elements of `items` with the smallest `(hash, id)` keys,
/// returned in ascending `(hash, id)` order.
fn select_bottom_k(items: &[u32], k: usize, family: &HashFamily) -> (Vec<u32>, Vec<u32>) {
    let mut keyed: Vec<(u32, u32)> = items
        .iter()
        .map(|&x| (family.hash32(0, x as u64), x))
        .collect();
    keyed.sort_unstable();
    keyed.dedup(); // duplicate input items collapse
    keyed.truncate(k);
    let hashes: Vec<u32> = keyed.iter().map(|&(h, _)| h).collect();
    let elems: Vec<u32> = keyed.into_iter().map(|(_, x)| x).collect();
    (elems, hashes)
}

/// Union-restricted match count: merges two hash-ordered samples, walks the
/// first `k` distinct elements of the union, and counts those present in
/// *both* samples. Returns `(matches, union_seen)` where `union_seen ≤ k`
/// is how many union elements were available (if `< k`, the union was
/// exhausted and the count is exact).
///
/// The precomputed `(hash, element)` keys — no hashing in the kernel, as
/// the paper's `O(k)` Table IV cost requires — are packed into one `u64`
/// whose ordering equals the tuple ordering, and the merge advances with
/// branchless conditional increments: merge-order outcomes are
/// data-random, so a three-way branch is a predictor loss on every other
/// element, while compare+increment pipelines. Once either sample is
/// exhausted no matches remain and the leftover union draws are counted
/// in one step.
fn union_matches(a: &[u32], ah: &[u32], b: &[u32], bh: &[u32], k: usize) -> (usize, usize) {
    debug_assert_eq!(a.len(), ah.len());
    debug_assert_eq!(b.len(), bh.len());
    #[inline(always)]
    fn key(h: &[u32], e: &[u32], t: usize) -> u64 {
        (h[t] as u64) << 32 | e[t] as u64
    }
    let mut i = 0;
    let mut j = 0;
    let mut taken = 0usize;
    let mut matches = 0usize;
    while taken < k && i < a.len() && j < b.len() {
        let ka = key(ah, a, i);
        let kb = key(bh, b, j);
        matches += usize::from(ka == kb);
        i += usize::from(ka <= kb);
        j += usize::from(kb <= ka);
        taken += 1;
    }
    // Tail: at most one sample still has elements; each is one union draw.
    let rest = (a.len() - i) + (b.len() - j);
    taken += rest.min(k - taken);
    (matches, taken)
}

/// Two-lane lockstep form of [`union_matches`] sharing one source sample:
/// each loop iteration advances one branchless step of each still-active
/// lane, so the two load→compare→increment dependency chains interleave
/// and pipeline. Per lane the `(matches, taken)` result is exactly the
/// scalar walk's.
#[allow(clippy::too_many_arguments)]
fn union_matches_x2(
    a: &[u32],
    ah: &[u32],
    b0: &[u32],
    bh0: &[u32],
    b1: &[u32],
    bh1: &[u32],
    k0: usize,
    k1: usize,
) -> ((usize, usize), (usize, usize)) {
    #[inline(always)]
    fn key(h: &[u32], e: &[u32], t: usize) -> u64 {
        (h[t] as u64) << 32 | e[t] as u64
    }
    let (mut i0, mut j0, mut m0, mut t0) = (0usize, 0usize, 0usize, 0usize);
    let (mut i1, mut j1, mut m1, mut t1) = (0usize, 0usize, 0usize, 0usize);
    loop {
        while t0 < k0 && i0 < a.len() && j0 < b0.len() && t1 < k1 && i1 < a.len() && j1 < b1.len() {
            let ka0 = key(ah, a, i0);
            let kb0 = key(bh0, b0, j0);
            let ka1 = key(ah, a, i1);
            let kb1 = key(bh1, b1, j1);
            m0 += usize::from(ka0 == kb0);
            m1 += usize::from(ka1 == kb1);
            i0 += usize::from(ka0 <= kb0);
            i1 += usize::from(ka1 <= kb1);
            j0 += usize::from(kb0 <= ka0);
            j1 += usize::from(kb1 <= ka1);
            t0 += 1;
            t1 += 1;
        }
        let act0 = t0 < k0 && i0 < a.len() && j0 < b0.len();
        let act1 = t1 < k1 && i1 < a.len() && j1 < b1.len();
        if act0 {
            let ka = key(ah, a, i0);
            let kb = key(bh0, b0, j0);
            m0 += usize::from(ka == kb);
            i0 += usize::from(ka <= kb);
            j0 += usize::from(kb <= ka);
            t0 += 1;
        } else if act1 {
            let ka = key(ah, a, i1);
            let kb = key(bh1, b1, j1);
            m1 += usize::from(ka == kb);
            i1 += usize::from(ka <= kb);
            j1 += usize::from(kb <= ka);
            t1 += 1;
        } else {
            break;
        }
    }
    let rest0 = (a.len() - i0) + (b0.len() - j0);
    t0 += rest0.min(k0 - t0);
    let rest1 = (a.len() - i1) + (b1.len() - j1);
    t1 += rest1.min(k1 - t1);
    ((m0, t0), (m1, t1))
}

impl BottomK {
    /// Builds the sketch of `items` with parameter `k` and a hash seeded
    /// from `seed`. Comparable only across sketches with equal `k`/`seed`.
    pub fn from_set(items: &[u32], k: usize, seed: u64) -> Self {
        assert!(k > 0, "bottom-k needs k ≥ 1");
        let family = HashFamily::new(1, seed);
        let (elems, hashes) = select_bottom_k(items, k, &family);
        BottomK {
            elems,
            hashes,
            k,
            set_size: items.len(),
        }
    }

    /// Configured `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The stored sample, in ascending hash order.
    #[inline]
    pub fn elements(&self) -> &[u32] {
        &self.elems
    }

    /// Exact size of the sketched set (free to record at build time; the
    /// paper's Eq. (5) uses exact `|X|`, `|Y|` anyway).
    #[inline]
    pub fn set_size(&self) -> usize {
        self.set_size
    }

    /// True when the sketch stored the whole set (`|X| ≤ k`), i.e. it is
    /// lossless.
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.set_size <= self.k
    }

    /// Union-restricted `|M¹_X ∩ M¹_Y|` (see module docs); `O(k)`.
    pub fn matches(&self, other: &BottomK) -> usize {
        assert_eq!(self.k, other.k, "sketches differ in k");
        union_matches(
            &self.elems,
            &self.hashes,
            &other.elems,
            &other.hashes,
            self.k,
        )
        .0
    }

    /// `Ĵ_1H = matches / k'` where `k'` is the number of union draws
    /// actually seen (`k` in the sampling regime); when both sketches are
    /// lossless the whole sets are available and the exact Jaccard is
    /// returned instead.
    pub fn estimate_jaccard(&self, other: &BottomK) -> f64 {
        if self.is_exact() && other.is_exact() {
            // Uncapped merge over the full stored sets.
            let cap = self.elems.len() + other.elems.len();
            let (matches, _) = union_matches(
                &self.elems,
                &self.hashes,
                &other.elems,
                &other.hashes,
                cap.max(1),
            );
            let union = cap - matches;
            return if union == 0 {
                0.0
            } else {
                matches as f64 / union as f64
            };
        }
        let (matches, seen) = union_matches(
            &self.elems,
            &self.hashes,
            &other.elems,
            &other.hashes,
            self.k,
        );
        if seen == 0 {
            return 0.0;
        }
        estimators::mh_jaccard(matches, seen)
    }

    /// `|X∩Y|̂_1H` (Eq. 5 form).
    ///
    /// When both sketches are lossless (`|X| ≤ k` and `|Y| ≤ k`) the full
    /// sets are stored, so the exact `|X∩Y|` (uncapped merge) is returned
    /// directly.
    pub fn estimate_intersection(&self, other: &BottomK) -> f64 {
        if self.is_exact() && other.is_exact() {
            let cap = (self.elems.len() + other.elems.len()).max(1);
            return union_matches(&self.elems, &self.hashes, &other.elems, &other.hashes, cap).0
                as f64;
        }
        let (matches, _) = union_matches(
            &self.elems,
            &self.hashes,
            &other.elems,
            &other.hashes,
            self.k,
        );
        estimators::jaccard_to_intersection(
            estimators::mh_jaccard(matches, self.k),
            self.set_size,
            other.set_size,
        )
    }
}

/// All bottom-k sketches of a ProbGraph representation: one flat element
/// array plus per-set offsets (sets smaller than `k` store fewer entries).
///
/// ## Streaming layout
///
/// The static build tight-packs samples (`offsets[i+1] − offsets[i]` is
/// each sample's exact length). The first in-place insert converts the
/// arrays once to a *strided* layout — every set owns a full capacity-`k`
/// region with a live length in `lens` — because samples grow under
/// insertion and tight packing would force an `O(total)` shift per
/// element. `k` slots of 8 bytes per set is exactly what
/// `BudgetPlan::onehash` charges (Table I's `W·k` bits), so the strided
/// form stays inside the same storage budget the static form was planned
/// under. Inside one [`BottomKCollection::insert_batch`] call the touched
/// region is maintained as a bounded max-heap on the packed
/// `(hash, element)` key (`O(log k)` per element instead of an `O(k)`
/// sorted-insert shift) and re-sorted once at the end of the batch, so
/// the sorted-slice views every merge-walk estimator reads stay valid
/// between batches.
/// All five flat arrays are copy-on-write over `'a` (see
/// [`crate::BloomCollectionIn`]): borrowed collections serve a validated
/// snapshot buffer in place; the first insert into a borrowed collection
/// clones the touched arrays (`Cow` semantics). The owned alias
/// [`BottomKCollection`] is the ordinary built/streamed form.
#[derive(Clone, Debug)]
pub struct BottomKCollectionIn<'a> {
    elems: Cow<'a, [u32]>,
    hashes: Cow<'a, [u32]>,
    offsets: Cow<'a, [u32]>,
    /// Live sample length per set (`≤` region capacity).
    lens: Cow<'a, [u32]>,
    set_sizes: Cow<'a, [u32]>,
    /// Per-set sample caps (only the widths are read: the element arrays
    /// keep their own tight-packed or strided offsets).
    geom: SetGeometry<'a>,
    /// The single seeded hash function — kept after construction so
    /// streamed elements can be keyed without re-deriving the family.
    family: HashFamily,
    /// True once every region has its full capacity (streaming layout).
    strided: bool,
}

/// The owned (`'static`) form of [`BottomKCollectionIn`].
pub type BottomKCollection = BottomKCollectionIn<'static>;

impl<'a> BottomKCollectionIn<'a> {
    /// Builds sketches for `n_sets` sets in parallel.
    pub fn build<'s, F>(n_sets: usize, k: usize, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        assert!(k > 0, "bottom-k needs k ≥ 1");
        Self::build_on(SetGeometry::uniform(n_sets, k), seed, set)
    }

    /// Builds one sketch per set of `geom` in parallel: set `i` keeps its
    /// `geom.width_of(i)` hash-smallest elements.
    pub fn build_on<'s, F>(geom: SetGeometry<'a>, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        let family = HashFamily::new(1, seed);
        // Two-phase: compute every sketch into its own Vec in parallel,
        // then concatenate (keeps offsets exact without atomics).
        let per_set: Vec<(Vec<u32>, Vec<u32>)> = {
            let (family, geom, set) = (&family, &geom, &set);
            pg_parallel::parallel_init(geom.len(), move |s| {
                select_bottom_k(set(s), geom.width_of(s), family)
            })
        };
        let mut offsets = Vec::with_capacity(geom.len() + 1);
        offsets.push(0u32);
        let mut total = 0usize;
        for (v, _) in &per_set {
            total += v.len();
            assert!(
                total <= u32::MAX as usize,
                "sketch storage exceeds u32 offsets"
            );
            offsets.push(total as u32);
        }
        let mut elems = Vec::with_capacity(total);
        let mut hashes = Vec::with_capacity(total);
        for (v, h) in &per_set {
            elems.extend_from_slice(v);
            hashes.extend_from_slice(h);
        }
        let mut set_sizes = vec![0u32; geom.len()];
        pg_parallel::parallel_fill_with(&mut set_sizes, |s| set(s).len() as u32);
        let lens: Vec<u32> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let strided = total == geom.total();
        BottomKCollectionIn {
            elems: Cow::Owned(elems),
            hashes: Cow::Owned(hashes),
            offsets: Cow::Owned(offsets),
            lens: Cow::Owned(lens),
            set_sizes: Cow::Owned(set_sizes),
            geom,
            family,
            strided,
        }
    }

    /// Reconstructs a collection from already-materialized flat arrays
    /// (the snapshot load path); `geom` gives the per-set caps. Callers
    /// must pass arrays satisfying the layout invariants of whichever form
    /// `strided` names: monotone `offsets` with `offsets[0] == 0` and
    /// `offsets[n] == elems.len()`, `lens[i]` live entries per region in
    /// ascending packed `(hash, element)` order, and for the strided form
    /// offsets that are the cumulative caps. The snapshot loader validates
    /// all of this (plus hash integrity) before calling; the debug
    /// assertions here only guard direct in-crate use.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        elems: impl Into<Cow<'a, [u32]>>,
        hashes: impl Into<Cow<'a, [u32]>>,
        offsets: impl Into<Cow<'a, [u32]>>,
        lens: impl Into<Cow<'a, [u32]>>,
        set_sizes: impl Into<Cow<'a, [u32]>>,
        geom: SetGeometry<'a>,
        seed: u64,
        strided: bool,
    ) -> Self {
        let (elems, hashes) = (elems.into(), hashes.into());
        let (offsets, lens, set_sizes) = (offsets.into(), lens.into(), set_sizes.into());
        let n = geom.len();
        assert_eq!(offsets.len(), n + 1, "offsets must hold n + 1 entries");
        assert_eq!(lens.len(), n);
        assert_eq!(set_sizes.len(), n);
        assert_eq!(elems.len(), hashes.len());
        debug_assert_eq!(offsets[0], 0);
        debug_assert_eq!(offsets[n] as usize, elems.len());
        BottomKCollectionIn {
            elems,
            hashes,
            offsets,
            lens,
            set_sizes,
            geom,
            family: HashFamily::new(1, seed),
            strided,
        }
    }

    /// The whole flat element array — the byte-stable payload snapshots
    /// persist (paired with [`Self::raw_hashes`]).
    #[inline]
    pub fn raw_elems(&self) -> &[u32] {
        &self.elems
    }

    /// The whole flat hash array, same order as [`Self::raw_elems`].
    #[inline]
    pub fn raw_hashes(&self) -> &[u32] {
        &self.hashes
    }

    /// The per-set region offsets (`n + 1` entries).
    #[inline]
    pub fn raw_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The per-set live sample lengths.
    #[inline]
    pub fn raw_lens(&self) -> &[u32] {
        &self.lens
    }

    /// The per-set exact input sizes.
    #[inline]
    pub fn raw_set_sizes(&self) -> &[u32] {
        &self.set_sizes
    }

    /// True when the collection is in the strided capacity-`k` streaming
    /// layout (see the type docs).
    #[inline]
    pub fn is_strided(&self) -> bool {
        self.strided
    }

    /// Overwrites `self` with the concatenation of `parts`' samples, in
    /// order, reusing `self`'s allocations — the serving layer's
    /// double-buffer publish path. All parts must share their caps and
    /// seed; they may be in either layout. The result is always strided
    /// (offsets are the cumulative caps — the trivial `i·k` sequence when
    /// uniform), with unused capacity slots zeroed so gathers are
    /// deterministic.
    pub fn gather_into(&mut self, parts: &[&BottomKCollectionIn<'_>]) {
        self.geom.gather_into(parts.iter().map(|p| &p.geom));
        let cap_total = self.geom.total();
        assert!(
            cap_total <= u32::MAX as usize,
            "gathered sketch storage exceeds u32 offsets"
        );
        let elems = cow_clear(&mut self.elems);
        elems.resize(cap_total, 0);
        let hashes = cow_clear(&mut self.hashes);
        hashes.resize(cap_total, 0);
        let offsets = cow_clear(&mut self.offsets);
        offsets.push(0);
        offsets.extend((0..self.geom.len()).map(|i| self.geom.range(i).end as u32));
        let lens = cow_clear(&mut self.lens);
        let set_sizes = cow_clear(&mut self.set_sizes);
        let mut out_set = 0usize;
        for p in parts {
            for i in 0..p.lens.len() {
                let src = p.offsets[i] as usize;
                let len = p.lens[i] as usize;
                let dst = offsets[out_set] as usize;
                elems[dst..dst + len].copy_from_slice(&p.elems[src..src + len]);
                hashes[dst..dst + len].copy_from_slice(&p.hashes[src..src + len]);
                out_set += 1;
            }
            lens.extend_from_slice(&p.lens);
            set_sizes.extend_from_slice(&p.set_sizes);
        }
        self.strided = true;
    }

    /// Detaches the collection from any borrowed snapshot buffer, cloning
    /// in-place-served arrays. No-op for owned data.
    pub fn into_owned(self) -> BottomKCollection {
        BottomKCollectionIn {
            elems: Cow::Owned(self.elems.into_owned()),
            hashes: Cow::Owned(self.hashes.into_owned()),
            offsets: Cow::Owned(self.offsets.into_owned()),
            lens: Cow::Owned(self.lens.into_owned()),
            set_sizes: Cow::Owned(self.set_sizes.into_owned()),
            geom: self.geom.into_owned(),
            family: self.family,
            strided: self.strided,
        }
    }

    /// Converts the tight-packed arrays to the strided capacity-`k`
    /// layout (see the type docs). Idempotent; called once, lazily, by
    /// the first insert.
    fn ensure_streaming_layout(&mut self) {
        if self.strided {
            return;
        }
        let n = self.len();
        let cap_total = self.geom.total();
        assert!(
            cap_total <= u32::MAX as usize,
            "streaming sketch storage exceeds u32 offsets"
        );
        let mut elems = vec![0u32; cap_total];
        let mut hashes = vec![0u32; cap_total];
        let mut offsets = Vec::with_capacity(n + 1);
        let mut dst = 0usize;
        for i in 0..n {
            offsets.push(dst as u32);
            let len = self.lens[i] as usize;
            let src = self.offsets[i] as usize;
            elems[dst..dst + len].copy_from_slice(&self.elems[src..src + len]);
            hashes[dst..dst + len].copy_from_slice(&self.hashes[src..src + len]);
            dst += self.cap_of(i);
        }
        offsets.push(dst as u32);
        self.elems = Cow::Owned(elems);
        self.hashes = Cow::Owned(hashes);
        self.offsets = Cow::Owned(offsets);
        self.strided = true;
    }

    /// Inserts one element into sample `i` in place — the allocation-free
    /// single-edge path: one hash, a linear scan for the insertion point,
    /// and one in-region memmove (dropping the largest key at capacity).
    /// Equivalent to [`BottomKCollection::insert_batch`] with a
    /// one-element batch.
    pub fn insert(&mut self, i: usize, x: u32) {
        self.set_sizes.to_mut()[i] += 1;
        self.ensure_streaming_layout();
        let k = self.cap_of(i);
        let start = self.offsets[i] as usize;
        let len = self.lens[i] as usize;
        let h = self.family.hash32(0, x as u64);
        let key = (h as u64) << 32 | x as u64;
        let hashes = self.hashes.to_mut();
        let elems = self.elems.to_mut();
        let pos = (0..len)
            .find(|&t| ((hashes[start + t] as u64) << 32 | elems[start + t] as u64) >= key)
            .unwrap_or(len);
        if pos < len && hashes[start + pos] == h && elems[start + pos] == x {
            return; // duplicate insert: collapsed, like the offline dedup
        }
        if len == k {
            if pos == k {
                return; // not among the k smallest
            }
            hashes.copy_within(start + pos..start + k - 1, start + pos + 1);
            elems.copy_within(start + pos..start + k - 1, start + pos + 1);
        } else {
            hashes.copy_within(start + pos..start + len, start + pos + 1);
            elems.copy_within(start + pos..start + len, start + pos + 1);
            self.lens.to_mut()[i] += 1;
        }
        hashes[start + pos] = h;
        elems[start + pos] = x;
    }

    /// Batched per-set insert: absorbs all of `xs` into sample `i`.
    ///
    /// The sample region is loaded once as a bounded max-heap of packed
    /// `(hash, element)` keys (a descending-sorted array is already a
    /// valid max-heap), each element costs one hash plus an `O(log k)`
    /// heap step — push while below capacity, replace-root when the key
    /// beats the current maximum — and the region is re-sorted once at
    /// the end of the batch, restoring the ascending sorted-slice views
    /// the merge-walk estimators read. The k smallest keys of a stream
    /// are associative, so the result is exactly the sample a
    /// from-scratch build over the extended set produces (callers must
    /// not re-insert an element already in the set; a duplicate is
    /// collapsed like the offline build's dedup, but only if it never
    /// forced an eviction).
    pub fn insert_batch(&mut self, i: usize, xs: &[u32]) {
        if let [x] = xs {
            // One element: the allocation-free sorted-insert path.
            self.insert(i, *x);
            return;
        }
        self.set_sizes.to_mut()[i] += xs.len() as u32;
        if xs.is_empty() {
            return;
        }
        self.ensure_streaming_layout();
        let k = self.cap_of(i);
        let start = self.offsets[i] as usize;
        let len = self.lens[i] as usize;
        let hashes = self.hashes.to_mut();
        let elems = self.elems.to_mut();
        let mut heap: Vec<u64> = (start..start + len)
            .map(|t| (hashes[t] as u64) << 32 | elems[t] as u64)
            .collect();
        heap.reverse();
        for &x in xs {
            let key = (self.family.hash32(0, x as u64) as u64) << 32 | x as u64;
            if heap.len() < k {
                heap.push(key);
                let last = heap.len() - 1;
                sift_up(&mut heap, last);
            } else if key < heap[0] {
                heap[0] = key;
                sift_down(&mut heap, 0);
            }
        }
        heap.sort_unstable();
        heap.dedup();
        for (t, &key) in heap.iter().enumerate() {
            hashes[start + t] = (key >> 32) as u32;
            elems[start + t] = key as u32;
        }
        self.lens.to_mut()[i] = heap.len() as u32;
    }

    /// Number of sketches.
    #[inline]
    pub fn len(&self) -> usize {
        self.geom.len()
    }

    /// True when the collection holds no sketches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured `k` — the **widest** stratum's cap when stratified
    /// (per-set caps come from [`BottomKCollectionIn::cap_of`]).
    #[inline]
    pub fn k(&self) -> usize {
        self.geom.max_width()
    }

    /// Sample cap of set `i`.
    #[inline]
    pub fn cap_of(&self, i: usize) -> usize {
        self.geom.width_of(i)
    }

    /// Stratum index of set `i` (0 for uniform collections).
    #[inline]
    pub fn stratum_of(&self, i: usize) -> usize {
        self.geom.stratum_of(i)
    }

    /// The per-set caps, as a window layout in sample slots.
    #[inline]
    pub fn geometry(&self) -> &SetGeometry<'a> {
        &self.geom
    }

    /// The sample of set `i`, in ascending hash order.
    #[inline]
    pub fn sample(&self, i: usize) -> &[u32] {
        &self.elems[self.offsets[i] as usize..][..self.lens[i] as usize]
    }

    /// The precomputed hashes of [`BottomKCollection::sample`], same order.
    #[inline]
    pub fn sample_hashes(&self, i: usize) -> &[u32] {
        &self.hashes[self.offsets[i] as usize..][..self.lens[i] as usize]
    }

    /// Exact input-set size recorded at build time.
    #[inline]
    pub fn set_size(&self, i: usize) -> usize {
        self.set_sizes[i] as usize
    }

    /// Union-restricted `|M¹_X ∩ M¹_Y|` between sets `i` and `j`
    /// (`O(min(k_i, k_j))`).
    #[inline]
    pub fn matches(&self, i: usize, j: usize) -> usize {
        union_matches(
            self.sample(i),
            self.sample_hashes(i),
            self.sample(j),
            self.sample_hashes(j),
            self.cap_of(i).min(self.cap_of(j)),
        )
        .0
    }

    /// `|X∩Y|̂_1H` between sets `i` and `j`; see
    /// [`BottomK::estimate_intersection`] for the lossless shortcut.
    #[inline]
    pub fn estimate_intersection(&self, i: usize, j: usize) -> f64 {
        self.estimate_intersection_with_row(
            self.sample(i),
            self.sample_hashes(i),
            self.set_size(i),
            self.cap_of(i),
            j,
        )
    }

    /// `|X∩Y|̂_1H` with the source sample, hashes, exact size, and sample
    /// cap already pinned (the row-batch fast path: hoist them once per
    /// row sweep instead of re-slicing the flat arrays per pair).
    /// Identical to [`BottomKCollection::estimate_intersection`] when the
    /// pinned parts belong to set `i`. Cross-stratum pairs walk
    /// `min(ka, k_j)` union draws — exactly both samples truncated to the
    /// narrower cap.
    pub fn estimate_intersection_with_row(
        &self,
        a: &[u32],
        ah: &[u32],
        ni: usize,
        ka: usize,
        j: usize,
    ) -> f64 {
        let b = self.sample(j);
        let bh = self.sample_hashes(j);
        let nj = self.set_size(j);
        if ni <= ka && nj <= self.cap_of(j) {
            // Lossless: full sets stored — exact uncapped merge.
            let cap = (a.len() + b.len()).max(1);
            return union_matches(a, ah, b, bh, cap).0 as f64;
        }
        let cap = ka.min(self.cap_of(j));
        let (matches, _) = union_matches(a, ah, b, bh, cap);
        estimators::jaccard_to_intersection(estimators::mh_jaccard(matches, cap), ni, nj)
    }

    /// `Ĵ_1H` between sets `i` and `j`.
    #[inline]
    pub fn estimate_jaccard(&self, i: usize, j: usize) -> f64 {
        self.estimate_jaccard_with_row(
            self.sample(i),
            self.sample_hashes(i),
            self.set_size(i),
            self.cap_of(i),
            j,
        )
    }

    /// Two-lane batched `|X∩Y|̂_1H` with the source sample pinned:
    /// estimates against **two** destination sets at once through the
    /// lockstep-interleaved merge walk ([`union_matches_x2`]); any lane
    /// touching the lossless shortcut falls back to the scalar path.
    /// Each lane is bit-identical to
    /// [`BottomKCollection::estimate_intersection`].
    pub fn estimate_intersection_with_row_x2(
        &self,
        a: &[u32],
        ah: &[u32],
        ni: usize,
        ka: usize,
        j0: usize,
        j1: usize,
    ) -> (f64, f64) {
        let (nj0, nj1) = (self.set_size(j0), self.set_size(j1));
        let lossless0 = ni <= ka && nj0 <= self.cap_of(j0);
        let lossless1 = ni <= ka && nj1 <= self.cap_of(j1);
        if lossless0 || lossless1 {
            return (
                self.estimate_intersection_with_row(a, ah, ni, ka, j0),
                self.estimate_intersection_with_row(a, ah, ni, ka, j1),
            );
        }
        let cap0 = ka.min(self.cap_of(j0));
        let cap1 = ka.min(self.cap_of(j1));
        let ((m0, _), (m1, _)) = union_matches_x2(
            a,
            ah,
            self.sample(j0),
            self.sample_hashes(j0),
            self.sample(j1),
            self.sample_hashes(j1),
            cap0,
            cap1,
        );
        (
            estimators::jaccard_to_intersection(estimators::mh_jaccard(m0, cap0), ni, nj0),
            estimators::jaccard_to_intersection(estimators::mh_jaccard(m1, cap1), ni, nj1),
        )
    }

    /// `Ĵ_1H` with the source sample pinned — the row-sweep twin of
    /// [`BottomKCollection::estimate_jaccard`].
    pub fn estimate_jaccard_with_row(
        &self,
        a: &[u32],
        ah: &[u32],
        ni: usize,
        ka: usize,
        j: usize,
    ) -> f64 {
        let b = self.sample(j);
        let bh = self.sample_hashes(j);
        let nj = self.set_size(j);
        if ni <= ka && nj <= self.cap_of(j) {
            let cap = a.len() + b.len();
            let (matches, _) = union_matches(a, ah, b, bh, cap.max(1));
            let union = cap - matches;
            return if union == 0 {
                0.0
            } else {
                matches as f64 / union as f64
            };
        }
        let (matches, seen) = union_matches(a, ah, b, bh, ka.min(self.cap_of(j)));
        if seen == 0 {
            return 0.0;
        }
        estimators::mh_jaccard(matches, seen)
    }

    /// Bytes of sketch storage (elements + hashes + offsets + lengths +
    /// sizes). Table I charges `W·k` bits per set with `W = 64`, i.e. 8
    /// bytes per slot — exactly one element + one stored hash; in the
    /// strided streaming layout every set holds its full `k` slots, which
    /// is the same `W·k` the budget planned for.
    pub fn memory_bytes(&self) -> usize {
        self.elems.len() * 8
            + self.offsets.len() * 4
            + self.lens.len() * 4
            + self.set_sizes.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sets_are_stored_exactly() {
        let x = [5u32, 1, 9];
        let s = BottomK::from_set(&x, 8, 3);
        assert!(s.is_exact());
        let mut sorted = s.elements().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 5, 9]);
        assert_eq!(s.set_size(), 3);
    }

    #[test]
    fn large_sets_keep_k_elements() {
        let x: Vec<u32> = (0..1000).collect();
        let s = BottomK::from_set(&x, 32, 3);
        assert_eq!(s.elements().len(), 32);
        assert!(!s.is_exact());
    }

    #[test]
    fn sample_is_hash_minimal_and_hash_ordered() {
        let x: Vec<u32> = (0..500).collect();
        let k = 16;
        let s = BottomK::from_set(&x, k, 9);
        let fam = HashFamily::new(1, 9);
        let mut hashes: Vec<(u32, u32)> = x.iter().map(|&e| (fam.hash32(0, e as u64), e)).collect();
        hashes.sort_unstable();
        let expect: Vec<u32> = hashes[..k].iter().map(|&(_, e)| e).collect();
        assert_eq!(s.elements(), &expect[..]);
    }

    #[test]
    fn exact_intersection_for_lossless_sketches() {
        let x = [1u32, 2, 3, 4];
        let y = [3u32, 4, 5];
        let a = BottomK::from_set(&x, 16, 1);
        let b = BottomK::from_set(&y, 16, 1);
        assert_eq!(a.estimate_intersection(&b), 2.0);
        // Exact Jaccard too: 2 / 5.
        assert!((a.estimate_jaccard(&b) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn jaccard_estimate_accuracy() {
        let x: Vec<u32> = (0..1000).collect();
        let y: Vec<u32> = (500..1500).collect(); // J = 500/1500 = 1/3
        let a = BottomK::from_set(&x, 256, 5);
        let b = BottomK::from_set(&y, 256, 5);
        let j = a.estimate_jaccard(&b);
        assert!((j - 1.0 / 3.0).abs() < 0.08, "J={j}");
        let inter = a.estimate_intersection(&b);
        assert!((inter - 500.0).abs() < 150.0, "inter={inter}");
    }

    #[test]
    fn identical_large_sets() {
        let x: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        let a = BottomK::from_set(&x, 64, 2);
        let b = BottomK::from_set(&x, 64, 2);
        assert_eq!(a.matches(&b), 64);
        assert_eq!(a.estimate_jaccard(&b), 1.0);
    }

    #[test]
    fn disjoint_sets() {
        let x: Vec<u32> = (0..1000).collect();
        let y: Vec<u32> = (10_000..11_000).collect();
        let a = BottomK::from_set(&x, 128, 2);
        let b = BottomK::from_set(&y, 128, 2);
        assert_eq!(a.matches(&b), 0);
        assert_eq!(a.estimate_intersection(&b), 0.0);
    }

    #[test]
    fn empty_set() {
        let e = BottomK::from_set(&[], 8, 1);
        let x = BottomK::from_set(&[1, 2], 8, 1);
        assert_eq!(e.matches(&x), 0);
        assert_eq!(e.estimate_intersection(&x), 0.0);
        assert_eq!(e.estimate_jaccard(&e), 0.0);
    }

    #[test]
    fn duplicate_inputs_collapse() {
        let a = BottomK::from_set(&[7, 7, 7, 2, 2], 8, 1);
        let b = BottomK::from_set(&[2, 7], 8, 1);
        assert_eq!(a.elements(), b.elements());
        assert_eq!(a.matches(&b), 2);
    }

    #[test]
    fn collection_matches_standalone() {
        let sets: Vec<Vec<u32>> = (0..40)
            .map(|s| (0..10 + s * 5).map(|i| (i * 3 + s) as u32).collect())
            .collect();
        let col = BottomKCollection::build(sets.len(), 12, 7, |i| &sets[i][..]);
        for (i, set) in sets.iter().enumerate() {
            let s = BottomK::from_set(set, 12, 7);
            assert_eq!(col.sample(i), s.elements(), "set {i}");
            assert_eq!(col.set_size(i), set.len());
        }
        let a = BottomK::from_set(&sets[5], 12, 7);
        let b = BottomK::from_set(&sets[20], 12, 7);
        assert_eq!(col.matches(5, 20), a.matches(&b));
        assert!((col.estimate_intersection(5, 20) - a.estimate_intersection(&b)).abs() < 1e-12);
    }

    #[test]
    fn two_lane_walk_matches_scalar_across_regimes() {
        // Mix of lossless (≤ k) and sampled (> k) sets so both the
        // interleaved fast path and the scalar fallback are exercised.
        let sets: Vec<Vec<u32>> = (0..14)
            .map(|s| (0..3 + s * 11).map(|i| (i * 5 + s) as u32).collect())
            .collect();
        let col = BottomKCollection::build(sets.len(), 12, 3, |i| &sets[i][..]);
        for i in 0..sets.len() {
            let (a, ah, ni) = (col.sample(i), col.sample_hashes(i), col.set_size(i));
            for j in 0..sets.len() - 1 {
                let (e0, e1) =
                    col.estimate_intersection_with_row_x2(a, ah, ni, col.cap_of(i), j, j + 1);
                assert_eq!(e0, col.estimate_intersection(i, j), "i={i} j={j}");
                assert_eq!(e1, col.estimate_intersection(i, j + 1), "i={i} j={j}");
            }
        }
    }

    #[test]
    fn pinned_row_paths_match_indexed_paths() {
        let sets: Vec<Vec<u32>> = (0..25)
            .map(|s| (0..5 + s * 9).map(|i| (i * 3 + s) as u32).collect())
            .collect();
        let col = BottomKCollection::build(sets.len(), 16, 7, |i| &sets[i][..]);
        for i in 0..sets.len() {
            let (a, ah, ni) = (col.sample(i), col.sample_hashes(i), col.set_size(i));
            for j in 0..sets.len() {
                assert_eq!(
                    col.estimate_intersection_with_row(a, ah, ni, col.cap_of(i), j),
                    col.estimate_intersection(i, j),
                    "({i},{j})"
                );
                assert_eq!(
                    col.estimate_jaccard_with_row(a, ah, ni, col.cap_of(i), j),
                    col.estimate_jaccard(i, j),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        // Samples after streaming a suffix (lossless sets growing past k,
        // already-sampled sets, empty prefixes) must equal a from-scratch
        // build over the extended sets — sample, hashes, and set size.
        let full: Vec<Vec<u32>> = (0..12)
            .map(|s| (0..2 + s * 7).map(|i| (i * 13 + s) as u32).collect())
            .collect();
        let k = 10;
        let want = BottomKCollection::build(full.len(), k, 23, |i| &full[i][..]);
        let mut got =
            BottomKCollection::build(full.len(), k, 23, |i| &full[i][..full[i].len() / 3]);
        for (i, set) in full.iter().enumerate() {
            got.insert_batch(i, &set[set.len() / 3..]);
        }
        for i in 0..full.len() {
            assert_eq!(got.sample(i), want.sample(i), "set {i}");
            assert_eq!(got.sample_hashes(i), want.sample_hashes(i), "set {i}");
            assert_eq!(got.set_size(i), want.set_size(i), "set {i}");
            for j in 0..full.len() {
                assert_eq!(
                    got.estimate_intersection(i, j),
                    want.estimate_intersection(i, j),
                    "({i},{j})"
                );
            }
        }
        // The strided layout charges exactly the planned k slots per set.
        assert_eq!(got.memory_bytes(), full.len() * (k * 8 + 12) + 4);
        // Single-element path agrees too.
        let mut one = BottomKCollection::build(1, 4, 1, |_| &[][..]);
        for x in [9u32, 2, 5, 7, 1, 8] {
            one.insert(0, x);
        }
        let rebuilt = BottomKCollection::build(1, 4, 1, |_| &[9u32, 2, 5, 7, 1, 8][..]);
        assert_eq!(one.sample(0), rebuilt.sample(0));
        assert_eq!(one.set_size(0), rebuilt.set_size(0));
    }

    #[test]
    fn one_stratum_build_is_bit_identical_to_uniform() {
        let sets: Vec<Vec<u32>> = (0..10)
            .map(|s| (0..5 + s * 9).map(|i| (i * 7 + s) as u32).collect())
            .collect();
        let uniform = BottomKCollection::build(sets.len(), 12, 7, |i| &sets[i][..]);
        let one = SetGeometry::stratified(vec![12], vec![0u8; sets.len()]);
        let strat = BottomKCollection::build_on(one, 7, |i| &sets[i][..]);
        assert!(
            strat.geometry().is_uniform(),
            "one stratum must lower to uniform"
        );
        assert_eq!(strat.raw_elems(), uniform.raw_elems());
        assert_eq!(strat.raw_hashes(), uniform.raw_hashes());
        assert_eq!(strat.raw_offsets(), uniform.raw_offsets());
        assert_eq!(strat.raw_lens(), uniform.raw_lens());
    }

    /// Stratified geometry with sample caps `ks`.
    fn strata(ks: &[usize], assign: &[u8]) -> SetGeometry<'static> {
        SetGeometry::stratified(ks.to_vec(), assign.to_vec())
    }

    #[test]
    fn cross_stratum_pairs_match_both_built_at_the_narrow_cap() {
        // Truncation exactness: a (k=24, k=6) pair must estimate exactly
        // like both sets sketched at k=6 (and likewise for every pair's
        // min cap). Sets span lossless (≤ cap) and sampled regimes.
        let sets: Vec<Vec<u32>> = (0..12)
            .map(|s| (0..3 + s * 11).map(|i| (i * 5 + s) as u32).collect())
            .collect();
        let ks = [24, 12, 6];
        let assign: Vec<u8> = (0..sets.len()).map(|i| (i % 3) as u8).collect();
        let strat = BottomKCollection::build_on(strata(&ks, &assign), 3, |i| &sets[i][..]);
        for i in 0..sets.len() {
            assert_eq!(strat.cap_of(i), ks[assign[i] as usize]);
            for j in 0..sets.len() {
                let kmin = strat.cap_of(i).min(strat.cap_of(j));
                let narrow = BottomKCollection::build(sets.len(), kmin, 3, |s| &sets[s][..]);
                // Lossless shortcut regimes differ between the two
                // collections only when a set is exact at its own wider
                // cap but sampled at kmin; restrict the exactness claim
                // to matching regimes.
                let same_regime = (sets[i].len() <= strat.cap_of(i)) == (sets[i].len() <= kmin)
                    && (sets[j].len() <= strat.cap_of(j)) == (sets[j].len() <= kmin);
                if same_regime {
                    assert_eq!(
                        strat.estimate_intersection(i, j),
                        narrow.estimate_intersection(i, j),
                        "i={i} j={j}"
                    );
                    assert_eq!(strat.matches(i, j), narrow.matches(i, j), "i={i} j={j}");
                }
                // Pinned-row and two-lane paths always agree with the
                // indexed path on the stratified collection itself.
                let (a, ah, ni, ka) = (
                    strat.sample(i),
                    strat.sample_hashes(i),
                    strat.set_size(i),
                    strat.cap_of(i),
                );
                assert_eq!(
                    strat.estimate_intersection_with_row(a, ah, ni, ka, j),
                    strat.estimate_intersection(i, j),
                    "({i},{j})"
                );
                let j1 = (j + 1) % sets.len();
                let (e0, e1) = strat.estimate_intersection_with_row_x2(a, ah, ni, ka, j, j1);
                assert_eq!(e0, strat.estimate_intersection(i, j), "x2 ({i},{j})");
                assert_eq!(e1, strat.estimate_intersection(i, j1), "x2 ({i},{j1})");
            }
        }
    }

    #[test]
    fn stratified_insert_matches_stratified_rebuild() {
        let full: Vec<Vec<u32>> = (0..10)
            .map(|s| (0..2 + s * 9).map(|i| (i * 13 + s) as u32).collect())
            .collect();
        let assign: Vec<u8> = (0..full.len()).map(|i| (i % 2) as u8).collect();
        let geom = strata(&[16, 5], &assign);
        let want = BottomKCollection::build_on(geom.clone(), 23, |i| &full[i][..]);
        let mut got = BottomKCollection::build_on(geom, 23, |i| &full[i][..full[i].len() / 3]);
        for (i, set) in full.iter().enumerate() {
            if i % 2 == 0 {
                got.insert_batch(i, &set[set.len() / 3..]);
            } else {
                for &x in &set[set.len() / 3..] {
                    got.insert(i, x);
                }
            }
        }
        for i in 0..full.len() {
            assert_eq!(got.sample(i), want.sample(i), "set {i}");
            assert_eq!(got.sample_hashes(i), want.sample_hashes(i), "set {i}");
            assert_eq!(got.set_size(i), want.set_size(i), "set {i}");
        }
    }

    #[test]
    fn stratified_gather_concatenates_parts() {
        let sets: Vec<Vec<u32>> = (0..8)
            .map(|s| (0..4 + s * 7).map(|i| (i * 3 + s) as u32).collect())
            .collect();
        let ks = [10, 4];
        let assign: Vec<u8> = (0..8).map(|i| (i % 2) as u8).collect();
        let whole = BottomKCollection::build_on(strata(&ks, &assign), 5, |i| &sets[i][..]);
        let left = BottomKCollection::build_on(strata(&ks, &assign[..4]), 5, |i| &sets[i][..]);
        let right = BottomKCollection::build_on(strata(&ks, &assign[4..]), 5, |i| &sets[i + 4][..]);
        let mut gathered = left.clone();
        gathered.gather_into(&[&left, &right]);
        assert!(gathered.is_strided());
        assert_eq!(gathered.geometry(), whole.geometry());
        for i in 0..8 {
            assert_eq!(gathered.sample(i), whole.sample(i), "set {i}");
            assert_eq!(gathered.sample_hashes(i), whole.sample_hashes(i), "set {i}");
            assert_eq!(gathered.set_size(i), whole.set_size(i), "set {i}");
            assert_eq!(gathered.cap_of(i), whole.cap_of(i), "set {i}");
        }
    }

    #[test]
    fn parallel_build_deterministic() {
        let sets: Vec<Vec<u32>> = (0..150)
            .map(|s| (0..80).map(|i| (i * 11 + s * 2) as u32).collect())
            .collect();
        let a =
            pg_parallel::with_threads(1, || BottomKCollection::build(150, 10, 3, |i| &sets[i][..]));
        let b =
            pg_parallel::with_threads(8, || BottomKCollection::build(150, 10, 3, |i| &sets[i][..]));
        assert_eq!(a.elems, b.elems);
        assert_eq!(a.offsets, b.offsets);
    }
}
