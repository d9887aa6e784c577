//! MinHash, 1-hash variant — "bottom-k" (§II-D, §IV-D of the paper).
//!
//! One hash function `h`; the sketch keeps the `k` elements of the set with
//! the smallest hashes. Never contains duplicates, and costs only one hash
//! evaluation per element to build (Table V) — which is why the paper finds
//! 1-hash faster to construct than k-hash.
//!
//! The paper's distributional claim — `|M¹_X ∩ M¹_Y|` follows
//! `Hypergeometric(|X∪Y|, |X∩Y|, k)` (§IV-D, footnote 4) — holds for the
//! *union-restricted* match count: the `k` hash-smallest elements of
//! `X ∪ Y` are `k` uniform draws without replacement from the union, and
//! such a draw lies in both samples iff it lies in `X ∩ Y`. We therefore
//! count matches among the bottom-k of the union (the classic bottom-k
//! estimator), which is what makes `Ĵ_1H = matches/k` unbiased and
//! Prop. IV.3's exponential bound applicable. Samples are stored in
//! ascending `(hash, element)` order.
//!
//! ## Costs
//!
//! * **Build**, `O(d + k log k)` per set of `d` elements: one hash per
//!   element, packed as `hash << 32 | element` into worker scratch; an
//!   `O(d)` selection (`select_nth_unstable`) sets the `k` smallest keys
//!   apart, only those are sorted, and they are written straight into the
//!   flat arrays. A collection build allocates per worker, not per set.
//! * **Pairwise** estimates ([`BottomK`], and the collection's `matches`,
//!   `estimate_intersection` and `estimate_jaccard`) keep the `O(k)`
//!   union merge of Table IV, `union_matches`: a branchless walk over both
//!   samples in key order.
//! * **Rows** ([`BottomKCollectionIn::intersection_row_into`] and
//!   [`BottomKCollectionIn::jaccard_row_into`]) pin the source sample `A`
//!   once in a [`PositionTable`], `pos[x] = p + 1` for `A`'s `p`-th
//!   element, and then cost one independent table load per destination
//!   element instead of a merge whose every step waits on the one before.
//!   Walking `B` in key order, its element `y` at index `q`, after `c`
//!   earlier hits, is preceded by `pos[y] − 1 + q − c` union draws: `A`'s
//!   smaller keys, `B`'s, less the common ones counted twice. A common
//!   element is reached before either sample runs out, so `y` is a
//!   union-restricted match iff `pos[y] + q − c ≤ cap`. The draws seen are
//!   `min(cap, |A| + |B| − hits)`. Every row estimate equals the pairwise
//!   merge's bit for bit.
//! * **The row walk at vector width.** A build whose target features
//!   include `avx512f` and `avx512vpopcntdq` (the same gate as the Bloom
//!   rows' `vpopcntq` kernel) walks `B` 16 elements per block: ids at or
//!   past the table's end are masked off as misses, the other lanes gather
//!   their positions, and each lane counts the block's earlier hits with
//!   one `vpopcntd` of the broadcast hit mask ANDed with a constant
//!   `lane_below` vector (lane `l` keeps bits `0..l`). A lane is a match
//!   iff it hit and `pos + q − (c + earlier) ≤ cap`; the last block is
//!   masked. A destination sample shorter than 8 elements, a position
//!   table longer than `i32::MAX` entries (gather indices are signed) and
//!   every other build keep the scalar loop, the portable path and the
//!   reference the vector form is tested against. Counts are exact
//!   integers, so both paths give the same bits.
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

/// `x`'s sort key: `hash << 32 | element`, whose `u64` order is the
/// `(hash, element)` order samples are stored in.
#[inline(always)]
fn packed_key(family: &HashFamily, x: u32) -> u64 {
    (family.hash32(0, x as u64) as u64) << 32 | x as u64
}

/// Reduces `keys` to its `k` smallest **distinct** values, ascending: an
/// `O(len)` selection, then a sort of only the `k` selected keys. Repeated
/// keys (a repeated input element) collapse exactly as a full sort, dedup
/// and truncate would collapse them.
fn select_bottom_k(keys: &mut Vec<u64>, k: usize) {
    if keys.len() > k {
        keys.select_nth_unstable(k);
        keys[..k].sort_unstable();
        if keys[..k].windows(2).all(|w| w[0] < w[1]) {
            keys.truncate(k);
            return;
        }
        // Some of the k smallest keys repeat, so distinct keys beyond
        // them belong in the sample too.
    }
    keys.sort_unstable();
    keys.dedup();
    keys.truncate(k);
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

/// One pair's union walk, which every 1-hash estimator reads.
#[derive(Clone, Copy)]
struct PairWalk {
    /// Common elements among the first `seen` union draws.
    matches: usize,
    /// Union draws taken: `min(cap, |A ∪ B|)` over the stored samples.
    seen: usize,
    /// The walk's cap: the narrower sample cap, or `usize::MAX` when both
    /// sets are stored whole.
    cap: usize,
}

impl PairWalk {
    /// The walk's cap: unbounded when both sets are stored whole
    /// (`n ≤ k` on both sides, so the exact answer is available), else
    /// the narrower of the two sample caps.
    #[inline]
    fn cap(ni: usize, ki: usize, nj: usize, kj: usize) -> usize {
        if ni <= ki && nj <= kj {
            usize::MAX
        } else {
            ki.min(kj)
        }
    }

    /// The pairwise merge over two stored samples.
    #[inline]
    fn merge(a: &[u32], ah: &[u32], b: &[u32], bh: &[u32], cap: usize) -> Self {
        let (matches, seen) = union_matches(a, ah, b, bh, cap);
        PairWalk { matches, seen, cap }
    }

    /// `|X∩Y|̂_1H` (Eq. 5 form), or the exact `|X∩Y|` when both sets are
    /// stored whole.
    #[inline]
    fn intersection(self, nx: usize, ny: usize) -> f64 {
        if self.cap == usize::MAX {
            return self.matches as f64;
        }
        estimators::jaccard_to_intersection(estimators::mh_jaccard(self.matches, self.cap), nx, ny)
    }

    /// `Ĵ_1H = matches / seen` — the exact Jaccard when both sets are
    /// stored whole (`seen` is then the whole union); 0 for an empty
    /// union.
    #[inline]
    fn jaccard(self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            estimators::mh_jaccard(self.matches, self.seen)
        }
    }
}

/// Worker-local element → sample-position table for the 1-hash row
/// kernels (see the module docs): while a row runs, entry `x` holds
/// `p + 1` when the pinned source sample's `p`-th element is `x`, and 0
/// otherwise.
///
/// It grows to the largest element id a pinned sample holds, 4 bytes per
/// id and no more, and is then reused without allocating. Ids beyond its
/// end read as misses, so destination samples may hold any id (exchange
/// sub-stores and serving lanes hold global ids above their set count).
/// Every row clears the entries it set when it ends, also when it
/// unwinds.
#[derive(Debug, Default)]
pub struct PositionTable {
    pos: Vec<u32>,
}

impl PositionTable {
    /// Pins `a`: the returned guard holds `a`'s positions until dropped.
    fn pin<'t>(&'t mut self, a: &'t [u32]) -> PinnedSample<'t> {
        let need = a.iter().max().map_or(0, |&m| m as usize + 1);
        if need > self.pos.len() {
            self.pos.reserve_exact(need - self.pos.len());
            self.pos.resize(need, 0);
        }
        for (p, &x) in a.iter().enumerate() {
            self.pos[x as usize] = p as u32 + 1;
        }
        PinnedSample {
            pos: &mut self.pos,
            a,
        }
    }
}

/// A source sample pinned in a [`PositionTable`]; clears its entries on
/// drop.
struct PinnedSample<'t> {
    pos: &'t mut [u32],
    a: &'t [u32],
}

impl Drop for PinnedSample<'_> {
    fn drop(&mut self) {
        for &x in self.a {
            self.pos[x as usize] = 0;
        }
    }
}

impl PinnedSample<'_> {
    /// The walk of the pinned sample against destination sample `b`,
    /// capped at `cap` union draws; equal to [`PairWalk::merge`] on the
    /// same samples.
    #[inline]
    fn walk(&self, b: &[u32], cap: usize) -> PairWalk {
        let (hits, matches) = self.walk_counts(b, cap);
        let seen = cap.min(self.a.len() + b.len() - hits);
        PairWalk { matches, seen, cap }
    }

    /// The walk's `(hits, matches)`: the 16-lane form for a destination
    /// sample of at least [`VECTOR_WALK_FLOOR`] elements where it is
    /// compiled and its 32-bit lanes hold the inputs exactly, else the
    /// scalar loop.
    #[inline]
    fn walk_counts(&self, b: &[u32], cap: usize) -> (usize, usize) {
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx512f",
            target_feature = "avx512vpopcntdq"
        ))]
        {
            // The gather index is signed, and `pos + q` must not wrap.
            let drawn = self.a.len() + b.len();
            if b.len() >= VECTOR_WALK_FLOOR
                && self.pos.len() <= i32::MAX as usize
                && drawn <= u32::MAX as usize
            {
                // A common element is drawn before `|A| + |B|` draws, so
                // the narrower cap takes the same elements.
                // SAFETY: the table length was checked just above.
                return unsafe { walk_counts_512(self.pos, b, cap.min(drawn) as u32) };
            }
        }
        walk_counts_scalar(self.pos, b, cap)
    }
}

/// The shortest destination sample the 16-lane walk takes. Shorter ones
/// (every sample of a graph whose oriented degrees are tiny) keep the
/// scalar loop, which the vector form's per-block setup loses to.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512vpopcntdq"
))]
const VECTOR_WALK_FLOOR: usize = 8;

/// The position walk's `(hits, matches)`, one table load per element of
/// `b`: `b[q]` is a match iff its position `p` is set and
/// `p + q − hits ≤ cap`, `hits` counting the earlier elements whose
/// position is set. Ids at or past the table's end are misses. The
/// portable path, and the reference the vector form is tested against.
#[inline]
fn walk_counts_scalar(pos: &[u32], b: &[u32], cap: usize) -> (usize, usize) {
    let (mut hits, mut matches) = (0usize, 0usize);
    for (q, &y) in b.iter().enumerate() {
        let p = pos.get(y as usize).map_or(0, |&p| p as usize);
        let hit = p != 0;
        // q ≥ hits always, so this never underflows.
        matches += usize::from(hit & (p + q - hits <= cap));
        hits += usize::from(hit);
    }
    (hits, matches)
}

/// AVX-512 form of [`walk_counts_scalar`], 16 elements of `b` per block:
/// ids at or past the table's end are masked off, the rest gather their
/// positions, each lane counts the block's earlier hits with one
/// `vpopcntd` of the broadcast hit mask under a `lane_below` constant,
/// and the lanes with `p + q − (hits + earlier) ≤ cap` count as matches.
/// The last block is masked. Exact integer counts, so it returns the
/// scalar loop's as long as `|A| + |b|` (which bounds `p + q`) fits in a
/// `u32` lane.
///
/// # Safety
///
/// `pos.len()` must be at most `i32::MAX`: gather indices are signed, so
/// a longer table would let an id past `i32::MAX` read before `pos`.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512vpopcntdq"
))]
#[inline]
unsafe fn walk_counts_512(pos: &[u32], b: &[u32], cap: u32) -> (usize, usize) {
    use std::arch::x86_64::*;
    const LANE: [u32; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
    // Lane `l` keeps the hit-mask bits of lanes `0..l`: `(1 << l) − 1`.
    const LANE_BELOW: [u32; 16] = [
        0, 0x1, 0x3, 0x7, 0xf, 0x1f, 0x3f, 0x7f, 0xff, 0x1ff, 0x3ff, 0x7ff, 0xfff, 0x1fff, 0x3fff,
        0x7fff,
    ];
    // SAFETY: avx512f/avx512vpopcntdq are compile-time target features
    // here. Loads are masked to `b`'s live elements, and the gather only
    // reads lanes whose id is below `pos.len() ≤ i32::MAX` (the caller's
    // guarantee), so every index it reads is inside `pos`; masked-off
    // lanes touch no memory.
    unsafe {
        let end = _mm512_set1_epi32(pos.len() as i32);
        let cap = _mm512_set1_epi32(cap as i32);
        let lane = _mm512_loadu_si512(LANE.as_ptr().cast());
        let below = _mm512_loadu_si512(LANE_BELOW.as_ptr().cast());
        let (mut hits, mut matches) = (0u32, 0u32);
        let mut q = 0;
        while q < b.len() {
            let live: __mmask16 = u16::MAX >> (16 - (b.len() - q).min(16));
            let y = _mm512_maskz_loadu_epi32(live, b.as_ptr().add(q).cast());
            let inside = _mm512_mask_cmplt_epu32_mask(live, y, end);
            let p = _mm512_mask_i32gather_epi32::<4>(
                _mm512_setzero_si512(),
                inside,
                y,
                pos.as_ptr().cast(),
            );
            let hit = _mm512_mask_test_epi32_mask(inside, p, p);
            let earlier =
                _mm512_popcnt_epi32(_mm512_and_si512(_mm512_set1_epi32(i32::from(hit)), below));
            // q ≥ hits, and each hit lane's index in the block is at
            // least its `earlier`, so no hit lane wraps.
            let base = _mm512_set1_epi32((q as u32 - hits) as i32);
            let drawn =
                _mm512_sub_epi32(_mm512_add_epi32(p, _mm512_add_epi32(base, lane)), earlier);
            matches += _mm512_mask_cmple_epu32_mask(hit, drawn, cap).count_ones();
            hits += hit.count_ones();
            q += 16;
        }
        (hits as usize, matches as usize)
    }
}

impl BottomK {
    /// Builds the sketch of `items` with parameter `k` and a hash seeded
    /// from `seed`. Comparable only across sketches with equal `k`/`seed`.
    pub fn from_set(items: &[u32], k: usize, seed: u64) -> Self {
        assert!(k > 0, "bottom-k needs k ≥ 1");
        let family = HashFamily::new(1, seed);
        let mut keys: Vec<u64> = items.iter().map(|&x| packed_key(&family, x)).collect();
        select_bottom_k(&mut keys, k);
        BottomK {
            elems: keys.iter().map(|&key| key as u32).collect(),
            hashes: keys.iter().map(|&key| (key >> 32) as u32).collect(),
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

    /// The union walk against `other`: uncapped when both are lossless,
    /// else capped at this sketch's `k`.
    fn walk(&self, other: &BottomK) -> PairWalk {
        let cap = if self.is_exact() && other.is_exact() {
            usize::MAX
        } else {
            self.k
        };
        PairWalk::merge(&self.elems, &self.hashes, &other.elems, &other.hashes, cap)
    }

    /// `Ĵ_1H = matches / k'` where `k'` is the number of union draws
    /// actually seen (`k` in the sampling regime); when both sketches are
    /// lossless the whole sets are available and the exact Jaccard is
    /// returned instead.
    pub fn estimate_jaccard(&self, other: &BottomK) -> f64 {
        self.walk(other).jaccard()
    }

    /// `|X∩Y|̂_1H` (Eq. 5 form).
    ///
    /// When both sketches are lossless (`|X| ≤ k` and `|Y| ≤ k`) the full
    /// sets are stored, so the exact `|X∩Y|` (uncapped merge) is returned
    /// directly.
    pub fn estimate_intersection(&self, other: &BottomK) -> f64 {
        self.walk(other).intersection(self.set_size, other.set_size)
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
        let n = geom.len();
        let mut set_sizes = vec![0u32; n];
        pg_parallel::parallel_fill_with(&mut set_sizes, |s| set(s).len() as u32);
        // Each sample gets room for min(cap, |set|) entries, which it fills
        // unless the set repeats an element.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0usize;
        for (s, &size) in set_sizes.iter().enumerate() {
            total += geom.width_of(s).min(size as usize);
            assert!(
                total <= u32::MAX as usize,
                "sketch storage exceeds u32 offsets"
            );
            offsets.push(total as u32);
        }
        let mut elems = vec![0u32; total];
        let mut hashes = vec![0u32; total];
        let mut lens = vec![0u32; n];
        {
            struct SendPtr(*mut u32);
            // SAFETY: the one field is a pointer into an array the parallel
            // region below only touches through disjoint per-set windows.
            unsafe impl Send for SendPtr {}
            unsafe impl Sync for SendPtr {}
            let (elems_base, hashes_base) =
                (SendPtr(elems.as_mut_ptr()), SendPtr(hashes.as_mut_ptr()));
            let lens_base = SendPtr(lens.as_mut_ptr());
            let (elems_base, hashes_base, lens_base) = (&elems_base, &hashes_base, &lens_base);
            let (family, geom, set, offsets) = (&family, &geom, &set, &offsets);
            pg_parallel::parallel_for_scratch(
                n,
                pg_parallel::auto_grain(n),
                Vec::new,
                |keys, s| {
                    keys.clear();
                    keys.extend(set(s).iter().map(|&x| packed_key(family, x)));
                    select_bottom_k(keys, geom.width_of(s));
                    let (start, end) = (offsets[s] as usize, offsets[s + 1] as usize);
                    // The window was sized from an earlier call of `set(s)`.
                    assert!(keys.len() <= end - start, "set {s} changed while building");
                    // SAFETY: window `start..end` is exclusive to set s and
                    // holds `keys` (asserted above).
                    let (e, h) = unsafe {
                        (
                            std::slice::from_raw_parts_mut(elems_base.0.add(start), keys.len()),
                            std::slice::from_raw_parts_mut(hashes_base.0.add(start), keys.len()),
                        )
                    };
                    for ((e, h), &key) in e.iter_mut().zip(h.iter_mut()).zip(keys.iter()) {
                        *e = key as u32;
                        *h = (key >> 32) as u32;
                    }
                    // SAFETY: slot s is exclusive to set s.
                    unsafe { *lens_base.0.add(s) = keys.len() as u32 };
                },
            );
        }
        if lens
            .iter()
            .zip(offsets.windows(2))
            .any(|(&l, w)| l != w[1] - w[0])
        {
            // A repeated element left some sample short: close the gaps.
            let mut dst = 0usize;
            for (s, &len) in lens.iter().enumerate() {
                let src = offsets[s] as usize;
                elems.copy_within(src..src + len as usize, dst);
                hashes.copy_within(src..src + len as usize, dst);
                offsets[s] = dst as u32;
                dst += len as usize;
            }
            offsets[n] = dst as u32;
            elems.truncate(dst);
            hashes.truncate(dst);
            total = dst;
        }
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
            let key = packed_key(&self.family, x);
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

    /// The union walk between sets `i` and `j` (the pairwise merge).
    #[inline]
    fn walk(&self, i: usize, j: usize) -> PairWalk {
        let (ni, nj) = (self.set_size(i), self.set_size(j));
        PairWalk::merge(
            self.sample(i),
            self.sample_hashes(i),
            self.sample(j),
            self.sample_hashes(j),
            PairWalk::cap(ni, self.cap_of(i), nj, self.cap_of(j)),
        )
    }

    /// `|X∩Y|̂_1H` between sets `i` and `j`; see
    /// [`BottomK::estimate_intersection`] for the lossless shortcut.
    /// Cross-stratum pairs walk `min(k_i, k_j)` union draws — exactly both
    /// samples truncated to the narrower cap.
    #[inline]
    pub fn estimate_intersection(&self, i: usize, j: usize) -> f64 {
        self.walk(i, j)
            .intersection(self.set_size(i), self.set_size(j))
    }

    /// `Ĵ_1H` between sets `i` and `j`.
    #[inline]
    pub fn estimate_jaccard(&self, i: usize, j: usize) -> f64 {
        self.walk(i, j).jaccard()
    }

    /// Row sweep: `out[t] = estimate_intersection(i, js[t])`, bit for bit,
    /// with set `i`'s sample pinned once in `table` (see the module docs).
    /// `table` is worker-local scratch; after its first rows it is reused
    /// without allocating.
    pub fn intersection_row_into(
        &self,
        i: usize,
        js: &[u32],
        table: &mut PositionTable,
        out: &mut [f64],
    ) {
        let ni = self.set_size(i);
        self.row_walks(i, js, table, out, |w, j| {
            w.intersection(ni, self.set_size(j))
        });
    }

    /// Row sweep: `out[t] = estimate_jaccard(i, js[t])`, bit for bit —
    /// [`Self::intersection_row_into`] with the Jaccard tail.
    pub fn jaccard_row_into(
        &self,
        i: usize,
        js: &[u32],
        table: &mut PositionTable,
        out: &mut [f64],
    ) {
        self.row_walks(i, js, table, out, |w, _| w.jaccard());
    }

    /// The one row kernel: pins set `i`'s sample, walks every destination
    /// sample against it, and writes `finish(walk, j)` for each.
    #[inline]
    fn row_walks(
        &self,
        i: usize,
        js: &[u32],
        table: &mut PositionTable,
        out: &mut [f64],
        finish: impl Fn(PairWalk, usize) -> f64,
    ) {
        debug_assert_eq!(js.len(), out.len());
        let (ni, ki) = (self.set_size(i), self.cap_of(i));
        let pinned = table.pin(self.sample(i));
        for (o, &j) in out.iter_mut().zip(js) {
            let j = j as usize;
            let cap = PairWalk::cap(ni, ki, self.set_size(j), self.cap_of(j));
            *o = finish(pinned.walk(self.sample(j), cap), j);
        }
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
    fn row_kernel_matches_pairwise_across_regimes() {
        // Mix of lossless (≤ k) and sampled (> k) sets, so rows pair
        // lossless×lossless, lossless×sampled and sampled×sampled.
        let sets: Vec<Vec<u32>> = (0..14)
            .map(|s| (0..3 + s * 11).map(|i| (i * 5 + s) as u32).collect())
            .collect();
        let col = BottomKCollection::build(sets.len(), 12, 3, |i| &sets[i][..]);
        let mut table = PositionTable::default();
        let mut row = [0.0; 2];
        for i in 0..sets.len() {
            for j in 0..sets.len() - 1 {
                col.intersection_row_into(i, &[j as u32, j as u32 + 1], &mut table, &mut row);
                assert_eq!(row[0], col.estimate_intersection(i, j), "i={i} j={j}");
                assert_eq!(row[1], col.estimate_intersection(i, j + 1), "i={i} j={j}");
            }
        }
    }

    #[test]
    fn pinned_row_paths_match_indexed_paths() {
        let sets: Vec<Vec<u32>> = (0..25)
            .map(|s| (0..5 + s * 9).map(|i| (i * 3 + s) as u32).collect())
            .collect();
        let col = BottomKCollection::build(sets.len(), 16, 7, |i| &sets[i][..]);
        let js: Vec<u32> = (0..sets.len() as u32).collect();
        let (mut table, mut inter, mut jacc) =
            (PositionTable::default(), vec![0.0; 25], vec![0.0; 25]);
        for i in 0..sets.len() {
            col.intersection_row_into(i, &js, &mut table, &mut inter);
            col.jaccard_row_into(i, &js, &mut table, &mut jacc);
            for j in 0..sets.len() {
                assert_eq!(inter[j], col.estimate_intersection(i, j), "({i},{j})");
                assert_eq!(jacc[j], col.estimate_jaccard(i, j), "({i},{j})");
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
        let mut table = PositionTable::default();
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
                // Row sweeps always agree with the indexed path on the
                // stratified collection itself.
                let j1 = (j + 1) % sets.len();
                let mut row = [0.0; 2];
                strat.intersection_row_into(i, &[j as u32, j1 as u32], &mut table, &mut row);
                assert_eq!(row[0], strat.estimate_intersection(i, j), "row ({i},{j})");
                assert_eq!(row[1], strat.estimate_intersection(i, j1), "row ({i},{j1})");
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

    /// The selection the build made before it selected: sort every key,
    /// dedup, truncate — kept only as this module's reference.
    fn full_sort_selection(items: &[u32], k: usize, family: &HashFamily) -> Vec<u64> {
        let mut keys: Vec<u64> = items.iter().map(|&x| packed_key(family, x)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(k);
        keys
    }

    /// Random sets over `0..universe`, some repeating elements, one of them
    /// repeating an element among its own bottom-`k` keys.
    fn random_sets(n: usize, universe: u64, k: usize, seed: u64) -> Vec<Vec<u32>> {
        let family = HashFamily::new(1, seed);
        let mut state = seed;
        (0..n)
            .map(|s| {
                let len = (pg_hash::splitmix64(&mut state) % 60) as usize;
                let mut v: Vec<u32> = (0..len)
                    .map(|_| (pg_hash::splitmix64(&mut state) % universe) as u32)
                    .collect();
                if s % 3 == 0 && !v.is_empty() {
                    // Repeat one of the set's k smallest keys, so the
                    // selected keys hold a duplicate.
                    let keys = full_sort_selection(&v, k, &family);
                    let pick = keys[s % keys.len()] as u32;
                    v.push(pick);
                    v.push(pick);
                }
                v
            })
            .collect()
    }

    #[test]
    fn selection_build_equals_full_sort_reference() {
        for (seed, universe) in [(11u64, 50u64), (12, 400), (13, 1 << 20)] {
            let sets = random_sets(90, universe, 8, seed);
            let family = HashFamily::new(1, seed);
            let assign: Vec<u8> = (0..sets.len()).map(|i| (i % 3) as u8).collect();
            for geom in [
                SetGeometry::uniform(sets.len(), 8),
                strata(&[16, 8, 3], &assign),
            ] {
                let col = BottomKCollection::build_on(geom, seed, |i| &sets[i][..]);
                let mut total = 0;
                for (i, set) in sets.iter().enumerate() {
                    let want = full_sort_selection(set, col.cap_of(i), &family);
                    let elems: Vec<u32> = want.iter().map(|&key| key as u32).collect();
                    let hashes: Vec<u32> = want.iter().map(|&key| (key >> 32) as u32).collect();
                    assert_eq!(col.sample(i), &elems[..], "seed {seed} set {i}");
                    assert_eq!(col.sample_hashes(i), &hashes[..], "seed {seed} set {i}");
                    assert_eq!(col.raw_offsets()[i] as usize, total, "tight packing");
                    assert_eq!(col.set_size(i), set.len());
                    total += elems.len();
                    if col.cap_of(i) == 8 {
                        assert_eq!(BottomK::from_set(set, 8, seed).elements(), &elems[..]);
                    }
                }
                assert_eq!(col.raw_elems().len(), total);
                assert_eq!(col.is_strided(), total == col.geometry().total());
            }
        }
    }

    /// The classic definition: the first `cap` distinct keys of the union,
    /// counting those in both samples; `(matches, seen)`.
    fn naive_union_walk(a: &[u64], b: &[u64], cap: usize) -> (usize, usize) {
        let mut union: Vec<u64> = a.iter().chain(b).copied().collect();
        union.sort_unstable();
        union.dedup();
        union.truncate(cap);
        let both = union
            .iter()
            .filter(|x| a.contains(x) && b.contains(x))
            .count();
        (both, union.len())
    }

    #[test]
    fn row_kernel_matches_merge_and_union_definition() {
        // The build's hash cannot collide on two elements: murmur3 of a
        // 32-bit key chains bijections of that key. So these samples carry
        // a stand-in hash under which every element `e` collides with
        // `e ^ 1`, and the `(hash, element)` tie-break runs on most pairs.
        // Half the ids sit far above the set count, as in an exchange
        // worker's row-range sub-store.
        let fake_hash = |e: u32| pg_hash::splitmix64_at(e as u64 / 2) as u32;
        let mut state = 7u64;
        let pool: Vec<u32> = (0..24)
            .map(|t| {
                let e = (pg_hash::splitmix64(&mut state) % 64) as u32;
                e + if t % 2 == 0 { 0 } else { 1_000_000 }
            })
            .flat_map(|e| [e, e ^ 1])
            .collect();
        let n = 40;
        let assign: Vec<u8> = (0..n).map(|i| (i % 4) as u8).collect();
        let geom = strata(&[2, 5, 9, 64], &assign);
        let (mut elems, mut hashes, mut offsets, mut lens, mut sizes) =
            (vec![], vec![], vec![0u32], vec![], vec![]);
        for s in 0..n {
            let mut keys: Vec<u64> = pool
                .iter()
                .filter(|_| s % 10 != 9 && !pg_hash::splitmix64(&mut state).is_multiple_of(3))
                .map(|&e| (fake_hash(e) as u64) << 32 | e as u64)
                .collect();
            keys.sort_unstable();
            keys.dedup();
            sizes.push(keys.len() as u32);
            keys.truncate(geom.width_of(s));
            elems.extend(keys.iter().map(|&key| key as u32));
            hashes.extend(keys.iter().map(|&key| (key >> 32) as u32));
            lens.push(keys.len() as u32);
            offsets.push(elems.len() as u32);
        }
        let col =
            BottomKCollection::from_raw_parts(elems, hashes, offsets, lens, sizes, geom, 1, false);
        let keys = |s: usize| -> Vec<u64> {
            let (e, h) = (col.sample(s), col.sample_hashes(s));
            e.iter()
                .zip(h)
                .map(|(&e, &h)| (h as u64) << 32 | e as u64)
                .collect()
        };
        let mut table = PositionTable::default();
        let (mut lossless, mut sampled, mut empty) = (0, 0, 0);
        for i in 0..n {
            let pinned = table.pin(col.sample(i));
            for j in 0..n {
                let cap = PairWalk::cap(
                    col.set_size(i),
                    col.cap_of(i),
                    col.set_size(j),
                    col.cap_of(j),
                );
                let row = pinned.walk(col.sample(j), cap);
                let merge = col.walk(i, j);
                let want = naive_union_walk(&keys(i), &keys(j), cap);
                assert_eq!((row.matches, row.seen), want, "row ({i},{j}) cap {cap}");
                assert_eq!(
                    (merge.matches, merge.seen),
                    want,
                    "merge ({i},{j}) cap {cap}"
                );
                lossless += usize::from(cap == usize::MAX);
                sampled += usize::from(cap < usize::MAX && want.1 == cap);
                empty += usize::from(col.sample(i).is_empty() || col.sample(j).is_empty());
            }
        }
        assert!(
            lossless > 0 && sampled > 0 && empty > 0,
            "{lossless} {sampled} {empty}"
        );
        // Row sweeps over the whole collection agree with the pairwise
        // estimators bit for bit.
        let js: Vec<u32> = (0..n as u32).collect();
        let (mut inter, mut jacc) = (vec![0.0; n], vec![0.0; n]);
        for i in 0..n {
            col.intersection_row_into(i, &js, &mut table, &mut inter);
            col.jaccard_row_into(i, &js, &mut table, &mut jacc);
            for j in 0..n {
                assert_eq!(inter[j], col.estimate_intersection(i, j), "({i},{j})");
                assert_eq!(jacc[j], col.estimate_jaccard(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn walk_paths_agree_at_lane_boundaries() {
        // A holds the 48 even ids below 96, so its table ends at 95. B
        // mixes hits, misses below the table's end, the id at its end and
        // ids past it, up to ones the signed gather index would read as
        // negative.
        let key = |e: u32| (pg_hash::splitmix64_at(u64::from(e)) as u32 as u64) << 32 | e as u64;
        let split = |keys: &[u64]| -> (Vec<u32>, Vec<u32>) {
            keys.iter()
                .map(|&key| (key as u32, (key >> 32) as u32))
                .unzip()
        };
        let k = 48;
        let mut a_keys: Vec<u64> = (0..96).step_by(2).map(key).collect();
        a_keys.sort_unstable();
        let (a, ah) = split(&a_keys);
        let mut table = PositionTable::default();
        let pinned = table.pin(&a);
        let end = pinned.pos.len() as u32;
        assert_eq!(end, 95);
        // The table the two walks read directly, with a set position just
        // past its end: an id read there would count as a hit.
        let guarded: Vec<u32> = pinned.pos.iter().copied().chain([1]).collect();
        let pos = &guarded[..end as usize];
        let pool: Vec<u32> = (0..end)
            .chain([end, end + 1, 1000, 1 << 31, u32::MAX - 1, u32::MAX])
            .collect();
        let mut state = 5u64;
        let (mut capped, mut past_end) = (0, 0);
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48] {
            for _ in 0..4 {
                let mut ids = pool.clone();
                for t in 0..len {
                    let pick = t + (pg_hash::splitmix64(&mut state) as usize) % (ids.len() - t);
                    ids.swap(t, pick);
                }
                let mut b_keys: Vec<u64> = ids[..len].iter().map(|&e| key(e)).collect();
                b_keys.sort_unstable();
                let (b, bh) = split(&b_keys);
                past_end += b.iter().filter(|&&y| y >= end).count();
                for cap in [1, 8, k, usize::MAX] {
                    let merge = PairWalk::merge(&a, &ah, &b, &bh, cap);
                    let walk = pinned.walk(&b, cap);
                    let msg = format!("len {len} cap {cap} b {b:?}");
                    assert_eq!(
                        (walk.matches, walk.seen),
                        (merge.matches, merge.seen),
                        "{msg}"
                    );
                    let (hits, matches) = walk_counts_scalar(pos, &b, cap);
                    assert_eq!(matches, merge.matches, "scalar {msg}");
                    assert_eq!(
                        cap.min(a.len() + b.len() - hits),
                        merge.seen,
                        "scalar {msg}"
                    );
                    #[cfg(all(
                        target_arch = "x86_64",
                        target_feature = "avx512f",
                        target_feature = "avx512vpopcntdq"
                    ))]
                    // SAFETY: the table has 95 entries.
                    assert_eq!(
                        unsafe { walk_counts_512(pos, &b, cap.min(a.len() + b.len()) as u32) },
                        (hits, matches),
                        "vector {msg}"
                    );
                    capped += usize::from(matches < hits);
                }
            }
        }
        assert!(capped > 0 && past_end > 0, "{capped} {past_end}");
    }

    #[test]
    fn unwinding_row_leaves_no_positions_behind() {
        let sets: Vec<Vec<u32>> = (0..6)
            .map(|s| (0..20).map(|i| i * 7 + s).collect())
            .collect();
        let col = BottomKCollection::build(sets.len(), 5, 1, |i| &sets[i][..]);
        let mut table = PositionTable::default();
        let mut out = [0.0; 2];
        let bad = sets.len() as u32; // no such destination: the row panics
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            col.intersection_row_into(0, &[1, bad], &mut table, &mut out)
        }));
        assert!(caught.is_err());
        assert!(table.pos.iter().all(|&p| p == 0), "stale positions");
        col.intersection_row_into(2, &[0, 1], &mut table, &mut out);
        assert_eq!(
            out,
            [
                col.estimate_intersection(2, 0),
                col.estimate_intersection(2, 1)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "changed while building")]
    fn a_set_that_grows_between_calls_panics() {
        // The build sizes each window from one call of `set` and fills it
        // from another; a longer second answer must not write past it.
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let long: Vec<u32> = (0..10).collect();
        pg_parallel::with_threads(1, || {
            BottomKCollection::build(1, 8, 1, |_| {
                match calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) {
                    0 => &long[..2],
                    _ => &long[..],
                }
            })
        });
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
