//! Bloom filters (§II-D) and the flat per-vertex collection ProbGraph
//! builds over all neighborhoods.
//!
//! By default every filter in a [`BloomCollection`] has the **same** bit
//! length — that is the paper's central load-balancing trick (Fig. 1,
//! panel 5): every neighborhood intersection costs exactly `B/W` word-AND
//! operations, no matter how skewed the degrees are.
//!
//! A collection may instead be **stratified**: its [`SetGeometry`] puts
//! sets into strata whose filter widths are power-of-two multiples of the
//! narrowest, stored back to back. The uniform layout is the one-stratum
//! case, indexed by stride. Cross-stratum pairs are estimated at the
//! narrower width by *folding* the wider filter: with the Lemire bucket
//! reduction `bucket = (h·B) >> 32`, a bit set at wide bucket `w` (width
//! `r·B`) corresponds exactly to narrow bucket `w / r`, so OR-ing each run
//! of `r` consecutive wide bits yields — bit for bit — the filter that
//! would have been built at width `B` directly ([`fold_words_into`]; the
//! equivalence suite pins this).
//!
//! ## Zero-allocation hot paths
//!
//! Three things keep the per-edge estimator cost at "a handful of word-AND
//! + popcount operations", as the paper's speedup model assumes:
//!
//! 1. **Batched hashing** — insertion and membership compute all `b` bucket
//!    indices of a key in one [`HashFamily::buckets_into`] call (key-side
//!    Murmur mixing hoisted, chains unrolled) into a stack buffer.
//! 2. **Cached popcounts** — `B_{X,1}` of every filter is computed once at
//!    build time ([`BloomFilter`] maintains it incrementally, the
//!    collection popcounts each freshly written, cache-hot window), so no
//!    estimator ever re-counts a static sketch.
//! 3. **Fused pair kernels** — with `B_{X,1}`/`B_{Y,1}` cached, one fused
//!    AND+popcount traversal yields `B_{X∩Y,1}` directly and `B_{X∪Y,1}`
//!    via `B_{X∪Y,1} = B_{X,1} + B_{Y,1} − B_{X∩Y,1}`, so the AND, Limit,
//!    *and* OR estimators all cost a single pass per edge.
//!
//! After that pass every estimator is a scalar tail over the popcounts,
//! evaluated at one stratum's [`BloomStratum`] (width, memoized Swamidass
//! curve, `b`); the tails themselves are the oracle layer's
//! `BloomStrategy`s. [`BloomCollectionIn::pair_stats`] yields the pairwise
//! popcounts and the stratum, and row sweeps read destinations through a
//! [`BloomFlatView`] (a uniform store, or a stratified store's folded base
//! view) or through [`BloomFoldCache`] shadows.

use crate::bitvec::{and_count_words, count_ones_words, or_count_words, BitVec, PairOnes};
use crate::cowvec::cow_clear;
use crate::estimators;
use crate::geometry::SetGeometry;
use pg_hash::HashFamily;
use pg_parallel::parallel_for;
use std::borrow::Cow;
use std::sync::OnceLock;

/// Upper bound on `b` so bucket batches fit a stack buffer. The paper finds
/// `b ∈ {1, 2}` best and never evaluates past 4; 16 leaves generous slack.
pub const MAX_BLOOM_HASHES: usize = 16;

/// A standalone Bloom filter over `u32` items with `b` hash functions.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: BitVec,
    family: HashFamily,
    /// Incrementally maintained popcount (`B_{X,1}`); filters are
    /// insert-only, so every newly set bit bumps it by one.
    ones: usize,
}

impl BloomFilter {
    /// An empty filter of `bits` bits with `b` seeded hash functions.
    pub fn new(bits: usize, b: usize, seed: u64) -> Self {
        assert!(bits > 0, "Bloom filter needs at least one bit");
        assert!(b > 0, "Bloom filter needs at least one hash function");
        assert!(
            b <= MAX_BLOOM_HASHES,
            "Bloom filter supports at most {MAX_BLOOM_HASHES} hash functions"
        );
        BloomFilter {
            bits: BitVec::zeros(bits),
            family: HashFamily::new(b, seed),
            ones: 0,
        }
    }

    /// Builds a filter directly from a set of items.
    pub fn from_set(items: &[u32], bits: usize, b: usize, seed: u64) -> Self {
        let mut f = Self::new(bits, b, seed);
        for &x in items {
            f.insert(x);
        }
        f
    }

    /// Inserts one item (sets its `b` bits; all buckets batched into one
    /// streaming hash call — key-side mixing computed once per item).
    #[inline]
    pub fn insert(&mut self, item: u32) {
        let bits = &mut self.bits;
        let ones = &mut self.ones;
        self.family
            .for_each_bucket(item as u64, bits.len_bits(), |pos| {
                *ones += usize::from(bits.set_new(pos as usize));
            });
    }

    /// Membership query; false positives possible, false negatives not.
    #[inline]
    pub fn contains(&self, item: u32) -> bool {
        let mut buf = [0u32; MAX_BLOOM_HASHES];
        let b = self.family.len();
        self.family
            .buckets_into(item as u64, self.bits.len_bits(), &mut buf[..b]);
        buf[..b].iter().all(|&pos| self.bits.get(pos as usize))
    }

    /// Number of hash functions `b`.
    #[inline]
    pub fn num_hashes(&self) -> usize {
        self.family.len()
    }

    /// Filter size in bits (`B_X`).
    #[inline]
    pub fn len_bits(&self) -> usize {
        self.bits.len_bits()
    }

    /// Number of set bits (`B_{X,1}`) — cached, `O(1)`.
    #[inline]
    pub fn count_ones(&self) -> usize {
        debug_assert_eq!(self.ones, self.bits.count_ones());
        self.ones
    }

    /// The underlying bit vector.
    #[inline]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Single-set cardinality estimate `|X|̂_S` (Eq. 1).
    pub fn estimate_size(&self) -> f64 {
        estimators::bf_size_swamidass(self.count_ones(), self.len_bits(), self.num_hashes())
    }

    /// `|X∩Y|̂_AND` (Eq. 2) against another filter built with the same
    /// parameters and seed.
    pub fn estimate_intersection_and(&self, other: &BloomFilter) -> f64 {
        estimators::bf_intersect_and(
            self.bits.and_count(&other.bits),
            self.len_bits(),
            self.num_hashes(),
        )
    }
}

/// All per-set Bloom filters of a ProbGraph representation, stored back
/// to back in one flat word array laid out by a [`SetGeometry`] in words
/// (`n_sets × words_per_set` when uniform).
///
/// The word array is copy-on-write over `'a`: the owned alias
/// [`BloomCollection`] is the ordinary built/streamed form, while a
/// borrowed `BloomCollectionIn<'buf>` serves estimates directly out of a
/// validated snapshot buffer (the zero-copy exchange/mmap load path).
/// Mutation of a borrowed collection clones the words first (`Cow`
/// semantics); the cached popcounts are always owned bookkeeping.
#[derive(Clone, Debug)]
pub struct BloomCollectionIn<'a> {
    data: Cow<'a, [u64]>,
    /// Per-set word windows. Stratum widths are power-of-two multiples
    /// (at most 64×) of the narrowest, so wide filters fold exactly onto
    /// narrow ones for cross-stratum estimates.
    geom: SetGeometry<'a>,
    b: usize,
    family: HashFamily,
    /// Cached `B_{X,1}` per filter, popcounted at build time while each
    /// window is still cache-hot. Bookkeeping like the callers' size
    /// arrays — not charged against the sketch budget.
    ones: Vec<u32>,
    /// Memoized Swamidass curves, one per stratum width; `None` for huge
    /// filters whose tables would not stay cache-resident.
    swami: Option<SwamiTables>,
    /// Lazily built [`BloomFoldCache`] for stratified row sweeps —
    /// derived bookkeeping like `ones`/`swami`, never persisted, never
    /// charged against the sketch budget. Built on the first cross-width
    /// sweep and shared by every oracle over this collection (epoch
    /// snapshots amortize it across all queries of an epoch); every
    /// mutation path resets it, so it can never serve stale folds.
    folds: OnceLock<BloomFoldCache>,
}

/// The owned (`'static`) form of [`BloomCollectionIn`] — what builds,
/// streaming updates, and the copying snapshot loader produce.
pub type BloomCollection = BloomCollectionIn<'static>;

/// Folds a filter built at `r ×` the target width down to the target:
/// ORs each run of `r` consecutive wide bits into one narrow bit (the
/// Lemire-bucket quotient map — see the module docs), appending the
/// narrow words to `out` and returning their popcount. `r` must be a
/// power of two ≤ 64; `r == 1` is a plain copy.
pub fn fold_words_into(wide: &[u64], r: usize, out: &mut Vec<u64>) -> usize {
    debug_assert!(r.is_power_of_two() && r <= 64, "fold ratio {r}");
    if r == 1 {
        out.extend_from_slice(wide);
        return count_ones_words(wide);
    }
    let nb_per_word = 64 / r;
    let mut ones = 0usize;
    for t in 0..wide.len() / r {
        let mut acc = 0u64;
        for q in 0..r {
            let mut x = wide[t * r + q];
            // OR every r-bit group into the group's low bit: total shift
            // reach is r−1 < r, so groups never contaminate each other.
            let mut s = 1;
            while s < r {
                x |= x >> s;
                s <<= 1;
            }
            // Pack the group low bits (every r-th bit) together.
            let mut packed = 0u64;
            for j in 0..nb_per_word {
                packed |= ((x >> (j * r)) & 1) << j;
            }
            acc |= packed << (q * nb_per_word);
        }
        ones += acc.count_ones() as usize;
        out.push(acc);
    }
    ones
}

/// Precomputed folded shadows of a stratified collection: every filter,
/// folded down to each *narrower* stratum's width, with the folded
/// popcounts alongside. Purely derived data — each shadow is exactly the
/// [`BloomCollectionIn::fold_words_of`] output, so estimates read off it
/// bit-identically — and transient: oracles build one lazily on the first
/// cross-width row sweep and drop it with the algorithm call, so it never
/// counts against the sketch budget and can never go stale (the oracle
/// pins the collection immutably).
///
/// Why it exists: under degree orientation the destination lists of a row
/// sweep are hub-heavy, so *most* cross-stratum traffic hits destinations
/// **wider** than the source. Folding those per (source, destination)
/// visit re-folds every hub once per row it appears in — `O(m)` folds.
/// The cache folds each wide filter once (`O(n)` work bounded by the
/// store size), after which every cross-width run is an equal-width
/// multi-lane window pass, same as the uniform sweep.
#[derive(Clone, Debug)]
pub struct BloomFoldCache {
    /// Dense base-width view: **every** filter folded to the narrowest
    /// stratum width (narrowest-stratum filters are plain copies), in the
    /// flat uniform `n_sets × base_words` stride. A narrowest-stratum
    /// source compares every destination at its own width, so its whole
    /// row sweep runs on this view with the uniform kernel's indexing —
    /// no per-destination stratum resolution, offset chasing, or width
    /// branches.
    base: Vec<u64>,
    /// Popcount of each base-view window.
    base_ones: Vec<u32>,
    /// Words per base-view window (the narrowest stratum's width).
    base_words: usize,
    /// Sparse mid-width shadows, set-major: set `i`'s shadows at targets
    /// *between* its own width and the base width (ascending stratum
    /// index) occupy `word_off[i]..word_off[i + 1]`. Only wider-stratum
    /// sources ever read these, so the bulk of a skewed assignment
    /// contributes nothing.
    words: Vec<u64>,
    /// Word offset of each set's sparse block (`n_sets + 1` entries).
    word_off: Vec<u64>,
    /// Folded popcounts, in the same set-major target order.
    ones: Vec<u32>,
    /// Shadow-count offset of each set's block (`n_sets + 1` entries).
    ones_off: Vec<u32>,
    /// `sub_word[s][t]`: word offset of target `t`'s shadow inside a
    /// stratum-`s` set's sparse block; `u32::MAX` when absent (target
    /// not narrower, or served by the base view).
    sub_word: Vec<Vec<u32>>,
    /// `sub_idx[s][t]`: shadow index of target `t` inside the block.
    sub_idx: Vec<Vec<u32>>,
    /// Words per shadow at each target stratum.
    t_words: Vec<u32>,
}

impl BloomFoldCache {
    /// Folds every filter of `col` down to each narrower stratum width:
    /// one dense pass for the base (narrowest) width, sparse blocks for
    /// the mid widths. One `O(store)` pass in total.
    pub fn new(col: &BloomCollectionIn<'_>) -> Self {
        let geom = col.geometry();
        let assign = geom.assign().expect("fold cache on a uniform collection");
        let widths = geom.widths();
        let n_strata = widths.len();
        let base_words = geom.min_width();

        // Dense base-width view over all sets.
        let mut base = Vec::with_capacity(assign.len() * base_words);
        let mut base_ones = Vec::with_capacity(assign.len());
        for (i, &a) in assign.iter().enumerate() {
            let r = widths[a as usize] / base_words;
            base_ones.push(fold_words_into(col.words(i), r, &mut base) as u32);
        }

        // Sparse mid-width shadows (targets strictly between base and the
        // set's own width).
        let wanted = |s: usize, t: usize| widths[t] < widths[s] && widths[t] > base_words;
        let mut sub_word = vec![vec![u32::MAX; n_strata]; n_strata];
        let mut sub_idx = vec![vec![u32::MAX; n_strata]; n_strata];
        let mut block_words = vec![0u32; n_strata];
        let mut block_count = vec![0u32; n_strata];
        for s in 0..n_strata {
            for t in 0..n_strata {
                if wanted(s, t) {
                    sub_word[s][t] = block_words[s];
                    sub_idx[s][t] = block_count[s];
                    block_words[s] += widths[t] as u32;
                    block_count[s] += 1;
                }
            }
        }
        let mut word_off = Vec::with_capacity(assign.len() + 1);
        let mut ones_off = Vec::with_capacity(assign.len() + 1);
        let (mut wo, mut oo) = (0u64, 0u32);
        word_off.push(wo);
        ones_off.push(oo);
        for &a in assign {
            wo += block_words[a as usize] as u64;
            oo += block_count[a as usize];
            word_off.push(wo);
            ones_off.push(oo);
        }
        let mut words = Vec::with_capacity(wo as usize);
        let mut ones = Vec::with_capacity(oo as usize);
        for (i, &a) in assign.iter().enumerate() {
            for t in 0..n_strata {
                if wanted(a as usize, t) {
                    // `fold_words_into` appends, so set-major target order
                    // falls out of the iteration order.
                    let o = col.fold_words_of(i, t, &mut words);
                    ones.push(o as u32);
                }
            }
        }
        BloomFoldCache {
            base,
            base_ones,
            base_words,
            words,
            word_off,
            ones,
            ones_off,
            sub_word,
            sub_idx,
            t_words: widths.iter().map(|&w| w as u32).collect(),
        }
    }

    /// The dense base-width view: every filter at the narrowest stratum
    /// width, flat stride.
    #[inline]
    fn base_view(&self) -> BloomFlatView<'_> {
        BloomFlatView {
            words: &self.base,
            ones: &self.base_ones,
            stride: self.base_words,
        }
    }

    /// Shadow of set `i` (which lives in stratum `s`) at the narrower
    /// stratum `t`: the folded word window and its popcount. Base-width
    /// targets come off the dense view, mid-width targets off the sparse
    /// blocks.
    #[inline]
    pub fn shadow(&self, i: usize, s: usize, t: usize) -> (&[u64], usize) {
        let nw = self.t_words[t] as usize;
        if nw == self.base_words {
            let base = self.base_view();
            return (base.window(i), base.ones(i));
        }
        let sub = self.sub_word[s][t];
        debug_assert_ne!(
            sub,
            u32::MAX,
            "no shadow: stratum {t} not narrower than {s}"
        );
        let wo = (self.word_off[i] + sub as u64) as usize;
        let oi = self.ones_off[i] as usize + self.sub_idx[s][t] as usize;
        (&self.words[wo..wo + nw], self.ones[oi] as usize)
    }
}

/// Every filter of a collection at one width in one flat array:
/// destination `j`'s window is `words[j·stride..(j+1)·stride]` and its
/// popcount `ones[j]`. A uniform store is this view of itself; a
/// stratified store's [`BloomFoldCache`] holds one at the narrowest
/// width. See [`BloomCollectionIn::base_view`].
#[derive(Clone, Copy, Debug)]
pub struct BloomFlatView<'a> {
    words: &'a [u64],
    ones: &'a [u32],
    stride: usize,
}

impl<'a> BloomFlatView<'a> {
    /// Window of set `j`.
    #[inline]
    pub fn window(&self, j: usize) -> &'a [u64] {
        &self.words[j * self.stride..(j + 1) * self.stride]
    }

    /// Popcount of set `j`'s window.
    #[inline]
    pub fn ones(&self, j: usize) -> usize {
        self.ones[j] as usize
    }
}

/// The geometry one stratum's estimates are evaluated at: its filter
/// width, its memoized Swamidass curve and the hash count `b`. Every
/// Bloom estimator tail reads its popcounts through one of these.
#[derive(Clone, Copy, Debug)]
pub struct BloomStratum<'a> {
    /// `Ŝ(o)` for `o ∈ 0..=bits`; `None` for filters too wide to memoize.
    curve: Option<&'a [f64]>,
    bits: usize,
    b: usize,
}

impl BloomStratum<'_> {
    /// `Ŝ(ones)` (Eq. 1) at this stratum's width — one table lookup, or
    /// the closed form for filters too wide for the table. Bit-identical
    /// either way: the table entries *are* outputs of the same function.
    #[inline]
    pub fn swamidass(&self, ones: usize) -> f64 {
        match self.curve {
            Some(t) => t[ones],
            None => estimators::bf_size_swamidass(ones, self.bits, self.b),
        }
    }

    /// Number of hash functions `b`.
    #[inline]
    pub fn num_hashes(&self) -> usize {
        self.b
    }
}

/// Largest `B` for which the Swamidass table is materialized (512 KiB of
/// `f64`; per-neighborhood budgets are orders of magnitude below this).
const MAX_SWAMI_TABLE_BITS: usize = 1 << 16;

/// Memoized Swamidass curves of every stratum width, back to back:
/// `table[start[s] + o] = −(B_s/b)·ln(1 − o/B_s)` for each popcount
/// `o ∈ 0..=B_s`. For a fixed width the AND estimator (Eq. 2) is
/// `swami(and_ones)` and the OR estimator (Eq. 29) is
/// `nx + ny − swami(or_ones)`, so the per-edge `ln` (≈ half the cost of a
/// fused AND pass) becomes one L2 load. [`BloomCollectionIn::stratum`]
/// hands out one curve as a slice, so a sweep resolves `start[s]` once.
#[derive(Clone, Debug)]
struct SwamiTables {
    table: Vec<f64>,
    start: Vec<usize>,
}

impl SwamiTables {
    /// Curves for filters `words[s] · 64` bits wide with `b` hash
    /// functions; `None` when any table would not stay cache-resident.
    fn new(words: &[usize], b: usize) -> Option<Self> {
        if words.iter().any(|&w| w * 64 > MAX_SWAMI_TABLE_BITS) {
            return None;
        }
        let mut table = Vec::new();
        let mut start = Vec::with_capacity(words.len());
        for &w in words {
            let bits = w * 64;
            let curve =
                pg_parallel::parallel_init(bits + 1, |o| estimators::bf_size_swamidass(o, bits, b));
            start.push(table.len());
            if table.is_empty() {
                table = curve;
            } else {
                table.extend_from_slice(&curve);
            }
        }
        Some(SwamiTables { table, start })
    }
}

/// The Bloom width rules: `1..=MAX_BLOOM_HASHES` hash functions, and
/// stratum widths that are power-of-two multiples (at most 64×) of the
/// narrowest — exactly the ratios [`fold_words_into`] folds.
fn check_shape(geom: &SetGeometry<'_>, b: usize) {
    assert!(b > 0, "need at least one hash function");
    assert!(
        b <= MAX_BLOOM_HASHES,
        "at most {MAX_BLOOM_HASHES} hash functions supported"
    );
    let min = geom.min_width();
    for &w in geom.widths() {
        let r = w / min;
        assert!(
            w % min == 0 && r.is_power_of_two() && r <= 64,
            "stratum width {w} words is not a power-of-two multiple (≤ 64×) of {min}"
        );
    }
}

impl<'a> BloomCollectionIn<'a> {
    /// Builds filters for `n_sets` sets in parallel. `set(i)` must return
    /// the i-th input set; it is called once per set, from worker threads.
    ///
    /// `bits_per_set` is rounded up to a multiple of 64 so each filter owns
    /// whole words.
    pub fn build<'s, F>(n_sets: usize, bits_per_set: usize, b: usize, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        let words = bits_per_set.div_ceil(64).max(1);
        Self::build_on(SetGeometry::uniform(n_sets, words), b, seed, set)
    }

    /// Builds one filter per set of `geom` (widths in words) in parallel:
    /// set `i` gets a `geom.width_of(i) · 64`-bit filter. `set(i)` must
    /// return the i-th input set; it is called once per set, from worker
    /// threads.
    pub fn build_on<'s, F>(geom: SetGeometry<'a>, b: usize, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        check_shape(&geom, b);
        let family = HashFamily::new(b, seed);
        let mut data = vec![0u64; geom.total()];
        let mut ones = vec![0u32; geom.len()];
        {
            struct SendPtr<T>(*mut T);
            // SAFETY: the one field is a pointer into an array the parallel
            // region below only touches through disjoint per-set windows.
            unsafe impl<T> Send for SendPtr<T> {}
            unsafe impl<T> Sync for SendPtr<T> {}
            let base = SendPtr(data.as_mut_ptr());
            let base = &base;
            let ones_base = SendPtr(ones.as_mut_ptr());
            let ones_base = &ones_base;
            let (family, geom) = (&family, &geom);
            parallel_for(geom.len(), |s| {
                let r = geom.range(s);
                let bits = r.len() * 64;
                // SAFETY: the geometry tiles the array, so window `r` is
                // exclusive to set s.
                let window =
                    unsafe { std::slice::from_raw_parts_mut(base.0.add(r.start), r.len()) };
                for &x in set(s) {
                    family.for_each_bucket(x as u64, bits, |pos| {
                        // SAFETY: the Lemire reduction in `for_each_bucket`
                        // yields pos < bits = window.len() * 64, so pos/64
                        // is in bounds. (The checked form costs ~20 % of
                        // construction: the bound is runtime here, so LLVM
                        // cannot elide the check itself.)
                        unsafe {
                            *window.get_unchecked_mut(pos as usize / 64) |= 1u64 << (pos % 64);
                        }
                    });
                }
                // Popcount the freshly written, cache-hot window once so no
                // estimator ever has to re-count a static sketch.
                // SAFETY: slot s is exclusive to set s.
                unsafe { *ones_base.0.add(s) = count_ones_words(window) as u32 };
            });
        }
        Self::assemble(Cow::Owned(data), ones, geom, b, family)
    }

    /// Assembles a collection around already-materialized filter words —
    /// the counting-Bloom sibling derives its view bits from the counters
    /// in one linear sweep instead of re-hashing every set through a
    /// second build, and snapshot loads reconstruct collections from
    /// validated on-disk word arrays. The cached popcounts are computed
    /// here, in parallel; `data` must hold exactly `geom`'s windows, whose
    /// bits were produced by the same `(b, seed)` bucket sequence this
    /// collection will hash with. Accepts either an owned `Vec<u64>` or a
    /// borrowed `&'a [u64]` (the zero-copy snapshot load serves filters
    /// straight from the buffer).
    pub fn from_raw_words(
        data: impl Into<Cow<'a, [u64]>>,
        geom: SetGeometry<'a>,
        b: usize,
        seed: u64,
    ) -> Self {
        let data = data.into();
        check_shape(&geom, b);
        assert_eq!(
            data.len(),
            geom.total(),
            "word array does not match the geometry"
        );
        let mut ones = vec![0u32; geom.len()];
        pg_parallel::parallel_fill_with(&mut ones, |i| {
            count_ones_words(&data[geom.range(i)]) as u32
        });
        Self::assemble(data, ones, geom, b, HashFamily::new(b, seed))
    }

    fn assemble(
        data: Cow<'a, [u64]>,
        ones: Vec<u32>,
        geom: SetGeometry<'a>,
        b: usize,
        family: HashFamily,
    ) -> Self {
        BloomCollectionIn {
            swami: SwamiTables::new(geom.widths(), b),
            data,
            geom,
            b,
            family,
            ones,
            folds: OnceLock::new(),
        }
    }

    /// Overwrites `self` with the concatenation of `parts`' filters, in
    /// order, reusing `self`'s allocations — the copy-on-publish path of
    /// the sharded serving layer, where each part is one shard's
    /// contiguous vertex range. All parts must share the stratum widths
    /// and `b`, and have been built under `self`'s seed (the families are
    /// not comparable at runtime; the serving layer constructs every
    /// shard from one config). The word, popcount and assignment arrays
    /// are straight memcpys, so a publish costs one linear pass over the
    /// store and re-hashes nothing; the Swamidass tables are only
    /// re-derived when `self` held a different width table.
    pub fn gather_into(&mut self, parts: &[&BloomCollectionIn<'_>]) {
        self.folds.take();
        let first = parts.first().expect("gather needs at least one part");
        if self.geom.widths() != first.geom.widths() {
            self.swami = first.swami.clone();
        }
        self.geom.gather_into(parts.iter().map(|p| &p.geom));
        let data = cow_clear(&mut self.data);
        self.ones.clear();
        for p in parts {
            assert_eq!(p.b, self.b, "gather: mismatched hash counts");
            data.extend_from_slice(&p.data);
            self.ones.extend_from_slice(&p.ones);
        }
    }

    /// Detaches the collection from any borrowed snapshot buffer, cloning
    /// the word array if it was served in place. No-op for owned data.
    pub fn into_owned(self) -> BloomCollection {
        BloomCollectionIn {
            data: Cow::Owned(self.data.into_owned()),
            geom: self.geom.into_owned(),
            b: self.b,
            family: self.family,
            ones: self.ones,
            swami: self.swami,
            folds: self.folds,
        }
    }

    /// Number of filters.
    #[inline]
    pub fn len(&self) -> usize {
        self.geom.len()
    }

    /// True when the collection holds no filters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bits per filter (`B_X`) — for stratified collections this is the
    /// **narrowest** stratum's width (the geometry every cross-stratum
    /// estimate folds to); use [`BloomCollectionIn::bits_of`] for the
    /// width of a specific set.
    #[inline]
    pub fn bits_per_set(&self) -> usize {
        self.words_per_set() * 64
    }

    /// The per-set window layout, widths in words.
    #[inline]
    pub fn geometry(&self) -> &SetGeometry<'a> {
        &self.geom
    }

    /// Filter width of set `i` in bits.
    #[inline]
    pub fn bits_of(&self, i: usize) -> usize {
        self.geom.width_of(i) * 64
    }

    /// Stratum index of set `i` (0 for uniform collections).
    #[inline]
    pub fn stratum_of(&self, i: usize) -> usize {
        self.geom.stratum_of(i)
    }

    /// Number of hash functions `b`.
    #[inline]
    pub fn num_hashes(&self) -> usize {
        self.b
    }

    /// Words per filter — the narrowest stratum's when stratified.
    #[inline]
    pub fn words_per_set(&self) -> usize {
        self.geom.min_width()
    }

    /// The word window of filter `i`.
    #[inline]
    pub fn words(&self, i: usize) -> &[u64] {
        &self.data[self.geom.range(i)]
    }

    /// The lazily built fold-shadow cache (stratified collections only):
    /// built on first use, shared by every reader of this collection, and
    /// reset by every mutation. Amortized `O(store)` once per collection
    /// (or per published epoch snapshot) rather than per oracle.
    pub fn fold_cache(&self) -> &BloomFoldCache {
        self.folds.get_or_init(|| BloomFoldCache::new(self))
    }

    /// Folds set `i`'s filter down to `stratum`'s width, appending the
    /// narrow words to `out` and returning their popcount. `i`'s stratum
    /// must be at least as wide as the target (equal width is a copy).
    pub fn fold_words_of(&self, i: usize, stratum: usize, out: &mut Vec<u64>) -> usize {
        let (wi, wt) = (self.geom.width_of(i), self.geom.widths()[stratum]);
        debug_assert!(wi >= wt, "cannot fold {wi} words up to {wt}");
        fold_words_into(self.words(i), wi / wt, out)
    }

    /// The whole flat word array — the byte-stable payload snapshots
    /// persist.
    #[inline]
    pub fn raw_words(&self) -> &[u64] {
        &self.data
    }

    /// The cached per-filter popcounts, in set order. Snapshots persist
    /// these alongside the words and cross-check them against freshly
    /// recomputed popcounts on load.
    #[inline]
    pub fn raw_ones(&self) -> &[u32] {
        &self.ones
    }

    /// Popcount of filter `i` — cached at build time, `O(1)`.
    #[inline]
    pub fn count_ones(&self, i: usize) -> usize {
        debug_assert_eq!(self.ones[i] as usize, count_ones_words(self.words(i)));
        self.ones[i] as usize
    }

    /// Inserts one item into filter `i` in place, maintaining the cached
    /// popcount incrementally (each freshly set bit bumps it by one) —
    /// Bloom filters are naturally insert-only, so a streamed edge costs
    /// exactly `b` bucket probes, same as at build time.
    #[inline]
    pub fn insert(&mut self, i: usize, item: u32) {
        self.insert_batch(i, std::slice::from_ref(&item));
    }

    /// Batched per-set insert: absorbs all of `xs` into filter `i` with
    /// the word window and popcount delta hoisted out of the element loop
    /// (the streaming hot path — updates arrive grouped by source vertex).
    pub fn insert_batch(&mut self, i: usize, xs: &[u32]) {
        self.folds.take();
        let range = self.geom.range(i);
        let bits = range.len() * 64;
        let window = &mut self.data.to_mut()[range];
        let mut added = 0u32;
        for &x in xs {
            self.family.for_each_bucket(x as u64, bits, |pos| {
                let w = &mut window[pos as usize / 64];
                let bit = 1u64 << (pos % 64);
                added += u32::from(*w & bit == 0);
                *w |= bit;
            });
        }
        self.ones[i] += added;
    }

    /// Sets bucket bit `pos` of filter `i` directly (no hashing),
    /// maintaining the cached popcount. Crate-internal hook for
    /// [`crate::CountingBloomCollection`], whose counters decide *when* a
    /// derived bit flips; everyone else inserts elements.
    #[inline]
    pub(crate) fn set_bit(&mut self, i: usize, pos: usize) {
        self.folds.take();
        debug_assert!(pos < self.bits_of(i));
        let start = self.geom.range(i).start;
        let w = &mut self.data.to_mut()[start + pos / 64];
        let bit = 1u64 << (pos % 64);
        self.ones[i] += u32::from(*w & bit == 0);
        *w |= bit;
    }

    /// Clears bucket bit `pos` of filter `i` directly, maintaining the
    /// cached popcount. Counterpart of [`BloomCollection::set_bit`]; only
    /// the counting-Bloom sibling may clear bits (a plain Bloom filter is
    /// insert-only by construction).
    #[inline]
    pub(crate) fn clear_bit(&mut self, i: usize, pos: usize) {
        self.folds.take();
        debug_assert!(pos < self.bits_of(i));
        let start = self.geom.range(i).start;
        let w = &mut self.data.to_mut()[start + pos / 64];
        let bit = 1u64 << (pos % 64);
        self.ones[i] -= u32::from(*w & bit != 0);
        *w &= !bit;
    }

    /// The `b` raw 32-bit hashes of `item` into `out`
    /// (`out.len() == num_hashes()`), one per hash function. They do not
    /// depend on the filter: filter `i`'s bucket for hash `h` is
    /// `(h · bits_of(i)) >> 32`, at every stratum width, so
    /// [`contains`](Self::contains)`(i, item)` holds exactly when every
    /// such bucket is set in [`words`](Self::words)`(i)`. Callers probing
    /// one item against many filters hash it once here.
    #[inline]
    pub fn hashes_into(&self, item: u32, out: &mut [u32]) {
        self.family.hashes_into(item as u64, out);
    }

    /// Membership query against filter `i` (buckets batched).
    pub fn contains(&self, i: usize, item: u32) -> bool {
        let w = self.words(i);
        let mut buf = [0u32; MAX_BLOOM_HASHES];
        self.family
            .buckets_into(item as u64, w.len() * 64, &mut buf[..self.b]);
        buf[..self.b]
            .iter()
            .all(|&pos| (w[pos as usize / 64] >> (pos % 64)) & 1 == 1)
    }

    /// `B_{X∩Y,1}`: fused AND+popcount of filters `i` and `j` — the `O(B/W)`
    /// kernel of Table IV. Cross-stratum pairs are compared at the
    /// narrower width (the wider filter is folded first — a scalar
    /// fallback; batch sweeps hoist the fold per row).
    #[inline]
    pub fn and_ones(&self, i: usize, j: usize) -> usize {
        if self.bits_of(i) == self.bits_of(j) {
            and_count_words(self.words(i), self.words(j))
        } else {
            self.pair_stats(i, j).0.and_ones
        }
    }

    /// `B_{X∪Y,1}`: fused OR+popcount (cross-stratum pairs folded to the
    /// narrower width first).
    #[inline]
    pub fn or_ones(&self, i: usize, j: usize) -> usize {
        if self.bits_of(i) == self.bits_of(j) {
            or_count_words(self.words(i), self.words(j))
        } else {
            self.pair_stats(i, j).0.or_ones
        }
    }

    /// Pair statistics plus the stratum whose geometry (width + Swamidass
    /// curve) the pair's estimates must be evaluated at: the narrower of
    /// the two sets' strata. Equal-width pairs run the fused kernel on
    /// the raw windows; cross-width pairs fold the wider filter (its
    /// folded popcount is computed during the fold — the raw cached
    /// popcount belongs to the unfolded geometry). Every pairwise Bloom
    /// estimate is this followed by its estimator tail.
    pub fn pair_stats(&self, i: usize, j: usize) -> (PairOnes, usize) {
        let (wi, wj) = (self.bits_of(i), self.bits_of(j));
        if wi == wj {
            let and_ones = and_count_words(self.words(i), self.words(j));
            let a_ones = self.ones[i] as usize;
            let b_ones = self.ones[j] as usize;
            return (
                PairOnes {
                    and_ones,
                    or_ones: a_ones + b_ones - and_ones,
                    a_ones,
                    b_ones,
                },
                self.stratum_of(i),
            );
        }
        let mut folded = Vec::new();
        let (narrow, a_ones, b_ones, s) = if wi < wj {
            let b_ones = self.fold_words_of(j, self.stratum_of(i), &mut folded);
            (i, self.ones[i] as usize, b_ones, self.stratum_of(i))
        } else {
            let a_ones = self.fold_words_of(i, self.stratum_of(j), &mut folded);
            (j, a_ones, self.ones[j] as usize, self.stratum_of(j))
        };
        let (a_words, b_words): (&[u64], &[u64]) = if narrow == i {
            (self.words(i), &folded)
        } else {
            (&folded, self.words(j))
        };
        let and_ones = and_count_words(a_words, b_words);
        (
            PairOnes {
                and_ones,
                or_ones: a_ones + b_ones - and_ones,
                a_ones,
                b_ones,
            },
            s,
        )
    }

    /// All four pair statistics of filters `i` and `j` from **one** fused
    /// AND pass: the cached popcounts supply `B_{X,1}`/`B_{Y,1}` and
    /// `B_{X∪Y,1}` follows by inclusion–exclusion. Bit-identical to the
    /// general [`crate::bitvec::and_or_ones_words`] kernel over the two
    /// windows (the equivalence suite asserts this).
    #[inline]
    pub fn pair_ones(&self, i: usize, j: usize) -> PairOnes {
        self.pair_stats(i, j).0
    }

    /// Stratum `s`'s estimator geometry: its width, memoized Swamidass
    /// curve and `b`.
    #[inline]
    pub fn stratum(&self, s: usize) -> BloomStratum<'_> {
        let bits = self.geom.widths()[s] * 64;
        BloomStratum {
            curve: self
                .swami
                .as_ref()
                .map(|t| &t.table[t.start[s]..=t.start[s] + bits]),
            bits,
            b: self.b,
        }
    }

    /// Every filter at the narrowest stratum width in one flat view: the
    /// store itself when uniform, the fold cache's dense base view (wider
    /// filters pre-folded) otherwise. A narrowest-width source compares
    /// every destination at its own width, so its whole row sweep reads
    /// this view with plain strided indexing.
    #[inline]
    pub fn base_view(&self) -> BloomFlatView<'_> {
        if self.geom.is_uniform() {
            BloomFlatView {
                words: &self.data,
                ones: &self.ones,
                stride: self.words_per_set(),
            }
        } else {
            self.fold_cache().base_view()
        }
    }

    /// `|X∩Y|̂_AND` (Eq. 2) between sets `i` and `j`, at the narrower
    /// set's stratum.
    #[inline]
    pub fn estimate_and(&self, i: usize, j: usize) -> f64 {
        let (p, s) = self.pair_stats(i, j);
        self.stratum(s).swamidass(p.and_ones)
    }

    /// Bytes of sketch storage — what the paper's budget `s` accounts for.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let items: Vec<u32> = (0..200).map(|i| i * 13 + 1).collect();
        let f = BloomFilter::from_set(&items, 4096, 3, 7);
        for &x in &items {
            assert!(f.contains(x));
        }
    }

    #[test]
    fn few_false_positives_when_sized_well() {
        let items: Vec<u32> = (0..100).collect();
        let f = BloomFilter::from_set(&items, 1 << 13, 3, 7);
        let fps = (1000u32..11_000).filter(|&x| f.contains(x)).count();
        // ~100 items in 8192 bits with b=3: fp rate well below 1 %.
        assert!(fps < 100, "false positives: {fps}/10000");
    }

    #[test]
    fn size_estimate_accuracy() {
        let items: Vec<u32> = (0..500).collect();
        let f = BloomFilter::from_set(&items, 1 << 14, 2, 3);
        let est = f.estimate_size();
        assert!((est - 500.0).abs() < 25.0, "est={est}");
    }

    #[test]
    fn intersection_estimates_track_truth() {
        // |X|=300, |Y|=300, |X∩Y|=100.
        let x: Vec<u32> = (0..300).collect();
        let y: Vec<u32> = (200..500).collect();
        let bits = 1 << 13;
        let fx = BloomFilter::from_set(&x, bits, 2, 9);
        let fy = BloomFilter::from_set(&y, bits, 2, 9);
        let and = fx.estimate_intersection_and(&fy);
        let and_ones = fx.bits().and_count(fy.bits());
        let or_ones = fx.count_ones() + fy.count_ones() - and_ones;
        let or = estimators::bf_intersect_or(or_ones, bits, 2, x.len(), y.len());
        assert!((and - 100.0).abs() < 30.0, "AND={and}");
        assert!((or - 100.0).abs() < 30.0, "OR={or}");
        // Limit estimator systematically overestimates the intersection
        // (both sets' bits overlap by chance) but stays in the ballpark.
        let lim = estimators::bf_intersect_limit(and_ones, 2);
        assert!(lim >= and * 0.5 && lim < 300.0, "L={lim}");
    }

    #[test]
    fn disjoint_sets_give_near_zero() {
        let x: Vec<u32> = (0..200).collect();
        let y: Vec<u32> = (10_000..10_200).collect();
        let fx = BloomFilter::from_set(&x, 1 << 13, 2, 1);
        let fy = BloomFilter::from_set(&y, 1 << 13, 2, 1);
        assert!(fx.estimate_intersection_and(&fy) < 20.0);
    }

    #[test]
    fn collection_matches_standalone_filters() {
        let sets: Vec<Vec<u32>> = (0..20)
            .map(|s| (0..50 + s * 7).map(|i| (i * 31 + s) as u32).collect())
            .collect();
        let col = BloomCollection::build(sets.len(), 1024, 2, 5, |i| &sets[i]);
        for (i, set) in sets.iter().enumerate() {
            let f = BloomFilter::from_set(set, 1024, 2, 5);
            assert_eq!(col.count_ones(i), f.count_ones(), "set {i}");
            for &x in set {
                assert!(col.contains(i, x));
            }
        }
        // Pairwise AND counts agree too.
        let f0 = BloomFilter::from_set(&sets[0], 1024, 2, 5);
        let f1 = BloomFilter::from_set(&sets[1], 1024, 2, 5);
        assert_eq!(col.and_ones(0, 1), f0.bits().and_count(f1.bits()));
        assert_eq!(
            col.or_ones(0, 1),
            or_count_words(f0.bits().words(), f1.bits().words())
        );
    }

    #[test]
    fn fused_pair_path_matches_general_kernel() {
        let sets: Vec<Vec<u32>> = (0..12)
            .map(|s| (0..30 + s * 17).map(|i| (i * 13 + s) as u32).collect())
            .collect();
        let col = BloomCollection::build(sets.len(), 960, 3, 11, |i| &sets[i][..]);
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                let fused = col.pair_ones(i, j);
                let general = crate::bitvec::and_or_ones_words(col.words(i), col.words(j));
                assert_eq!(fused, general, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn filter_estimators_match_collection_estimators() {
        let x: Vec<u32> = (0..300).collect();
        let y: Vec<u32> = (200..500).collect();
        let col = BloomCollection::build(2, 1 << 13, 2, 9, |i| if i == 0 { &x } else { &y });
        let fx = BloomFilter::from_set(&x, 1 << 13, 2, 9);
        let fy = BloomFilter::from_set(&y, 1 << 13, 2, 9);
        assert_eq!(fx.estimate_intersection_and(&fy), col.estimate_and(0, 1));
        // The collection's pair statistics are the standalone filters' bit
        // counts, so every estimator tail agrees with them too.
        let p = col.pair_ones(0, 1);
        assert_eq!(p.and_ones, fx.bits().and_count(fy.bits()));
        assert_eq!((p.a_ones, p.b_ones), (fx.count_ones(), fy.count_ones()));
        // or_ones via inclusion–exclusion equals the direct OR pass.
        assert_eq!(p.or_ones, col.or_ones(0, 1));
    }

    #[test]
    fn memoized_estimators_match_closed_forms() {
        let x: Vec<u32> = (0..400).collect();
        let y: Vec<u32> = (100..600).collect();
        let col = BloomCollection::build(2, 4096, 2, 3, |i| if i == 0 { &x } else { &y });
        assert!(col.swami.is_some(), "table must materialize for small B");
        // Table lookups must be bit-identical to the closed-form estimators.
        assert_eq!(
            col.estimate_and(0, 1),
            estimators::bf_intersect_and(col.and_ones(0, 1), col.bits_per_set(), 2)
        );
        let at = col.stratum(0);
        assert_eq!(
            (x.len() + y.len()) as f64 - at.swamidass(col.or_ones(0, 1)),
            estimators::bf_intersect_or(col.or_ones(0, 1), col.bits_per_set(), 2, x.len(), y.len())
        );
        // Saturation entry (ones == B) stays finite.
        assert!(at.swamidass(col.bits_per_set()).is_finite());
    }

    #[test]
    fn collection_rounds_bits_to_words() {
        let sets = [vec![1u32, 2, 3]];
        let col = BloomCollection::build(1, 100, 1, 1, |i| &sets[i][..]);
        assert_eq!(col.bits_per_set(), 128);
        assert_eq!(col.memory_bytes(), 16);
    }

    #[test]
    fn parallel_build_deterministic() {
        let sets: Vec<Vec<u32>> = (0..100)
            .map(|s| (0..200).map(|i| (i * 17 + s * 3) as u32).collect())
            .collect();
        let a = pg_parallel::with_threads(1, || {
            BloomCollection::build(100, 512, 2, 9, |i| &sets[i][..])
        });
        let b = pg_parallel::with_threads(8, || {
            BloomCollection::build(100, 512, 2, 9, |i| &sets[i][..])
        });
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        let full: Vec<Vec<u32>> = (0..10)
            .map(|s| (0..80 + s * 9).map(|i| (i * 19 + s) as u32).collect())
            .collect();
        let want = BloomCollection::build(full.len(), 768, 2, 13, |i| &full[i][..]);
        // Seed with a prefix of each set, then stream the rest in place.
        let mut got =
            BloomCollection::build(full.len(), 768, 2, 13, |i| &full[i][..full[i].len() / 3]);
        for (i, set) in full.iter().enumerate() {
            let (head, tail) = set.split_at(set.len() / 3);
            let _ = head;
            got.insert_batch(i, tail);
            assert_eq!(got.words(i), want.words(i), "set {i}");
            assert_eq!(got.count_ones(i), want.count_ones(i), "set {i}");
        }
        // Single-element path agrees with the batch path.
        let mut one = BloomCollection::build(1, 256, 3, 5, |_| &[][..]);
        for x in [7u32, 8, 9] {
            one.insert(0, x);
        }
        let rebuilt = BloomCollection::build(1, 256, 3, 5, |_| &[7u32, 8, 9][..]);
        assert_eq!(one.words(0), rebuilt.words(0));
        assert_eq!(one.count_ones(0), rebuilt.count_ones(0));
    }

    #[test]
    fn folding_a_wide_filter_reproduces_the_narrow_build_exactly() {
        // The Lemire-bucket quotient map makes the fold *exact*: OR-ing
        // each run of r consecutive bits of an rB-bit filter yields, bit
        // for bit, the filter that would have been built at B directly.
        let items: Vec<u32> = (0..300).map(|i| i * 37 + 5).collect();
        for r in [2usize, 4, 8] {
            let narrow = BloomCollection::build(1, 512, 2, 11, |_| &items[..]);
            let wide = BloomCollection::build(1, 512 * r, 2, 11, |_| &items[..]);
            let mut folded = Vec::new();
            let ones = fold_words_into(wide.words(0), r, &mut folded);
            assert_eq!(&folded[..], narrow.words(0), "r={r}");
            assert_eq!(ones, narrow.count_ones(0), "r={r}");
        }
    }

    #[test]
    fn one_stratum_build_is_bit_identical_to_uniform() {
        let sets: Vec<Vec<u32>> = (0..30)
            .map(|s| (0..40 + s * 11).map(|i| (i * 23 + s) as u32).collect())
            .collect();
        let uni = BloomCollection::build(sets.len(), 768, 2, 13, |i| &sets[i][..]);
        let one = SetGeometry::stratified(vec![12], vec![0; sets.len()]);
        let strat = BloomCollection::build_on(one, 2, 13, |i| &sets[i][..]);
        assert!(strat.geometry().is_uniform(), "1-stratum lowers to uniform");
        assert_eq!(uni.raw_words(), strat.raw_words());
        assert_eq!(uni.raw_ones(), strat.raw_ones());
    }

    #[test]
    fn cross_stratum_estimates_match_both_built_at_narrow_width() {
        let sets: Vec<Vec<u32>> = (0..16)
            .map(|s| (0..60 + s * 19).map(|i| (i * 31 + s) as u32).collect())
            .collect();
        // Alternate strata so plenty of cross-stratum pairs exist.
        let assign: Vec<u8> = (0..16).map(|i| (i % 3) as u8).collect();
        let geom = SetGeometry::stratified(vec![32, 16, 8], assign);
        let strat = BloomCollection::build_on(geom, 2, 7, |i| &sets[i][..]);
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                let w = strat.bits_of(i).min(strat.bits_of(j));
                let both_narrow = BloomCollection::build(2, w, 2, 7, |t| {
                    if t == 0 {
                        &sets[i][..]
                    } else {
                        &sets[j][..]
                    }
                });
                assert_eq!(
                    strat.and_ones(i, j),
                    both_narrow.and_ones(0, 1),
                    "pair ({i},{j})"
                );
                assert_eq!(
                    strat.estimate_and(i, j),
                    both_narrow.estimate_and(0, 1),
                    "pair ({i},{j})"
                );
                // Equal pair statistics and equal curves give equal Limit
                // and OR estimates too.
                let (p, s) = strat.pair_stats(i, j);
                assert_eq!(p, both_narrow.pair_ones(0, 1), "pair ({i},{j})");
                assert_eq!(
                    strat.stratum(s).swamidass(p.or_ones),
                    both_narrow.stratum(0).swamidass(p.or_ones),
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn stratified_insert_matches_stratified_rebuild() {
        let full: Vec<Vec<u32>> = (0..12)
            .map(|s| (0..70 + s * 9).map(|i| (i * 19 + s) as u32).collect())
            .collect();
        let assign: Vec<u8> = (0..12).map(|i| (i % 2) as u8).collect();
        let geom = SetGeometry::stratified(vec![16, 8], assign);
        let want = BloomCollection::build_on(geom.clone(), 2, 13, |i| &full[i][..]);
        let mut got = BloomCollection::build_on(geom, 2, 13, |i| &full[i][..full[i].len() / 3]);
        for (i, set) in full.iter().enumerate() {
            got.insert_batch(i, &set[set.len() / 3..]);
            assert_eq!(got.words(i), want.words(i), "set {i}");
            assert_eq!(got.count_ones(i), want.count_ones(i), "set {i}");
        }
    }

    #[test]
    fn empty_set_filter_is_all_zero() {
        let sets: [Vec<u32>; 1] = [vec![]];
        let col = BloomCollection::build(1, 256, 3, 2, |i| &sets[i][..]);
        assert_eq!(col.count_ones(0), 0);
        assert_eq!(col.estimate_and(0, 0), 0.0);
    }
}
