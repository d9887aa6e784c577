//! Counting Bloom filters — the first representation with a real deletion
//! path (the ROADMAP's "removals" half of the dynamic-graph story).
//!
//! A [`CountingBloomCollection`] keeps, per set, one small saturating
//! counter per bucket (packed [`COUNTER_BITS`]-bit fields in the same
//! flat-word layout as [`crate::BitVec`]) **plus** a derived plain
//! [`BloomCollection`] read view maintained under the invariant
//!
//! > view bit `pos` of set `i` is set  ⇔  counter `pos` of set `i` > 0.
//!
//! Inserting an element increments its `b` bucket counters (setting the
//! derived bit on every 0 → 1 transition); removing decrements them
//! (clearing the bit on every 1 → 0 transition). Because insert and
//! remove walk the *same* deterministic bucket sequence, they are exactly
//! symmetric — any interleaving of inserts and removes leaves the
//! counters, the derived bits, and the cached popcounts identical to a
//! from-scratch build over the surviving elements. The whole read side
//! (fused AND+popcount pair kernels, multi-lane row sweeps, memoized
//! Swamidass estimators) is the untouched [`BloomCollection`] machinery
//! running over the view.
//!
//! ## Saturation caveat
//!
//! Counters saturate at [`COUNTER_MAX`] and then become **sticky**: a
//! saturated counter is never incremented *or decremented* again, so its
//! derived bit stays set forever. This preserves the no-false-negatives
//! invariant (decrementing a saturated counter could drop a bucket other
//! live elements still need) at the cost of a permanent false positive in
//! that bucket. With [`COUNTER_BITS`] = 4 a bucket saturates only once 15
//! (element, hash) pairs land on it — far beyond the load factor any
//! budget-resolved filter reaches (the expected count per bucket is
//! `b·|X| / B`, and estimators are useless long before it nears 15).
//!
//! Removing an element that was never inserted is a caller bug: it is
//! debug-asserted, and release builds leave zero counters untouched
//! rather than wrapping.

use crate::bloom::BloomCollection;
use crate::cowvec::cow_clear;
use crate::geometry::SetGeometry;
use pg_hash::HashFamily;
use pg_parallel::parallel_for;
use std::borrow::Cow;

/// Width of one saturating counter, in bits. 16 counters pack into each
/// 64-bit word — the classic summary-cache choice (Fan et al.).
pub const COUNTER_BITS: usize = 4;

/// Saturation value: a counter that reaches this sticks there forever
/// (see the module docs for why sticky beats wrapping or clamped
/// decrement).
pub const COUNTER_MAX: u64 = (1 << COUNTER_BITS) - 1;

/// Counters per 64-bit word.
const COUNTERS_PER_WORD: usize = 64 / COUNTER_BITS;

/// Counter words per derived-view word: a set's counter window is always
/// exactly this many times its view window.
const CW_PER_VIEW_WORD: usize = 64 / COUNTERS_PER_WORD;

/// All per-set counting Bloom filters of a ProbGraph representation:
/// packed per-bucket counters plus the derived [`BloomCollection`] read
/// view (see the module docs for the invariant tying them together).
/// The packed counters are copy-on-write over `'a` (see
/// [`BloomCollectionIn`]): borrowed collections serve a validated
/// snapshot buffer in place, while the derived view — recomputed at load
/// — is always owned bookkeeping.
#[derive(Clone, Debug)]
pub struct CountingBloomCollectionIn<'a> {
    /// The derived insert-only view every estimator reads — a real
    /// `BloomCollection`, so the fused kernels and the memoized Swamidass
    /// table work unchanged. Its geometry is the one layout of this
    /// collection: set `i`'s counters occupy [`CW_PER_VIEW_WORD`]× its
    /// view window's word range.
    view: BloomCollection,
    /// Packed saturating counters, [`COUNTERS_PER_WORD`] per word, laid
    /// out by the view's geometry scaled by [`CW_PER_VIEW_WORD`].
    counters: Cow<'a, [u64]>,
    /// The seeded hash family — identical to the view's (same `(b, seed)`
    /// construction), kept here so removals can re-derive bucket
    /// sequences without touching the view's private state.
    family: HashFamily,
}

/// The owned (`'static`) form of [`CountingBloomCollectionIn`].
pub type CountingBloomCollection = CountingBloomCollectionIn<'static>;

/// The bucket-occupancy bits of one packed counter word: bit `t` is set
/// iff counter `t` is nonzero — the derived-view invariant, evaluated
/// [`COUNTERS_PER_WORD`] buckets at a time during builds.
#[inline]
fn occupancy_bits(w: u64) -> u64 {
    let mut bits = 0u64;
    for t in 0..COUNTERS_PER_WORD {
        bits |= u64::from((w >> (t * COUNTER_BITS)) & COUNTER_MAX != 0) << t;
    }
    bits
}

/// Saturating increment of counter `pos` inside a packed word window.
/// Returns `true` on the 0 → 1 transition (the derived bit must be set).
#[inline]
fn inc(window: &mut [u64], pos: usize) -> bool {
    let w = &mut window[pos / COUNTERS_PER_WORD];
    let shift = (pos % COUNTERS_PER_WORD) * COUNTER_BITS;
    let c = (*w >> shift) & COUNTER_MAX;
    if c < COUNTER_MAX {
        *w += 1u64 << shift;
    }
    c == 0
}

/// Saturating decrement of counter `pos` inside a packed word window.
/// Returns `true` on the 1 → 0 transition (the derived bit must be
/// cleared). Saturated counters are sticky; zero counters are a caller
/// bug (debug-asserted) and left untouched.
#[inline]
fn dec(window: &mut [u64], pos: usize) -> bool {
    let w = &mut window[pos / COUNTERS_PER_WORD];
    let shift = (pos % COUNTERS_PER_WORD) * COUNTER_BITS;
    let c = (*w >> shift) & COUNTER_MAX;
    debug_assert!(
        c > 0,
        "counting-Bloom removal of an element that was never inserted"
    );
    if c == 0 || c == COUNTER_MAX {
        return false;
    }
    *w -= 1u64 << shift;
    c == 1
}

/// Derives the occupancy view words from packed counters: one view word
/// gathers the occupancy of its 64 buckets from [`CW_PER_VIEW_WORD`]
/// consecutive counter words. Shared by [`CountingBloomCollection::build_on`]
/// and the snapshot reconstruction path so both produce bit-identical
/// views. Every per-set window is a whole number of view words, so the
/// global grouping never straddles a set boundary.
fn derive_view_words(counters: &[u64], n_view_words: usize) -> Vec<u64> {
    let mut view_words = vec![0u64; n_view_words];
    pg_parallel::parallel_fill_with(&mut view_words, |w| {
        let mut bits = 0u64;
        for j in 0..CW_PER_VIEW_WORD {
            bits |= occupancy_bits(counters[w * CW_PER_VIEW_WORD + j]) << (j * COUNTERS_PER_WORD);
        }
        bits
    });
    view_words
}

impl<'a> CountingBloomCollectionIn<'a> {
    /// Builds filters for `n_sets` sets in parallel. `bits_per_set` is
    /// rounded up to a multiple of 64 (whole view words; counter words
    /// pack [`COUNTERS_PER_WORD`] buckets each).
    pub fn build<'s, F>(n_sets: usize, bits_per_set: usize, b: usize, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        let words = bits_per_set.div_ceil(64).max(1);
        Self::build_on(SetGeometry::uniform(n_sets, words), b, seed, set)
    }

    /// Builds one filter per set of `geom` (widths in view words) in
    /// parallel. Each set is hashed **once**, into its counters; the
    /// derived view is then one linear occupancy sweep over the counter
    /// words (no second hashing pass), which makes it bit-identical to
    /// [`BloomCollection::build_on`] with the same geometry — the
    /// counters count exactly the bucket hits that build would have set.
    /// Width rules are the view's (whole words, power-of-two multiples of
    /// the narrowest), so cross-stratum estimators run unchanged on top.
    pub fn build_on<'s, F>(geom: SetGeometry<'static>, b: usize, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        let family = HashFamily::new(b, seed);
        let mut counters = vec![0u64; geom.total() * CW_PER_VIEW_WORD];
        {
            struct SendPtr(*mut u64);
            // SAFETY: the one field is a pointer into an array the parallel
            // region below only touches through disjoint per-set windows.
            unsafe impl Send for SendPtr {}
            unsafe impl Sync for SendPtr {}
            let base = SendPtr(counters.as_mut_ptr());
            let base = &base;
            let (family, geom) = (&family, &geom);
            parallel_for(geom.len(), |s| {
                let r = geom.range(s);
                let bits = r.len() * 64;
                // SAFETY: the geometry tiles the view, so the scaled window
                // is exclusive to set s.
                let window = unsafe {
                    std::slice::from_raw_parts_mut(
                        base.0.add(r.start * CW_PER_VIEW_WORD),
                        r.len() * CW_PER_VIEW_WORD,
                    )
                };
                for &x in set(s) {
                    family.for_each_bucket(x as u64, bits, |pos| {
                        inc(window, pos as usize);
                    });
                }
            });
        }
        let view_words = derive_view_words(&counters, geom.total());
        CountingBloomCollectionIn {
            view: BloomCollection::from_raw_words(view_words, geom, b, seed),
            counters: Cow::Owned(counters),
            family,
        }
    }

    /// Reconstructs a collection from already-materialized counter words
    /// laid out by `geom` (widths in view words) — the snapshot load path.
    /// The derived view is re-derived from the counters with the same
    /// occupancy sweep as [`Self::build_on`], so the `counter > 0 ⇔ bit
    /// set` invariant holds by construction — a caller holding an
    /// independently persisted view can compare it against
    /// [`Self::read_view`] to detect corruption. The view is always owned
    /// bookkeeping, so the geometry is detached; the counters stay
    /// zero-copy.
    pub fn from_counter_words(
        counters: impl Into<Cow<'a, [u64]>>,
        geom: SetGeometry<'_>,
        b: usize,
        seed: u64,
    ) -> Self {
        let counters = counters.into();
        assert_eq!(
            counters.len(),
            geom.total() * CW_PER_VIEW_WORD,
            "counter array does not match the geometry"
        );
        let view_words = derive_view_words(&counters, geom.total());
        CountingBloomCollectionIn {
            view: BloomCollection::from_raw_words(view_words, geom.into_owned(), b, seed),
            counters,
            family: HashFamily::new(b, seed),
        }
    }

    /// Overwrites `self` with the concatenation of `parts`' filters, in
    /// order, reusing `self`'s counter and view allocations — the serving
    /// layer's double-buffer publish path. All parts must share their
    /// stratum widths, `b` and a common seed; both the packed counters and
    /// the derived views concatenate as straight memcpys (shards own
    /// contiguous vertex ranges), so no re-derivation sweep runs.
    pub fn gather_into(&mut self, parts: &[&CountingBloomCollectionIn<'_>]) {
        let views: Vec<&BloomCollection> = parts.iter().map(|p| &p.view).collect();
        self.view.gather_into(&views);
        // The view gather just asserted shape compatibility, so the
        // counter windows — back to back, like the view's — gather as one
        // straight concatenation.
        let counters = cow_clear(&mut self.counters);
        for p in parts {
            counters.extend_from_slice(&p.counters);
        }
    }

    /// Detaches the collection from any borrowed snapshot buffer, cloning
    /// the counters if they were served in place. No-op for owned data.
    pub fn into_owned(self) -> CountingBloomCollection {
        CountingBloomCollectionIn {
            view: self.view,
            counters: Cow::Owned(self.counters.into_owned()),
            family: self.family,
        }
    }

    /// Number of **saturated** counters across all sets — buckets stuck at
    /// [`COUNTER_MAX`], which removals can never clear again (sticky
    /// saturation, see the module docs). On long insert/remove windows
    /// this is the drift metric to watch: each saturated bucket behaves
    /// like a plain Bloom bit from then on, so estimates inflate as the
    /// count grows. The `streaming_removal` bench section reports it.
    pub fn saturated_counters(&self) -> usize {
        self.counters
            .iter()
            .map(|&w| {
                (0..COUNTERS_PER_WORD)
                    .filter(|&t| (w >> (t * COUNTER_BITS)) & COUNTER_MAX == COUNTER_MAX)
                    .count()
            })
            .sum()
    }

    /// The derived insert-only read view. Estimators, oracles, and the
    /// fused row kernels read this exactly as they would a plain
    /// [`BloomCollection`]; it stays consistent through every insert and
    /// remove.
    #[inline]
    pub fn read_view(&self) -> &BloomCollection {
        &self.view
    }

    /// The per-set window layout, widths in view words (the counters use
    /// [`CW_PER_VIEW_WORD`]× each window).
    #[inline]
    pub fn geometry(&self) -> &SetGeometry<'static> {
        self.view.geometry()
    }

    /// Number of filters.
    #[inline]
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// True when the collection holds no filters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Buckets (= derived-view bits) per filter — for stratified
    /// collections this is the **narrowest** stratum's width, mirroring
    /// the view; use [`CountingBloomCollectionIn::bits_of`] for the width
    /// of a specific set.
    #[inline]
    pub fn bits_per_set(&self) -> usize {
        self.view.bits_per_set()
    }

    /// Buckets (= counters = view bits) of set `i`.
    #[inline]
    pub fn bits_of(&self, i: usize) -> usize {
        self.view.bits_of(i)
    }

    /// Stratum index of set `i` (0 for uniform collections).
    #[inline]
    pub fn stratum_of(&self, i: usize) -> usize {
        self.view.stratum_of(i)
    }

    /// Counter-word range of set `i`'s window.
    #[inline]
    fn cw_range(&self, i: usize) -> std::ops::Range<usize> {
        let r = self.view.geometry().range(i);
        r.start * CW_PER_VIEW_WORD..r.end * CW_PER_VIEW_WORD
    }

    /// Number of hash functions `b`.
    #[inline]
    pub fn num_hashes(&self) -> usize {
        self.view.num_hashes()
    }

    /// Current value of counter `pos` of set `i` (diagnostics and tests).
    #[inline]
    pub fn counter(&self, i: usize, pos: usize) -> u64 {
        let w = self.counters[self.cw_range(i).start + pos / COUNTERS_PER_WORD];
        (w >> ((pos % COUNTERS_PER_WORD) * COUNTER_BITS)) & COUNTER_MAX
    }

    /// The packed counter words of set `i` (tests compare these against a
    /// from-scratch build).
    #[inline]
    pub fn counter_words(&self, i: usize) -> &[u64] {
        &self.counters[self.cw_range(i)]
    }

    /// The whole flat counter array — the byte-stable payload snapshots
    /// persist.
    #[inline]
    pub fn raw_counters(&self) -> &[u64] {
        &self.counters
    }

    /// Inserts one item into filter `i` in place.
    #[inline]
    pub fn insert(&mut self, i: usize, item: u32) {
        self.insert_batch(i, std::slice::from_ref(&item));
    }

    /// Batched per-set insert: increments each item's `b` bucket counters
    /// and sets the derived bit on every 0 → 1 transition. The counter
    /// window is hoisted out of the element loop (the streaming hot path —
    /// updates arrive grouped by source vertex).
    pub fn insert_batch(&mut self, i: usize, xs: &[u32]) {
        let bits = self.view.bits_of(i);
        let range = self.cw_range(i);
        let window = &mut self.counters.to_mut()[range];
        let view = &mut self.view;
        for &x in xs {
            self.family.for_each_bucket(x as u64, bits, |pos| {
                if inc(window, pos as usize) {
                    view.set_bit(i, pos as usize);
                }
            });
        }
    }

    /// Removes one item from filter `i` in place. The item must have been
    /// inserted (counting filters cannot verify membership; removing an
    /// absent element silently corrupts shared buckets — debug builds
    /// assert, release builds refuse to underflow).
    #[inline]
    pub fn remove(&mut self, i: usize, item: u32) {
        self.remove_batch(i, std::slice::from_ref(&item));
    }

    /// Batched per-set removal: decrements each item's `b` bucket counters
    /// and clears the derived bit on every 1 → 0 transition — the exact
    /// mirror of [`CountingBloomCollection::insert_batch`] over the same
    /// deterministic bucket sequence. Saturated counters stay sticky (see
    /// the module docs).
    pub fn remove_batch(&mut self, i: usize, xs: &[u32]) {
        let bits = self.view.bits_of(i);
        let range = self.cw_range(i);
        let window = &mut self.counters.to_mut()[range];
        let view = &mut self.view;
        for &x in xs {
            self.family.for_each_bucket(x as u64, bits, |pos| {
                if dec(window, pos as usize) {
                    view.clear_bit(i, pos as usize);
                }
            });
        }
    }

    /// Membership query against filter `i` — no false negatives for
    /// elements inserted and not removed.
    #[inline]
    pub fn contains(&self, i: usize, item: u32) -> bool {
        self.view.contains(i, item)
    }

    /// Bytes of sketch storage: the packed counters plus the derived view
    /// — both charged against the paper's budget `s`
    /// ([`crate::BudgetPlan::counting_bloom`] deducts the counter width up
    /// front).
    pub fn memory_bytes(&self) -> usize {
        self.view.memory_bytes() + self.counters.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|s| (0..40 + s * 9).map(|i| (i * 31 + s) as u32).collect())
            .collect()
    }

    #[test]
    fn view_matches_plain_bloom_build() {
        let sets = sets(12);
        let cbf = CountingBloomCollection::build(sets.len(), 768, 2, 13, |i| &sets[i][..]);
        let plain = BloomCollection::build(sets.len(), 768, 2, 13, |i| &sets[i][..]);
        for (i, set) in sets.iter().enumerate() {
            assert_eq!(cbf.read_view().words(i), plain.words(i), "set {i}");
            assert_eq!(cbf.read_view().count_ones(i), plain.count_ones(i));
            for &x in set {
                assert!(cbf.contains(i, x));
            }
        }
        // Estimator path is the untouched BloomCollection machinery.
        assert_eq!(cbf.read_view().estimate_and(0, 1), plain.estimate_and(0, 1));
    }

    #[test]
    fn counters_count_bucket_hits() {
        let xs: Vec<u32> = (0..30).collect();
        let cbf = CountingBloomCollection::build(1, 256, 2, 7, |_| &xs[..]);
        // Total counter mass equals the number of (element, hash) pairs
        // (no bucket reached saturation at this load factor).
        let total: u64 = (0..cbf.bits_per_set()).map(|p| cbf.counter(0, p)).sum();
        assert_eq!(total, (xs.len() * cbf.num_hashes()) as u64);
        // Derived invariant: bit set ⇔ counter > 0.
        for pos in 0..cbf.bits_per_set() {
            assert_eq!(
                cbf.counter(0, pos) > 0,
                cbf.read_view().words(0)[pos / 64] >> (pos % 64) & 1 == 1,
                "pos {pos}"
            );
        }
    }

    #[test]
    fn remove_everything_leaves_empty_filter() {
        let xs: Vec<u32> = (0..80).map(|i| i * 7 + 3).collect();
        let mut cbf = CountingBloomCollection::build(1, 512, 3, 5, |_| &xs[..]);
        cbf.remove_batch(0, &xs);
        assert_eq!(cbf.read_view().count_ones(0), 0);
        assert!(cbf.read_view().words(0).iter().all(|&w| w == 0));
        assert!(cbf.counter_words(0).iter().all(|&w| w == 0));
    }

    #[test]
    fn interleaved_insert_remove_matches_survivor_build() {
        let all: Vec<u32> = (0..120).map(|i| i * 13 + 1).collect();
        let mut cbf = CountingBloomCollection::build(1, 1024, 2, 9, |_| &all[..60]);
        // Insert the back half one by one, then remove every third element
        // of the front half, interleaved.
        for (t, &x) in all[60..].iter().enumerate() {
            cbf.insert(0, x);
            if t % 3 == 0 {
                cbf.remove(0, all[t]);
            }
        }
        let live: Vec<u32> = (0..all.len())
            .filter(|&t| !(t < 60 && t % 3 == 0))
            .map(|t| all[t])
            .collect();
        let rebuilt = CountingBloomCollection::build(1, 1024, 2, 9, |_| &live[..]);
        assert_eq!(cbf.read_view().words(0), rebuilt.read_view().words(0));
        assert_eq!(
            cbf.read_view().count_ones(0),
            rebuilt.read_view().count_ones(0)
        );
        assert_eq!(cbf.counter_words(0), rebuilt.counter_words(0));
    }

    #[test]
    fn saturated_counters_are_sticky_and_safe() {
        // 64 buckets, b = 2, 600 distinct elements: every bucket blows
        // far past COUNTER_MAX.
        let xs: Vec<u32> = (0..600).collect();
        let mut cbf = CountingBloomCollection::build(1, 64, 2, 3, |_| &xs[..]);
        assert!(
            (0..64).any(|p| cbf.counter(0, p) == COUNTER_MAX),
            "load factor should saturate at least one counter"
        );
        // Removing everything must neither underflow nor produce a false
        // negative for the (empty) surviving set; sticky buckets keep
        // their bits, non-saturated ones drain to zero.
        cbf.remove_batch(0, &xs);
        for p in 0..64 {
            let c = cbf.counter(0, p);
            assert!(c == 0 || c == COUNTER_MAX, "pos {p}: counter {c}");
            assert_eq!(c > 0, cbf.read_view().words(0)[p / 64] >> (p % 64) & 1 == 1);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never inserted")]
    fn removing_absent_element_is_a_caller_bug() {
        let xs: Vec<u32> = (0..10).collect();
        let mut cbf = CountingBloomCollection::build(1, 4096, 2, 3, |_| &xs[..]);
        // 4096 buckets for 10 elements: element 9999's buckets are almost
        // surely untouched, so the zero-counter debug assertion fires.
        cbf.remove(0, 9999);
    }

    #[test]
    fn parallel_build_deterministic() {
        let sets: Vec<Vec<u32>> = (0..60)
            .map(|s| (0..150).map(|i| (i * 17 + s * 3) as u32).collect())
            .collect();
        let a = pg_parallel::with_threads(1, || {
            CountingBloomCollection::build(60, 512, 2, 9, |i| &sets[i][..])
        });
        let b = pg_parallel::with_threads(8, || {
            CountingBloomCollection::build(60, 512, 2, 9, |i| &sets[i][..])
        });
        for i in 0..60 {
            assert_eq!(a.counter_words(i), b.counter_words(i));
            assert_eq!(a.read_view().words(i), b.read_view().words(i));
        }
    }

    #[test]
    fn one_stratum_build_is_bit_identical_to_uniform() {
        let sets = sets(10);
        let uniform = CountingBloomCollection::build(sets.len(), 512, 2, 21, |i| &sets[i][..]);
        let one = || SetGeometry::stratified(vec![8], vec![0u8; sets.len()]);
        let strat = CountingBloomCollection::build_on(one(), 2, 21, |i| &sets[i][..]);
        assert!(
            strat.geometry().is_uniform(),
            "one stratum lowers to uniform"
        );
        assert_eq!(uniform.raw_counters(), strat.raw_counters());
        for i in 0..sets.len() {
            assert_eq!(uniform.read_view().words(i), strat.read_view().words(i));
        }
        let loaded = CountingBloomCollection::from_counter_words(
            uniform.raw_counters().to_vec(),
            one(),
            2,
            21,
        );
        assert!(loaded.geometry().is_uniform());
        assert_eq!(loaded.raw_counters(), uniform.raw_counters());
    }

    /// Stratified geometry over `words` (view words per stratum).
    fn strata(words: &[usize], assign: &[u8]) -> SetGeometry<'static> {
        SetGeometry::stratified(words.to_vec(), assign.to_vec())
    }

    #[test]
    fn stratified_build_matches_per_stratum_uniform_builds() {
        let sets = sets(9);
        let words = [4, 2, 1];
        let assign: Vec<u8> = (0..9).map(|i| (i % 3) as u8).collect();
        let strat =
            CountingBloomCollection::build_on(strata(&words, &assign), 2, 5, |i| &sets[i][..]);
        // Each set's counters and view bits equal a single-set uniform
        // build at that set's width — same (b, seed) bucket sequence.
        for (i, set) in sets.iter().enumerate() {
            let w = words[assign[i] as usize] * 64;
            assert_eq!(strat.bits_of(i), w);
            let solo = CountingBloomCollection::build(1, w, 2, 5, |_| &set[..]);
            assert_eq!(strat.counter_words(i), solo.counter_words(0), "set {i}");
            assert_eq!(strat.read_view().words(i), solo.read_view().words(0));
            for &x in set {
                assert!(strat.contains(i, x));
            }
        }
        // The view is a real stratified BloomCollection: its fold-based
        // cross-stratum estimators run unchanged on top of the counters.
        let plain = BloomCollection::build_on(strata(&words, &assign), 2, 5, |i| &sets[i][..]);
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(
                    strat.read_view().estimate_and(i, j),
                    plain.estimate_and(i, j),
                    "({i},{j})"
                );
            }
        }
        // Snapshot round-trip re-derives the identical view.
        let loaded = CountingBloomCollection::from_counter_words(
            strat.raw_counters().to_vec(),
            strata(&words, &assign),
            2,
            5,
        );
        assert_eq!(loaded.raw_counters(), strat.raw_counters());
        for i in 0..9 {
            assert_eq!(loaded.read_view().words(i), strat.read_view().words(i));
        }
    }

    #[test]
    fn stratified_insert_remove_matches_survivor_rebuild() {
        let all: Vec<Vec<u32>> = (0..6)
            .map(|s| (0..90).map(|i| (i * 13 + s * 7 + 1) as u32).collect())
            .collect();
        let geom = strata(&[8, 2], &(0..6).map(|i| (i % 2) as u8).collect::<Vec<_>>());
        // Start from the front halves, then stream in the back halves and
        // remove every third front element, mixing batch and scalar ops.
        let mut cbf = CountingBloomCollection::build_on(geom.clone(), 2, 9, |i| &all[i][..45]);
        for (i, set) in all.iter().enumerate() {
            if i % 2 == 0 {
                cbf.insert_batch(i, &set[45..]);
            } else {
                for &x in &set[45..] {
                    cbf.insert(i, x);
                }
            }
            for (t, &x) in set[..45].iter().enumerate() {
                if t % 3 == 0 {
                    cbf.remove(i, x);
                }
            }
        }
        let live: Vec<Vec<u32>> = all
            .iter()
            .map(|set| {
                (0..set.len())
                    .filter(|&t| !(t < 45 && t % 3 == 0))
                    .map(|t| set[t])
                    .collect()
            })
            .collect();
        let rebuilt = CountingBloomCollection::build_on(geom, 2, 9, |i| &live[i][..]);
        for i in 0..6 {
            assert_eq!(cbf.counter_words(i), rebuilt.counter_words(i), "set {i}");
            assert_eq!(cbf.read_view().words(i), rebuilt.read_view().words(i));
            assert_eq!(
                cbf.read_view().count_ones(i),
                rebuilt.read_view().count_ones(i)
            );
        }
    }

    #[test]
    fn stratified_gather_concatenates_parts() {
        let sets = sets(8);
        let build_part = |range: std::ops::Range<usize>| {
            let assign: Vec<u8> = range.clone().map(|i| (i % 2) as u8).collect();
            CountingBloomCollection::build_on(strata(&[4, 1], &assign), 3, 11, |i| {
                &sets[range.start + i][..]
            })
        };
        let a = build_part(0..5);
        let b = build_part(5..8);
        let mut gathered = a.clone();
        gathered.gather_into(&[&a, &b]);
        let assign: Vec<u8> = (0..8).map(|i| (i % 2) as u8).collect();
        let whole =
            CountingBloomCollection::build_on(strata(&[4, 1], &assign), 3, 11, |i| &sets[i][..]);
        assert_eq!(gathered.raw_counters(), whole.raw_counters());
        for i in 0..8 {
            assert_eq!(gathered.counter_words(i), whole.counter_words(i));
            assert_eq!(gathered.read_view().words(i), whole.read_view().words(i));
        }
    }

    #[test]
    fn memory_accounts_counters_and_view() {
        let xs = [1u32, 2, 3];
        let cbf = CountingBloomCollection::build(1, 128, 1, 1, |_| &xs[..]);
        // 128 buckets: 16 view bytes + 128 * 4 / 8 = 64 counter bytes.
        assert_eq!(cbf.memory_bytes(), 16 + 64);
    }
}
