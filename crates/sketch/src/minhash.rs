//! MinHash, k-hash variant (§II-D, §IV-C of the paper).
//!
//! A signature keeps, for each of `k` independent hash functions, the
//! element of the set with the smallest hash under that function. The
//! number of positions where two signatures agree is `|M_X ∩ M_Y|` in the
//! paper's notation and follows `Binomial(k, J(X,Y))`, which makes
//! `Ĵ = matches/k` unbiased and the Eq. (5) intersection estimator an MLE
//! (Table II).
//!
//! A collection may be **stratified**: its [`SetGeometry`] chooses each
//! set's signature width `k` per stratum, signatures stored back to back;
//! the uniform layout is the one-stratum case. Cross-stratum pairs compare
//! their first `min(k)` slots — exact, because [`HashFamily`] seeds are
//! drawn sequentially from one stream, so families of different sizes
//! share their function prefix and the first `min(k)` slots of both
//! signatures are precisely the signatures both sets would have at the
//! narrower width.

use crate::cowvec::cow_clear;
use crate::estimators;
use crate::geometry::SetGeometry;
use pg_hash::HashFamily;
use pg_parallel::{auto_grain, parallel_for_scratch};
use std::borrow::Cow;

/// Sentinel signature entry for "set was empty under this function".
const EMPTY: u32 = u32::MAX;

/// A k-hash MinHash signature of one set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinHashSignature {
    mins: Vec<u32>,
}

impl MinHashSignature {
    /// Builds the signature of `items` under `k` functions seeded from
    /// `seed`. Two signatures are only comparable when built with the same
    /// `k` and `seed`.
    pub fn from_set(items: &[u32], k: usize, seed: u64) -> Self {
        let family = HashFamily::new(k, seed);
        let mut mins = vec![EMPTY; k];
        let mut best = vec![u32::MAX; k];
        let mut hashes = vec![0u32; k];
        for &x in items {
            // All k hashes of x in one batched call (key mixing hoisted).
            family.hashes_into(x as u64, &mut hashes);
            for i in 0..k {
                let h = hashes[i];
                // Tie-break on the element ID so construction order never
                // matters (determinism under parallel construction).
                if h < best[i] || (h == best[i] && x < mins[i]) {
                    best[i] = h;
                    mins[i] = x;
                }
            }
        }
        MinHashSignature { mins }
    }

    /// Number of hash functions `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.mins.len()
    }

    /// The per-function minima (sentinel `u32::MAX` for an empty set).
    #[inline]
    pub fn mins(&self) -> &[u32] {
        &self.mins
    }

    /// `|M_X ∩ M_Y|`: positions where the minima agree.
    pub fn matches(&self, other: &MinHashSignature) -> usize {
        assert_eq!(self.k(), other.k(), "signatures differ in k");
        self.mins
            .iter()
            .zip(&other.mins)
            .filter(|(a, b)| a == b && **a != EMPTY)
            .count()
    }

    /// `Ĵ_kH = |M_X ∩ M_Y| / k`.
    pub fn estimate_jaccard(&self, other: &MinHashSignature) -> f64 {
        estimators::mh_jaccard(self.matches(other), self.k())
    }

    /// `|X∩Y|̂_kH` (Eq. 5); needs the exact set sizes.
    pub fn estimate_intersection(&self, other: &MinHashSignature, nx: usize, ny: usize) -> f64 {
        estimators::jaccard_to_intersection(self.estimate_jaccard(other), nx, ny)
    }
}

/// One family per stratum width: `widths[s]` functions under `seed`.
fn families_for(geom: &SetGeometry<'_>, seed: u64) -> Vec<HashFamily> {
    geom.widths()
        .iter()
        .map(|&k| HashFamily::new(k, seed))
        .collect()
}

/// All k-hash signatures of a ProbGraph representation, flat in one array
/// laid out by a [`SetGeometry`] in slots (`n_sets × k` entries of 4 bytes
/// when uniform — Table I: `W·k` bits per set).
///
/// The signature array is copy-on-write over `'a` (see
/// [`crate::BloomCollectionIn`]): borrowed collections serve a validated
/// snapshot buffer in place; the owned alias [`MinHashCollection`] is the
/// ordinary built/streamed form.
#[derive(Clone, Debug)]
pub struct MinHashCollectionIn<'a> {
    sigs: Cow<'a, [u32]>,
    /// Per-set signature windows, widths in slots.
    geom: SetGeometry<'a>,
    /// One seeded family per stratum, `widths[s]` functions each —
    /// prefixes of one another by seed-stream construction — kept after
    /// construction so streamed elements hash with exactly the width
    /// their set was built at.
    families: Vec<HashFamily>,
}

/// The owned (`'static`) form of [`MinHashCollectionIn`].
pub type MinHashCollection = MinHashCollectionIn<'static>;

impl<'a> MinHashCollectionIn<'a> {
    /// Builds signatures for `n_sets` sets in parallel; `set(i)` returns the
    /// i-th input set.
    pub fn build<'s, F>(n_sets: usize, k: usize, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        assert!(k > 0, "MinHash needs k ≥ 1");
        Self::build_on(SetGeometry::uniform(n_sets, k), seed, set)
    }

    /// Builds one signature per set of `geom` in parallel: set `i` gets
    /// `geom.width_of(i)` slots.
    pub fn build_on<'s, F>(geom: SetGeometry<'a>, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        let families = families_for(&geom, seed);
        let mut sigs = vec![EMPTY; geom.total()];
        {
            struct SendPtr(*mut u32);
            // SAFETY: the one field is a pointer into an array the parallel
            // region below only touches through disjoint per-set windows.
            unsafe impl Send for SendPtr {}
            unsafe impl Sync for SendPtr {}
            let base = SendPtr(sigs.as_mut_ptr());
            let base = &base;
            let (families, geom) = (&families, &geom);
            let n = geom.len();
            // Per-worker `(best, hashes)` slot buffers: they grow to the
            // widest signature once, so the build allocates per worker,
            // not per set.
            parallel_for_scratch(
                n,
                auto_grain(n),
                || (Vec::new(), Vec::new()),
                |(best, hashes): &mut (Vec<u32>, Vec<u32>), s| {
                    let r = geom.range(s);
                    let k = r.len();
                    let family = &families[geom.stratum_of(s)];
                    // SAFETY: the geometry tiles the array, so window `r`
                    // is exclusive to set s.
                    let window = unsafe { std::slice::from_raw_parts_mut(base.0.add(r.start), k) };
                    best.clear();
                    best.resize(k, u32::MAX);
                    hashes.resize(k, 0);
                    for &x in set(s) {
                        family.hashes_into(x as u64, hashes);
                        for i in 0..k {
                            let h = hashes[i];
                            if h < best[i] || (h == best[i] && x < window[i]) {
                                best[i] = h;
                                window[i] = x;
                            }
                        }
                    }
                },
            );
        }
        MinHashCollectionIn {
            sigs: Cow::Owned(sigs),
            geom,
            families,
        }
    }

    /// Reconstructs a collection from an already-materialized flat
    /// signature array laid out by `geom` (the snapshot load path; owned
    /// `Vec<u32>` or borrowed `&'a [u32]`). Signatures must have been
    /// produced under the same seed; slots may carry the `u32::MAX` empty
    /// sentinel.
    pub fn from_raw_sigs(
        sigs: impl Into<Cow<'a, [u32]>>,
        geom: SetGeometry<'a>,
        seed: u64,
    ) -> Self {
        let sigs = sigs.into();
        assert_eq!(
            sigs.len(),
            geom.total(),
            "signature array does not match the geometry"
        );
        MinHashCollectionIn {
            families: families_for(&geom, seed),
            sigs,
            geom,
        }
    }

    /// The whole flat signature array — the byte-stable payload snapshots
    /// persist.
    #[inline]
    pub fn raw_sigs(&self) -> &[u32] {
        &self.sigs
    }

    /// Overwrites `self` with the concatenation of `parts`' signatures, in
    /// order, reusing `self`'s signature allocation — the serving layer's
    /// double-buffer publish path. All parts must share their widths and
    /// a common seed.
    pub fn gather_into(&mut self, parts: &[&MinHashCollectionIn<'_>]) {
        let first = parts.first().expect("gather needs at least one part");
        if self.geom.widths() != first.geom.widths() {
            self.families.clone_from(&first.families);
        }
        self.geom.gather_into(parts.iter().map(|p| &p.geom));
        let sigs = cow_clear(&mut self.sigs);
        for p in parts {
            sigs.extend_from_slice(&p.sigs);
        }
    }

    /// Detaches the collection from any borrowed snapshot buffer, cloning
    /// the signatures if they were served in place. No-op for owned data.
    pub fn into_owned(self) -> MinHashCollection {
        MinHashCollectionIn {
            sigs: Cow::Owned(self.sigs.into_owned()),
            geom: self.geom.into_owned(),
            families: self.families,
        }
    }

    /// Inserts one item into signature `i` in place (per-slot min with the
    /// same `(hash, element)` tie-break as construction, so the result is
    /// bit-identical to rebuilding the signature from the extended set).
    /// Allocation-free: per slot, one scalar hash of `x` and — only when
    /// needed for the comparison — one recomputed hash of the stored min.
    pub fn insert(&mut self, i: usize, x: u32) {
        let r = self.geom.range(i);
        let family = &self.families[self.geom.stratum_of(i)];
        let window = &mut self.sigs.to_mut()[r];
        for (t, slot) in window.iter_mut().enumerate() {
            let h = family.hash32(t, x as u64);
            let e = *slot;
            let best = if e == EMPTY {
                u32::MAX
            } else {
                family.hash32(t, e as u64)
            };
            if h < best || (h == best && x < e) {
                *slot = x;
            }
        }
    }

    /// Batched per-set insert: absorbs all of `xs` into signature `i`.
    ///
    /// The collection stores only the minimizing *elements* (Table I
    /// memory), not their hashes, so the per-slot best hashes are
    /// recovered once per batch — `k` scalar hashes — and then maintained
    /// across the whole run of `xs`; each element costs one batched
    /// `hashes_into` plus `k` compares, exactly the construction loop.
    pub fn insert_batch(&mut self, i: usize, xs: &[u32]) {
        if let [x] = xs {
            // One element: the allocation-free scalar path (hash32 is
            // bit-identical to the batched hashes_into).
            self.insert(i, *x);
            return;
        }
        if xs.is_empty() {
            return;
        }
        let r = self.geom.range(i);
        let k = r.len();
        // `hashes_into` wants a buffer of exactly the family's width, so a
        // set hashes through its own stratum's family.
        let family = &self.families[self.geom.stratum_of(i)];
        let window = &mut self.sigs.to_mut()[r];
        let mut best: Vec<u32> = window
            .iter()
            .enumerate()
            .map(|(t, &e)| {
                if e == EMPTY {
                    // Empty slot: construction's initial `best` sentinel.
                    u32::MAX
                } else {
                    family.hash32(t, e as u64)
                }
            })
            .collect();
        let mut hashes = vec![0u32; k];
        for &x in xs {
            family.hashes_into(x as u64, &mut hashes);
            for t in 0..k {
                let h = hashes[t];
                if h < best[t] || (h == best[t] && x < window[t]) {
                    best[t] = h;
                    window[t] = x;
                }
            }
        }
    }

    /// Number of signatures.
    #[inline]
    pub fn len(&self) -> usize {
        self.geom.len()
    }

    /// True when the collection holds no signatures.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of hash functions `k` — the **widest** stratum's width
    /// when stratified (per-set widths come from
    /// [`MinHashCollectionIn::k_of`]).
    #[inline]
    pub fn k(&self) -> usize {
        self.geom.max_width()
    }

    /// Signature width of set `i`.
    #[inline]
    pub fn k_of(&self, i: usize) -> usize {
        self.geom.width_of(i)
    }

    /// Stratum index of set `i` (0 for uniform collections).
    #[inline]
    pub fn stratum_of(&self, i: usize) -> usize {
        self.geom.stratum_of(i)
    }

    /// The per-set window layout, widths in slots.
    #[inline]
    pub fn geometry(&self) -> &SetGeometry<'a> {
        &self.geom
    }

    /// Signature window of set `i`.
    #[inline]
    pub fn signature(&self, i: usize) -> &[u32] {
        &self.sigs[self.geom.range(i)]
    }

    /// `|M_X ∩ M_Y|` between sets `i` and `j` — the `O(k)` kernel of
    /// Table IV.
    #[inline]
    pub fn matches(&self, i: usize, j: usize) -> usize {
        self.matches_with_row(self.signature(i), j)
    }

    /// `|M_X ∩ M_Y|` of a pinned signature `row` (usually
    /// [`MinHashCollection::signature`] of a source vertex, hoisted once
    /// per row sweep) against set `j` — identical to
    /// [`MinHashCollection::matches`] when `row` is signature `i`.
    #[inline]
    pub fn matches_with_row(&self, row: &[u32], j: usize) -> usize {
        // Cross-width pairs compare their shared slot prefix: by the hash
        // family's prefix property the first `min(k)` slots of each
        // signature are the signature the set would have at the narrower
        // width, so the truncated compare is the narrow-width estimate
        // exactly. Equal-length reslices keep the loop bounds-check-free
        // and auto-vectorizing (`vpcmpeqd` over full vector width).
        let b = self.signature(j);
        let m = row.len().min(b.len());
        let a = &row[..m];
        let b = &b[..m];
        let mut c = 0usize;
        for t in 0..m {
            c += usize::from(a[t] == b[t] && a[t] != EMPTY);
        }
        c
    }

    /// Two-lane `|M_X ∩ M_Y|`: the pinned signature `row` against two
    /// destination signatures in one sweep. On AVX-512 targets both
    /// destinations are compared against each 16-slot source vector load
    /// (`vpcmpeqd` → mask popcount), amortizing the source stream over
    /// two lanes; elsewhere it is two vectorized scalar passes. Either
    /// way each lane equals [`MinHashCollection::matches_with_row`].
    #[inline]
    pub fn matches_with_row_x2(&self, row: &[u32], j0: usize, j1: usize) -> (usize, usize) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        {
            let b0 = self.signature(j0);
            let b1 = self.signature(j1);
            if b0.len() != b1.len() {
                // Lanes from different strata: no shared vector shape —
                // two scalar prefix compares instead.
                return (
                    self.matches_with_row(row, j0),
                    self.matches_with_row(row, j1),
                );
            }
            let m = row.len().min(b0.len());
            let a = &row[..m];
            let b0 = &b0[..m];
            let b1 = &b1[..m];
            // SAFETY: avx512f is a compile-time target feature here; all
            // loads are explicit-unaligned or masked, and offsets stay
            // inside the three equal-length slices above.
            unsafe {
                use std::arch::x86_64::*;
                let empty = _mm512_set1_epi32(EMPTY as i32);
                let (mut c0, mut c1) = (0usize, 0usize);
                let mut t = 0;
                while t + 16 <= m {
                    let x = _mm512_loadu_si512(a.as_ptr().add(t) as *const _);
                    let ne = _mm512_cmpneq_epi32_mask(x, empty);
                    let y0 = _mm512_loadu_si512(b0.as_ptr().add(t) as *const _);
                    let y1 = _mm512_loadu_si512(b1.as_ptr().add(t) as *const _);
                    c0 += ((_mm512_cmpeq_epi32_mask(x, y0) & ne) as u32).count_ones() as usize;
                    c1 += ((_mm512_cmpeq_epi32_mask(x, y1) & ne) as u32).count_ones() as usize;
                    t += 16;
                }
                if t < m {
                    // Masked tail: zeroed slots compare equal (0 == 0), so
                    // the not-EMPTY mask is ANDed with the load mask to
                    // discard them.
                    let mask: __mmask16 = (1u16 << (m - t)) - 1;
                    let x = _mm512_maskz_loadu_epi32(mask, a.as_ptr().add(t) as *const _);
                    let ne = _mm512_cmpneq_epi32_mask(x, empty) & mask;
                    let y0 = _mm512_maskz_loadu_epi32(mask, b0.as_ptr().add(t) as *const _);
                    let y1 = _mm512_maskz_loadu_epi32(mask, b1.as_ptr().add(t) as *const _);
                    c0 += ((_mm512_cmpeq_epi32_mask(x, y0) & ne) as u32).count_ones() as usize;
                    c1 += ((_mm512_cmpeq_epi32_mask(x, y1) & ne) as u32).count_ones() as usize;
                }
                (c0, c1)
            }
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
        {
            (
                self.matches_with_row(row, j0),
                self.matches_with_row(row, j1),
            )
        }
    }

    /// `Ĵ_kH` between sets `i` and `j`. Cross-stratum pairs are compared
    /// at the narrower width, so the divisor is `min(k_i, k_j)`.
    #[inline]
    pub fn estimate_jaccard(&self, i: usize, j: usize) -> f64 {
        estimators::mh_jaccard(self.matches(i, j), self.k_of(i).min(self.k_of(j)))
    }

    /// `|X∩Y|̂_kH` (Eq. 5) between sets `i` and `j` with exact sizes.
    #[inline]
    pub fn estimate_intersection(&self, i: usize, j: usize, nx: usize, ny: usize) -> f64 {
        estimators::jaccard_to_intersection(self.estimate_jaccard(i, j), nx, ny)
    }

    /// Bytes of sketch storage.
    pub fn memory_bytes(&self) -> usize {
        self.sigs.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_match_everywhere() {
        let x: Vec<u32> = (0..100).collect();
        let a = MinHashSignature::from_set(&x, 64, 3);
        let b = MinHashSignature::from_set(&x, 64, 3);
        assert_eq!(a.matches(&b), 64);
        assert_eq!(a.estimate_jaccard(&b), 1.0);
    }

    #[test]
    fn disjoint_sets_rarely_match() {
        let x: Vec<u32> = (0..100).collect();
        let y: Vec<u32> = (1000..1100).collect();
        let a = MinHashSignature::from_set(&x, 128, 3);
        let b = MinHashSignature::from_set(&y, 128, 3);
        assert_eq!(a.matches(&b), 0);
    }

    #[test]
    fn jaccard_estimate_is_close_for_large_k() {
        // |X∩Y| = 50, |X∪Y| = 150 -> J = 1/3.
        let x: Vec<u32> = (0..100).collect();
        let y: Vec<u32> = (50..150).collect();
        let a = MinHashSignature::from_set(&x, 512, 7);
        let b = MinHashSignature::from_set(&y, 512, 7);
        let j = a.estimate_jaccard(&b);
        assert!((j - 1.0 / 3.0).abs() < 0.08, "J={j}");
        let inter = a.estimate_intersection(&b, 100, 100);
        assert!((inter - 50.0).abs() < 15.0, "inter={inter}");
    }

    #[test]
    fn empty_sets_give_zero() {
        let e = MinHashSignature::from_set(&[], 16, 1);
        let x = MinHashSignature::from_set(&[1, 2, 3], 16, 1);
        assert_eq!(e.matches(&x), 0);
        assert_eq!(e.matches(&e), 0, "two empties must not fake J=1");
        assert_eq!(e.estimate_intersection(&x, 0, 3), 0.0);
    }

    #[test]
    fn signature_independent_of_input_order() {
        let fwd: Vec<u32> = (0..200).collect();
        let rev: Vec<u32> = (0..200).rev().collect();
        assert_eq!(
            MinHashSignature::from_set(&fwd, 32, 5),
            MinHashSignature::from_set(&rev, 32, 5)
        );
    }

    #[test]
    fn collection_matches_standalone() {
        let sets: Vec<Vec<u32>> = (0..30)
            .map(|s| (0..40 + s).map(|i| (i * 7 + s) as u32).collect())
            .collect();
        let col = MinHashCollection::build(sets.len(), 24, 11, |i| &sets[i][..]);
        for (i, set) in sets.iter().enumerate() {
            let sig = MinHashSignature::from_set(set, 24, 11);
            assert_eq!(col.signature(i), sig.mins(), "set {i}");
        }
        let s0 = MinHashSignature::from_set(&sets[0], 24, 11);
        let s1 = MinHashSignature::from_set(&sets[1], 24, 11);
        assert_eq!(col.matches(0, 1), s0.matches(&s1));
    }

    #[test]
    fn row_matching_paths_agree_with_pairwise() {
        // k sweeps the 16-slot AVX tail boundary (and k < 16 entirely).
        for k in [1usize, 7, 15, 16, 17, 24, 31, 32, 40] {
            let sets: Vec<Vec<u32>> = (0..12)
                .map(|s| (0..s * 13).map(|i| (i * 7 + s) as u32).collect())
                .collect();
            let col = MinHashCollection::build(sets.len(), k, 11, |i| &sets[i][..]);
            for i in 0..sets.len() {
                let row = col.signature(i);
                for j in 0..sets.len() - 1 {
                    assert_eq!(col.matches_with_row(row, j), col.matches(i, j), "k={k}");
                    let (m0, m1) = col.matches_with_row_x2(row, j, j + 1);
                    assert_eq!(m0, col.matches(i, j), "k={k} i={i} j={j}");
                    assert_eq!(m1, col.matches(i, j + 1), "k={k} i={i} j={j}");
                }
            }
        }
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        // Signatures after streaming a suffix must be bit-identical to a
        // from-scratch build over the extended sets, including empty
        // prefixes (EMPTY-slot handling) and the k unroll tails.
        for k in [1usize, 7, 16, 24] {
            let full: Vec<Vec<u32>> = (0..8)
                .map(|s| (0..30 + s * 13).map(|i| (i * 11 + s) as u32).collect())
                .collect();
            let want = MinHashCollection::build(full.len(), k, 19, |i| &full[i][..]);
            let mut got =
                MinHashCollection::build(full.len(), k, 19, |i| &full[i][..full[i].len() / 4]);
            for (i, set) in full.iter().enumerate() {
                got.insert_batch(i, &set[set.len() / 4..]);
                assert_eq!(got.signature(i), want.signature(i), "k={k} set {i}");
            }
        }
        // Single-element path agrees too.
        let mut one = MinHashCollection::build(1, 8, 3, |_| &[][..]);
        for x in [42u32, 7, 99] {
            one.insert(0, x);
        }
        let rebuilt = MinHashCollection::build(1, 8, 3, |_| &[42u32, 7, 99][..]);
        assert_eq!(one.signature(0), rebuilt.signature(0));
    }

    #[test]
    fn one_stratum_build_is_bit_identical_to_uniform() {
        let sets: Vec<Vec<u32>> = (0..10)
            .map(|s| (0..20 + s * 9).map(|i| (i * 7 + s) as u32).collect())
            .collect();
        let uniform = MinHashCollection::build(sets.len(), 24, 11, |i| &sets[i][..]);
        let one = SetGeometry::stratified(vec![24], vec![0u8; sets.len()]);
        let strat = MinHashCollection::build_on(one, 11, |i| &sets[i][..]);
        assert!(
            strat.geometry().is_uniform(),
            "one stratum must lower to uniform"
        );
        assert_eq!(strat.raw_sigs(), uniform.raw_sigs());
        assert_eq!(strat.k(), uniform.k());
    }

    /// Stratified geometry with signature widths `ks`.
    fn strata(ks: &[usize], assign: &[u8]) -> SetGeometry<'static> {
        SetGeometry::stratified(ks.to_vec(), assign.to_vec())
    }

    #[test]
    fn cross_stratum_pairs_match_both_built_at_the_narrow_width() {
        // Prefix property in action: a (k=32, k=8) pair must give exactly
        // the matches/Jaccard of both sets sketched at k=8.
        let sets: Vec<Vec<u32>> = (0..9)
            .map(|s| (0..50 + s * 17).map(|i| (i * 5 + s) as u32).collect())
            .collect();
        let ks = [32, 16, 8];
        let assign: Vec<u8> = (0..sets.len()).map(|i| (i % 3) as u8).collect();
        let strat = MinHashCollection::build_on(strata(&ks, &assign), 7, |i| &sets[i][..]);
        assert_eq!(strat.len(), sets.len());
        for i in 0..sets.len() {
            assert_eq!(strat.k_of(i), ks[assign[i] as usize]);
            assert_eq!(strat.signature(i).len(), strat.k_of(i));
        }
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                let kmin = strat.k_of(i).min(strat.k_of(j));
                let narrow = MinHashCollection::build(sets.len(), kmin, 7, |s| &sets[s][..]);
                assert_eq!(strat.matches(i, j), narrow.matches(i, j), "i={i} j={j}");
                assert_eq!(
                    strat.estimate_jaccard(i, j),
                    narrow.estimate_jaccard(i, j),
                    "i={i} j={j}"
                );
                let row = strat.signature(i);
                let (m0, m1) = strat.matches_with_row_x2(row, j, (j + 1) % sets.len());
                assert_eq!(m0, strat.matches(i, j), "x2 lane 0 i={i} j={j}");
                assert_eq!(m1, strat.matches(i, (j + 1) % sets.len()), "x2 lane 1");
            }
        }
    }

    #[test]
    fn stratified_insert_matches_stratified_rebuild() {
        let full: Vec<Vec<u32>> = (0..9)
            .map(|s| (0..40 + s * 13).map(|i| (i * 11 + s) as u32).collect())
            .collect();
        let assign: Vec<u8> = (0..full.len()).map(|i| (i % 2) as u8).collect();
        let geom = strata(&[32, 8], &assign);
        let want = MinHashCollection::build_on(geom.clone(), 19, |i| &full[i][..]);
        let mut got = MinHashCollection::build_on(geom, 19, |i| &full[i][..full[i].len() / 4]);
        for (i, set) in full.iter().enumerate() {
            if i % 2 == 0 {
                got.insert_batch(i, &set[set.len() / 4..]);
            } else {
                for &x in &set[set.len() / 4..] {
                    got.insert(i, x);
                }
            }
            assert_eq!(got.signature(i), want.signature(i), "set {i}");
        }
        assert_eq!(got.raw_sigs(), want.raw_sigs());
    }

    #[test]
    fn stratified_gather_concatenates_parts() {
        let sets: Vec<Vec<u32>> = (0..8)
            .map(|s| (0..30 + s * 7).map(|i| (i * 3 + s) as u32).collect())
            .collect();
        let ks = [16, 4];
        let assign: Vec<u8> = (0..8).map(|i| (i % 2) as u8).collect();
        let whole = MinHashCollection::build_on(strata(&ks, &assign), 5, |i| &sets[i][..]);
        let left = MinHashCollection::build_on(strata(&ks, &assign[..4]), 5, |i| &sets[i][..]);
        let right = MinHashCollection::build_on(strata(&ks, &assign[4..]), 5, |i| &sets[i + 4][..]);
        let mut gathered = left.clone();
        gathered.gather_into(&[&left, &right]);
        assert_eq!(gathered.raw_sigs(), whole.raw_sigs());
        assert_eq!(gathered.geometry(), whole.geometry());
        for i in 0..8 {
            assert_eq!(gathered.signature(i), whole.signature(i));
        }
    }

    #[test]
    fn parallel_build_deterministic() {
        let sets: Vec<Vec<u32>> = (0..200)
            .map(|s| (0..60).map(|i| (i * 13 + s) as u32).collect())
            .collect();
        let a =
            pg_parallel::with_threads(1, || MinHashCollection::build(200, 16, 3, |i| &sets[i][..]));
        let b =
            pg_parallel::with_threads(8, || MinHashCollection::build(200, 16, 3, |i| &sets[i][..]));
        assert_eq!(a.sigs, b.sigs);
    }

    #[test]
    fn memory_accounting() {
        let sets = [vec![1u32]];
        let col = MinHashCollection::build(1, 8, 1, |i| &sets[i][..]);
        assert_eq!(col.memory_bytes(), 32);
    }
}
