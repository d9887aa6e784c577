//! HyperLogLog — the "beyond BF and MH" extension (§X of the paper).
//!
//! §X notes that *"ProbGraph embraces such data structures: while we focus
//! on BF and MH, one could easily extend ProbGraph with other structures"*
//! and names HyperLogLog explicitly. This module provides that extension:
//! a standard HLL with the Flajolet et al. bias correction and
//! linear-counting small-range correction, plus lossless merging, so
//! `|X∩Y|` can be estimated by inclusion–exclusion exactly like KMV.
//!
//! A collection may be **stratified**: its [`SetGeometry`] gives each set
//! a window of `2^p` registers, `p` chosen per stratum (the uniform layout
//! is the one-stratum case). Cross-precision pairs fold the wider
//! window down with [`fold_hll_registers_into`] — an *exact* downgrade
//! (the folded registers equal the sketch built at the narrower precision
//! directly) — then run the usual fused union pass at the narrow width.

use crate::cowvec::cow_clear;
use crate::geometry::SetGeometry;
use pg_hash::HashFamily;
use pg_parallel::parallel_for;
use std::borrow::Cow;

/// `2^-r` for `r ≤ 64`, built directly in the exponent field: `2^-r` has
/// exponent `1023 − r` and zero mantissa (`r ≤ 64` keeps the value
/// normal), so the bit pattern is exact and costs two integer ops — no
/// table load competing with the register streams for the load ports,
/// which is what bounds the fused union passes.
#[inline]
fn pow_neg2(r: u8) -> f64 {
    debug_assert!(r <= 64);
    f64::from_bits((1023 - r as u64) << 52)
}

/// Flajolet et al. bias-correction constant `α_m`.
fn alpha(m: usize) -> f64 {
    match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// The standard HLL estimate from the register summary statistics: `m`
/// registers with harmonic sum `sum = Σ 2^-r` of which `zeros` are zero,
/// with the linear-counting small-range correction.
///
/// Range-correction boundaries (audited; pinned by the
/// `range_correction_*` tests below):
///
/// * **Small range** (`raw ≤ 2.5m`, `zeros > 0`): linear counting
///   `m·ln(m/zeros)` — the better estimator while registers are sparse.
///   `zeros == m` (an empty sketch) gives exactly `0`.
/// * **`zeros == 0` with `raw ≤ 2.5m`**: linear counting is undefined
///   (`ln(m/0)`), so the raw estimate is returned. This happens with
///   small probability right at the crossover; raw is biased high there
///   but finite, which beats `inf`.
/// * **Large range / u32-universe top end**: the classic 32-bit HLL
///   correction `−2³²·ln(1 − E/2³²)` compensates for *hash collisions*
///   in a 32-bit hash space. This implementation hashes through 64-bit
///   Murmur finalizers ([`split_hash`] consumes all 64 bits), so the
///   collision term is negligible even at the full `u32` item universe
///   (`n ≤ 2³² ≪ 2⁶⁴`) and no large-range branch is needed — standard
///   practice for 64-bit HLL. The raw estimate stays finite up to
///   all-registers-saturated (`sum ≥ m·2^{-(64-p+1)}` by construction).
fn estimate_from_stats(m: usize, sum: f64, zeros: usize) -> f64 {
    let mf = m as f64;
    let raw = alpha(m) * mf * mf / sum;
    if raw <= 2.5 * mf && zeros > 0 {
        return mf * (mf / zeros as f64).ln();
    }
    raw
}

/// Harmonic sum `Σ 2^-r` and zero count of a register window — the inputs
/// [`estimate_from_stats`] needs.
#[inline]
fn register_stats(registers: &[u8]) -> (f64, usize) {
    let mut sum = 0.0f64;
    let mut zeros = 0usize;
    for &r in registers {
        sum += pow_neg2(r);
        zeros += usize::from(r == 0);
    }
    (sum, zeros)
}

/// Folds `h` into a `(register index, rank)` pair at precision `p`.
#[inline]
fn split_hash(h: u64, p: u32) -> (usize, u8) {
    let idx = (h >> (64 - p)) as usize;
    let rest = h << p;
    // Rank: position of the leftmost 1 in the remaining bits, 1-based;
    // all-zero rest gets the maximum rank.
    let rank = (rest.leading_zeros() + 1).min(64 - p + 1) as u8;
    (idx, rank)
}

/// Folds a `2^p_from`-register HLL window down to precision
/// `p_to ≤ p_from`, appending the `2^p_to` narrow registers to `out`.
///
/// **Exact**: the result is bit-identical to the sketch built at `p_to`
/// directly. Writing `q = p_from − p_to`, a hash with wide index
/// `idx = (j << q) | low` has narrow index `j`, and its narrow rank is
/// determined by where its *index bits* reenter the rank field:
///
/// * `low ≠ 0`: the leading 1 of `low` becomes the leading 1 of the
///   shifted hash, so the narrow rank is `q − ilog2(low)` — the same for
///   every element of that wide register (its stored rank is irrelevant
///   beyond being nonzero, i.e. occupied).
/// * `low == 0`: the `q` index bits prepend zeros, so each element's
///   narrow rank is its wide rank plus `q`; the max commutes, giving
///   `q + r`. (The rank caps agree: `64−p+1+q = 64−p_to+1`.)
///
/// Register-wise max over the group then reproduces the narrow build,
/// since max over the union of element sets is the max of group maxima.
pub fn fold_hll_registers_into(wide: &[u8], p_from: u32, p_to: u32, out: &mut Vec<u8>) {
    debug_assert!(p_to <= p_from, "can only fold downward");
    debug_assert_eq!(wide.len(), 1usize << p_from);
    let q = p_from - p_to;
    if q == 0 {
        out.extend_from_slice(wide);
        return;
    }
    out.extend(wide.chunks_exact(1 << q).map(|group| fold_group(group, q)));
}

/// One narrow register of [`fold_hll_registers_into`]: the fold of its
/// `2^q` wide registers `group`.
#[inline]
fn fold_group(group: &[u8], q: u32) -> u8 {
    let mut best = 0u8;
    for (low, &r) in group.iter().enumerate() {
        if r == 0 {
            continue;
        }
        let contrib = if low == 0 {
            q as u8 + r
        } else {
            (q - low.ilog2()) as u8
        };
        best = best.max(contrib);
    }
    best
}

/// A HyperLogLog cardinality sketch with `2^precision` registers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HyperLogLog {
    registers: Vec<u8>,
    precision: u8,
    seed: u64,
}

impl HyperLogLog {
    /// Creates an empty sketch. `precision` must lie in `4..=16`
    /// (16 registers … 64 Ki registers; standard HLL range).
    pub fn new(precision: u8, seed: u64) -> Self {
        assert!(
            (4..=16).contains(&precision),
            "precision {precision} outside 4..=16"
        );
        HyperLogLog {
            registers: vec![0u8; 1 << precision],
            precision,
            seed,
        }
    }

    /// Builds a sketch directly from a set of items (the hash family is
    /// constructed once, not per item).
    pub fn from_set(items: &[u32], precision: u8, seed: u64) -> Self {
        let mut h = Self::new(precision, seed);
        let family = HashFamily::new(1, seed);
        for &x in items {
            h.insert_hash(family.hash64(0, x as u64));
        }
        h
    }

    /// Number of registers `m = 2^precision`.
    #[inline]
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// Inserts one item.
    pub fn insert(&mut self, item: u32) {
        let family = HashFamily::new(1, self.seed);
        let h = family.hash64(0, item as u64);
        self.insert_hash(h);
    }

    #[inline]
    fn insert_hash(&mut self, h: u64) {
        let (idx, rank) = split_hash(h, self.precision as u32);
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated cardinality with small-range (linear counting) correction.
    pub fn estimate(&self) -> f64 {
        let (sum, zeros) = register_stats(&self.registers);
        estimate_from_stats(self.num_registers(), sum, zeros)
    }

    /// Lossless merge: register-wise maximum. Panics on mismatched
    /// precision or seed (sketches would not be comparable).
    pub fn merge(&self, other: &HyperLogLog) -> HyperLogLog {
        assert_eq!(self.precision, other.precision, "precision mismatch");
        assert_eq!(self.seed, other.seed, "seed mismatch");
        HyperLogLog {
            registers: self
                .registers
                .iter()
                .zip(&other.registers)
                .map(|(&a, &b)| a.max(b))
                .collect(),
            precision: self.precision,
            seed: self.seed,
        }
    }

    /// `|X∩Y|̂` by inclusion–exclusion: `|X|̂ + |Y|̂ − |X∪Y|̂`, clamped at 0.
    pub fn estimate_intersection(&self, other: &HyperLogLog) -> f64 {
        (self.estimate() + other.estimate() - self.merge(other).estimate()).max(0.0)
    }

    /// Bytes of sketch storage.
    pub fn memory_bytes(&self) -> usize {
        self.registers.len()
    }
}

/// All per-set HLL sketches of a ProbGraph representation, stored in one
/// flat register array (`n_sets × 2^precision` bytes) — same fixed-size
/// load-balancing layout as [`crate::BloomCollection`].
///
/// `|X∩Y|̂` follows by inclusion–exclusion against the exact set sizes
/// (`nx + ny − |X∪Y|̂`, the Eq. 41 shape), where `|X∪Y|̂` comes from a
/// single fused register-wise `max` + harmonic-sum pass — no merged sketch
/// is ever materialized.
/// The register array is copy-on-write over `'a` (see
/// [`crate::BloomCollectionIn`]): borrowed collections serve a validated
/// snapshot buffer in place; the owned alias [`HyperLogLogCollection`] is
/// the ordinary built/streamed form.
#[derive(Clone, Debug)]
pub struct HyperLogLogCollectionIn<'a> {
    registers: Cow<'a, [u8]>,
    /// Per-set register windows, `2^p` registers for precision `p`.
    geom: SetGeometry<'a>,
    seed: u64,
    /// The seeded hash function — kept after construction so streamed
    /// elements can be absorbed in place (register max updates).
    family: HashFamily,
}

/// The owned (`'static`) form of [`HyperLogLogCollectionIn`].
pub type HyperLogLogCollection = HyperLogLogCollectionIn<'static>;

/// The HLL width rule: every window holds `2^p` registers with the
/// precision `p` in the standard `4..=16` range.
fn check_widths(geom: &SetGeometry<'_>) {
    for &m in geom.widths() {
        assert!(
            m.is_power_of_two() && (4..=16).contains(&m.trailing_zeros()),
            "precision outside 4..=16 ({m} registers per set)"
        );
    }
}

impl<'a> HyperLogLogCollectionIn<'a> {
    /// Builds sketches for `n_sets` sets in parallel. `precision` must lie
    /// in `4..=16`; `set(i)` returns the i-th input set.
    pub fn build<'s, F>(n_sets: usize, precision: u8, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        assert!(
            (4..=16).contains(&precision),
            "precision {precision} outside 4..=16"
        );
        Self::build_on(SetGeometry::uniform(n_sets, 1 << precision), seed, set)
    }

    /// Builds one sketch per set of `geom` (widths in registers) in
    /// parallel: set `i` gets `geom.width_of(i)` registers.
    pub fn build_on<'s, F>(geom: SetGeometry<'a>, seed: u64, set: F) -> Self
    where
        F: Fn(usize) -> &'s [u32] + Sync,
    {
        check_widths(&geom);
        let mut registers = vec![0u8; geom.total()];
        let family = HashFamily::new(1, seed);
        {
            struct SendPtr(*mut u8);
            // SAFETY: the one field is a pointer into an array the parallel
            // region below only touches through disjoint per-set windows.
            unsafe impl Send for SendPtr {}
            unsafe impl Sync for SendPtr {}
            let base = SendPtr(registers.as_mut_ptr());
            let base = &base;
            let (family, geom) = (&family, &geom);
            parallel_for(geom.len(), move |s| {
                let r = geom.range(s);
                let p = r.len().trailing_zeros();
                // SAFETY: the geometry tiles the array, so window `r` is
                // exclusive to set s.
                let window =
                    unsafe { std::slice::from_raw_parts_mut(base.0.add(r.start), r.len()) };
                for &x in set(s) {
                    let (idx, rank) = split_hash(family.hash64(0, x as u64), p);
                    if rank > window[idx] {
                        window[idx] = rank;
                    }
                }
            });
        }
        HyperLogLogCollectionIn {
            registers: Cow::Owned(registers),
            geom,
            seed,
            family,
        }
    }

    /// Reconstructs a collection from an already-materialized flat
    /// register array laid out by `geom` (the snapshot load path; owned
    /// `Vec<u8>` or borrowed `&'a [u8]`). Every rank must lie in
    /// `0..=(64 - p + 1)` for its set's precision `p`; the snapshot loader
    /// validates this before calling.
    pub fn from_raw_registers(
        registers: impl Into<Cow<'a, [u8]>>,
        geom: SetGeometry<'a>,
        seed: u64,
    ) -> Self {
        let registers = registers.into();
        check_widths(&geom);
        assert_eq!(
            registers.len(),
            geom.total(),
            "register array does not match the geometry"
        );
        HyperLogLogCollectionIn {
            registers,
            geom,
            seed,
            family: HashFamily::new(1, seed),
        }
    }

    /// The whole flat register array — the byte-stable payload snapshots
    /// persist.
    #[inline]
    pub fn raw_registers(&self) -> &[u8] {
        &self.registers
    }

    /// Overwrites `self` with the concatenation of `parts`' register
    /// arrays, in order, reusing `self`'s register allocation — the
    /// serving layer's double-buffer publish path. All parts must share
    /// their precisions and seed.
    pub fn gather_into(&mut self, parts: &[&HyperLogLogCollectionIn<'_>]) {
        self.geom.gather_into(parts.iter().map(|p| &p.geom));
        let registers = cow_clear(&mut self.registers);
        for p in parts {
            assert_eq!(p.seed, self.seed, "gather: mismatched seeds");
            registers.extend_from_slice(&p.registers);
        }
    }

    /// Detaches the collection from any borrowed snapshot buffer, cloning
    /// the registers if they were served in place. No-op for owned data.
    pub fn into_owned(self) -> HyperLogLogCollection {
        HyperLogLogCollectionIn {
            registers: Cow::Owned(self.registers.into_owned()),
            geom: self.geom.into_owned(),
            seed: self.seed,
            family: self.family,
        }
    }

    /// Inserts one item into sketch `i` in place. HLL registers are
    /// monotone maxima, so insertion is naturally incremental and the
    /// result is bit-identical to rebuilding over the extended set.
    #[inline]
    pub fn insert(&mut self, i: usize, x: u32) {
        self.insert_batch(i, std::slice::from_ref(&x));
    }

    /// Batched per-set insert: absorbs all of `xs` into sketch `i` with
    /// the register window hoisted out of the element loop.
    pub fn insert_batch(&mut self, i: usize, xs: &[u32]) {
        let r = self.geom.range(i);
        let p = r.len().trailing_zeros();
        let window = &mut self.registers.to_mut()[r];
        for &x in xs {
            let (idx, rank) = split_hash(self.family.hash64(0, x as u64), p);
            if rank > window[idx] {
                window[idx] = rank;
            }
        }
    }

    /// Number of sketches.
    #[inline]
    pub fn len(&self) -> usize {
        self.geom.len()
    }

    /// True when the collection holds no sketches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.geom.is_empty()
    }

    /// Configured precision (`m = 2^precision` registers per set) — the
    /// **widest** stratum's precision when stratified (per-set precisions
    /// come from [`HyperLogLogCollectionIn::precision_of`]).
    #[inline]
    pub fn precision(&self) -> u8 {
        self.geom.max_width().trailing_zeros() as u8
    }

    /// Precision of set `i`.
    #[inline]
    pub fn precision_of(&self, i: usize) -> u8 {
        self.geom.width_of(i).trailing_zeros() as u8
    }

    /// Stratum index of set `i` (0 for uniform collections).
    #[inline]
    pub fn stratum_of(&self, i: usize) -> usize {
        self.geom.stratum_of(i)
    }

    /// The per-set window layout, widths in registers.
    #[inline]
    pub fn geometry(&self) -> &SetGeometry<'a> {
        &self.geom
    }

    /// The register window of set `i`.
    #[inline]
    pub fn registers(&self, i: usize) -> &[u8] {
        &self.registers[self.geom.range(i)]
    }

    /// `|X|̂` of set `i` (HLL's own estimate; callers usually have the
    /// exact sizes and only need this for diagnostics).
    pub fn estimate_size(&self, i: usize) -> f64 {
        let w = self.registers(i);
        let m = w.len();
        let (sum, zeros) = register_stats(w);
        estimate_from_stats(m, sum, zeros)
    }

    /// `|X∪Y|̂` of sets `i` and `j`: one fused register-wise-max pass over
    /// the two windows accumulating the harmonic sum and zero count of the
    /// (never materialized) merged sketch. Cross-precision pairs fold the
    /// wider window down as the pass goes ([`fold_hll_registers_into`] —
    /// exact), so the estimate equals both sketches built at the narrower
    /// precision.
    #[inline]
    pub fn estimate_union(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (self.registers(i), self.registers(j));
        if a.len() > b.len() {
            // Register-wise max commutes: pin the narrower window.
            return self.union_estimate_with_row(b, i);
        }
        self.union_estimate_with_row(a, j)
    }

    /// `|X∪Y|̂` with the source register window already pinned — the
    /// scalar row-sweep path (hoist `registers(i)` once per row instead of
    /// re-slicing per pair). Identical to
    /// [`HyperLogLogCollection::estimate_union`] when `row` is window `i`.
    pub fn union_estimate_with_row(&self, row: &[u8], j: usize) -> f64 {
        let b = self.registers(j);
        if b.len() > row.len() {
            // Destination is in a wider stratum: fold each group of its
            // registers down to the row's precision as the pass reaches
            // it (exact, and no buffer), fusing at the narrow width.
            let q = (b.len() / row.len()).trailing_zeros();
            let (mut sum, mut zeros) = (0.0f64, 0usize);
            for (&a, group) in row.iter().zip(b.chunks_exact(1 << q)) {
                let r = a.max(fold_group(group, q));
                sum += pow_neg2(r);
                zeros += usize::from(r == 0);
            }
            return estimate_from_stats(row.len(), sum, zeros);
        }
        debug_assert_eq!(b.len(), row.len(), "row wider than destination");
        Self::union_rows(row, b)
    }

    /// The fused max + harmonic-sum pass over two equal-width windows.
    #[inline]
    fn union_rows(a: &[u8], b: &[u8]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let b = &b[..a.len()];
        let mut sum = 0.0f64;
        let mut zeros = 0usize;
        for t in 0..a.len() {
            let r = a[t].max(b[t]);
            sum += pow_neg2(r);
            zeros += usize::from(r == 0);
        }
        estimate_from_stats(a.len(), sum, zeros)
    }

    /// Multi-lane `|X∪Y|̂`: one pass over the pinned source window `row`
    /// merges it against `L` destination windows with independent
    /// harmonic-sum/zero-count accumulators —
    /// `out[l] == union_estimate_with_row(row, js[l])` bit-for-bit, since
    /// each lane accumulates in the same register order as the scalar
    /// pass. The win is instruction-level parallelism: the serial `f64`
    /// add chain of one harmonic sum is latency-bound, and `L`
    /// independent chains pipeline in parallel.
    pub fn union_estimates_multi<const L: usize>(&self, row: &[u8], js: [usize; L]) -> [f64; L] {
        // Lanes must share the row's width — stratified sweeps group
        // destinations by stratum before fusing.
        let bs: [&[u8]; L] = js.map(|j| {
            let b = self.registers(j);
            debug_assert_eq!(b.len(), row.len(), "multi-lane needs same-width lanes");
            &b[..row.len()]
        });
        let mut sum = [0.0f64; L];
        let mut zeros = [0usize; L];
        for (t, &x) in row.iter().enumerate() {
            for l in 0..L {
                let r = x.max(bs[l][t]);
                sum[l] += pow_neg2(r);
                zeros[l] += usize::from(r == 0);
            }
        }
        let mut out = [0.0f64; L];
        for l in 0..L {
            out[l] = estimate_from_stats(row.len(), sum[l], zeros[l]);
        }
        out
    }

    /// The inclusion–exclusion transform `|X∩Y|̂ = nx + ny − |X∪Y|̂`,
    /// clamped into `[0, min(nx, ny)]` — shared by the pairwise and
    /// row-batched paths so both clamp identically.
    #[inline]
    pub fn intersection_from_union(nx: usize, ny: usize, union_est: f64) -> f64 {
        ((nx + ny) as f64 - union_est).clamp(0.0, nx.min(ny) as f64)
    }

    /// `|X∩Y|̂ = nx + ny − |X∪Y|̂` (inclusion–exclusion with exact sizes),
    /// clamped into `[0, min(nx, ny)]`.
    #[inline]
    pub fn estimate_intersection(&self, i: usize, j: usize, nx: usize, ny: usize) -> f64 {
        Self::intersection_from_union(nx, ny, self.estimate_union(i, j))
    }

    /// Bytes of sketch storage.
    pub fn memory_bytes(&self) -> usize {
        self.registers.len()
    }

    /// The seed all sketches were built with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimates_zero() {
        let h = HyperLogLog::new(10, 1);
        assert!(h.estimate() < 1e-9);
    }

    #[test]
    fn small_range_uses_linear_counting() {
        let items: Vec<u32> = (0..100).collect();
        let h = HyperLogLog::from_set(&items, 12, 3);
        let est = h.estimate();
        assert!((est - 100.0).abs() < 10.0, "est={est}");
    }

    #[test]
    fn large_range_accuracy() {
        let items: Vec<u32> = (0..200_000).collect();
        let h = HyperLogLog::from_set(&items, 12, 3);
        let est = h.estimate();
        // Standard error ≈ 1.04/√m ≈ 1.6 % at p=12; allow 6 %.
        assert!((est - 200_000.0).abs() < 0.06 * 200_000.0, "est={est}");
    }

    #[test]
    fn merge_equals_union_build() {
        let x: Vec<u32> = (0..5000).collect();
        let y: Vec<u32> = (2500..7500).collect();
        let hx = HyperLogLog::from_set(&x, 10, 7);
        let hy = HyperLogLog::from_set(&y, 10, 7);
        let union: Vec<u32> = (0..7500).collect();
        let hu = HyperLogLog::from_set(&union, 10, 7);
        assert_eq!(hx.merge(&hy), hu);
    }

    #[test]
    fn intersection_estimate_ballpark() {
        let x: Vec<u32> = (0..20_000).collect();
        let y: Vec<u32> = (10_000..30_000).collect(); // true inter = 10_000
        let hx = HyperLogLog::from_set(&x, 14, 5);
        let hy = HyperLogLog::from_set(&y, 14, 5);
        let i = hx.estimate_intersection(&hy);
        // Inclusion-exclusion amplifies relative error; 30 % is realistic.
        assert!((i - 10_000.0).abs() < 3000.0, "i={i}");
    }

    #[test]
    #[should_panic(expected = "precision mismatch")]
    fn merge_rejects_mismatched_precision() {
        let a = HyperLogLog::new(10, 1);
        let b = HyperLogLog::new(11, 1);
        let _ = a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "outside 4..=16")]
    fn rejects_bad_precision() {
        HyperLogLog::new(2, 0);
    }

    #[test]
    fn collection_matches_standalone_sketches() {
        let sets: Vec<Vec<u32>> = (0..25)
            .map(|s| (0..200 + s * 40).map(|i| (i * 13 + s) as u32).collect())
            .collect();
        let col = HyperLogLogCollection::build(sets.len(), 8, 11, |i| &sets[i][..]);
        for (i, set) in sets.iter().enumerate() {
            let h = HyperLogLog::from_set(set, 8, 11);
            assert_eq!(col.registers(i), &h.registers[..], "set {i}");
            assert_eq!(col.estimate_size(i), h.estimate(), "set {i}");
        }
        // The fused union pass equals merge-then-estimate.
        let h0 = HyperLogLog::from_set(&sets[0], 8, 11);
        let h9 = HyperLogLog::from_set(&sets[9], 8, 11);
        assert_eq!(col.estimate_union(0, 9), h0.merge(&h9).estimate());
    }

    #[test]
    fn collection_intersection_ballpark() {
        let x: Vec<u32> = (0..20_000).collect();
        let y: Vec<u32> = (10_000..30_000).collect(); // true inter = 10_000
        let col = HyperLogLogCollection::build(2, 14, 5, |i| if i == 0 { &x } else { &y });
        let est = col.estimate_intersection(0, 1, x.len(), y.len());
        assert!((est - 10_000.0).abs() < 3000.0, "est={est}");
    }

    #[test]
    fn collection_intersection_clamped() {
        let x: Vec<u32> = (0..500).collect();
        let y: Vec<u32> = (50_000..50_500).collect(); // disjoint
        let col = HyperLogLogCollection::build(2, 10, 3, |i| if i == 0 { &x } else { &y });
        let est = col.estimate_intersection(0, 1, x.len(), y.len());
        assert!((0.0..=500.0).contains(&est), "est={est}");
    }

    #[test]
    fn empty_collection_and_empty_sets() {
        let col = HyperLogLogCollection::build(0, 8, 1, |_| &[][..]);
        assert!(col.is_empty());
        assert_eq!(col.len(), 0);
        let sets: [Vec<u32>; 1] = [vec![]];
        let col = HyperLogLogCollection::build(1, 8, 1, |i| &sets[i][..]);
        assert!(col.estimate_size(0) < 1e-9);
        assert_eq!(col.estimate_intersection(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        let full: Vec<Vec<u32>> = (0..8)
            .map(|s| (0..100 + s * 30).map(|i| (i * 13 + s) as u32).collect())
            .collect();
        let want = HyperLogLogCollection::build(full.len(), 8, 17, |i| &full[i][..]);
        let mut got =
            HyperLogLogCollection::build(full.len(), 8, 17, |i| &full[i][..full[i].len() / 2]);
        for (i, set) in full.iter().enumerate() {
            got.insert_batch(i, &set[set.len() / 2..]);
            assert_eq!(got.registers(i), want.registers(i), "set {i}");
        }
        // Single-element path agrees too.
        let mut one = HyperLogLogCollection::build(1, 6, 3, |_| &[][..]);
        for x in [11u32, 4, 900] {
            one.insert(0, x);
        }
        let rebuilt = HyperLogLogCollection::build(1, 6, 3, |_| &[11u32, 4, 900][..]);
        assert_eq!(one.registers(0), rebuilt.registers(0));
    }

    #[test]
    fn folding_a_wide_sketch_reproduces_the_narrow_build_exactly() {
        let items: Vec<u32> = (0..30_000).map(|i| i * 7 + 3).collect();
        for (p_from, p_to) in [(10u32, 10u32), (10, 8), (12, 7), (8, 4), (16, 12)] {
            let wide = HyperLogLog::from_set(&items, p_from as u8, 9);
            let narrow = HyperLogLog::from_set(&items, p_to as u8, 9);
            let mut folded = Vec::new();
            fold_hll_registers_into(&wide.registers, p_from, p_to, &mut folded);
            assert_eq!(folded, narrow.registers, "p {p_from}->{p_to}");
        }
    }

    #[test]
    fn one_stratum_build_is_bit_identical_to_uniform() {
        let sets: Vec<Vec<u32>> = (0..10)
            .map(|s| (0..50 + s * 40).map(|i| (i * 13 + s) as u32).collect())
            .collect();
        let uniform = HyperLogLogCollection::build(sets.len(), 8, 11, |i| &sets[i][..]);
        let one = SetGeometry::stratified(vec![1 << 8], vec![0u8; sets.len()]);
        let strat = HyperLogLogCollection::build_on(one, 11, |i| &sets[i][..]);
        assert!(
            strat.geometry().is_uniform(),
            "one stratum must lower to uniform"
        );
        assert_eq!(strat.raw_registers(), uniform.raw_registers());
        assert_eq!(strat.precision(), uniform.precision());
    }

    /// Stratified geometry with per-stratum precisions `ps`.
    fn strata(ps: &[u8], assign: &[u8]) -> SetGeometry<'static> {
        SetGeometry::stratified(ps.iter().map(|&p| 1 << p).collect(), assign.to_vec())
    }

    #[test]
    fn cross_stratum_unions_match_both_built_at_the_narrow_precision() {
        let sets: Vec<Vec<u32>> = (0..9)
            .map(|s| (0..100 + s * 120).map(|i| (i * 5 + s) as u32).collect())
            .collect();
        let ps = [10u8, 8, 6];
        let assign: Vec<u8> = (0..sets.len()).map(|i| (i % 3) as u8).collect();
        let strat = HyperLogLogCollection::build_on(strata(&ps, &assign), 7, |i| &sets[i][..]);
        for i in 0..sets.len() {
            assert_eq!(strat.precision_of(i), ps[assign[i] as usize]);
            assert_eq!(strat.registers(i).len(), 1usize << strat.precision_of(i));
            for j in 0..sets.len() {
                let pmin = strat.precision_of(i).min(strat.precision_of(j));
                let narrow = HyperLogLogCollection::build(sets.len(), pmin, 7, |s| &sets[s][..]);
                assert_eq!(
                    strat.estimate_union(i, j),
                    narrow.estimate_union(i, j),
                    "i={i} j={j}"
                );
                // Pinned-row path: source folded once (the oracle's
                // pattern) must agree with the pairwise path.
                let mut row = Vec::new();
                fold_hll_registers_into(
                    strat.registers(i),
                    strat.precision_of(i) as u32,
                    pmin as u32,
                    &mut row,
                );
                assert_eq!(
                    strat.union_estimate_with_row(&row, j),
                    strat.estimate_union(i, j),
                    "row i={i} j={j}"
                );
            }
        }
        // Same-stratum multi-lane path still agrees lane-for-lane.
        for i in 0..3 {
            let row = strat.registers(i);
            let js = [i, (i + 3) % 9, (i + 6) % 9]; // all stratum assign[i]
            let multi = strat.union_estimates_multi(row, js);
            for (l, &j) in js.iter().enumerate() {
                assert_eq!(multi[l], strat.estimate_union(i, j), "lane {l}");
            }
        }
    }

    #[test]
    fn stratified_insert_matches_stratified_rebuild() {
        let full: Vec<Vec<u32>> = (0..8)
            .map(|s| (0..80 + s * 30).map(|i| (i * 13 + s) as u32).collect())
            .collect();
        let assign: Vec<u8> = (0..full.len()).map(|i| (i % 2) as u8).collect();
        let geom = strata(&[9, 5], &assign);
        let want = HyperLogLogCollection::build_on(geom.clone(), 17, |i| &full[i][..]);
        let mut got = HyperLogLogCollection::build_on(geom, 17, |i| &full[i][..full[i].len() / 2]);
        for (i, set) in full.iter().enumerate() {
            got.insert_batch(i, &set[set.len() / 2..]);
            assert_eq!(got.registers(i), want.registers(i), "set {i}");
        }
        assert_eq!(got.raw_registers(), want.raw_registers());
    }

    #[test]
    fn stratified_gather_concatenates_parts() {
        let sets: Vec<Vec<u32>> = (0..8)
            .map(|s| (0..60 + s * 25).map(|i| (i * 3 + s) as u32).collect())
            .collect();
        let ps = [8u8, 5];
        let assign: Vec<u8> = (0..8).map(|i| (i % 2) as u8).collect();
        let whole = HyperLogLogCollection::build_on(strata(&ps, &assign), 5, |i| &sets[i][..]);
        let left = HyperLogLogCollection::build_on(strata(&ps, &assign[..4]), 5, |i| &sets[i][..]);
        let right =
            HyperLogLogCollection::build_on(strata(&ps, &assign[4..]), 5, |i| &sets[i + 4][..]);
        let mut gathered = left.clone();
        gathered.gather_into(&[&left, &right]);
        assert_eq!(gathered.raw_registers(), whole.raw_registers());
        assert_eq!(gathered.geometry(), whole.geometry());
        for i in 0..8 {
            assert_eq!(gathered.registers(i), whole.registers(i));
        }
    }

    #[test]
    fn collection_parallel_build_deterministic() {
        let sets: Vec<Vec<u32>> = (0..120)
            .map(|s| (0..300).map(|i| (i * 17 + s * 3) as u32).collect())
            .collect();
        let a = pg_parallel::with_threads(1, || {
            HyperLogLogCollection::build(120, 7, 9, |i| &sets[i][..])
        });
        let b = pg_parallel::with_threads(8, || {
            HyperLogLogCollection::build(120, 7, 9, |i| &sets[i][..])
        });
        assert_eq!(a.registers, b.registers);
    }

    #[test]
    fn range_correction_crossover_boundaries() {
        // p = 10, m = 1024: the linear-counting crossover sits at
        // raw == 2.5m. Drive `estimate_from_stats` directly with
        // synthetic register statistics bracketing every boundary.
        let m = 1024usize;
        let mf = m as f64;
        let threshold = 2.5 * mf;
        // sum that makes raw land exactly on a target estimate E:
        // raw = α·m²/sum  ⇒  sum = α·m²/E.
        let sum_for = |e: f64| alpha(m) * mf * mf / e;
        // Below the crossover with zero registers left: linear counting.
        let below = estimate_from_stats(m, sum_for(threshold * 0.99), 100);
        assert_eq!(below, mf * (mf / 100.0).ln());
        // Above the crossover: raw, even though zeros remain.
        let above = estimate_from_stats(m, sum_for(threshold * 1.01), 100);
        assert!((above - threshold * 1.01).abs() < 1e-6 * threshold);
        // Exactly at the boundary `raw == 2.5m`: the small-range branch
        // (inclusive comparison, matching Flajolet et al.).
        let at = estimate_from_stats(m, sum_for(threshold), 100);
        assert_eq!(at, mf * (mf / 100.0).ln());
        // The two branches stay within the algorithm's error band of each
        // other at the crossover — no order-of-magnitude cliff.
        assert!(
            (above - at).abs() < 0.15 * threshold,
            "at={at} above={above}"
        );
        // zeros == 0 with raw under the threshold: linear counting is
        // undefined (ln of ∞), so raw must be returned — finite, not NaN.
        let no_zeros = estimate_from_stats(m, sum_for(threshold * 0.5), 0);
        assert!((no_zeros - threshold * 0.5).abs() < 1e-6 * threshold);
        assert!(no_zeros.is_finite());
        // All registers zero (empty sketch): exactly 0.
        assert_eq!(estimate_from_stats(m, mf, m), 0.0);
    }

    #[test]
    fn range_correction_u32_universe_top_end() {
        // With 64-bit hashes there is no 32-bit large-range correction
        // (see `estimate_from_stats` docs): the raw estimate must stay
        // finite, positive, and strictly monotone in the register ranks
        // all the way past the u32-item universe — the dynamic range a
        // full-universe set needs — up to total register saturation.
        for p in [4u32, 12, 16] {
            let m = 1usize << p;
            let max_rank = (64 - p + 1) as u8;
            let mut prev = 0.0f64;
            for rank in 1..=max_rank {
                // Every register at `rank`: sum = m · 2^-rank.
                let est = estimate_from_stats(m, m as f64 * pow_neg2(rank), 0);
                assert!(est.is_finite() && est > 0.0, "p={p} rank={rank}: {est}");
                assert!(est > prev, "p={p} rank={rank}: not monotone");
                prev = est;
            }
            // Saturated registers reach far beyond 2^32 without overflow
            // or a correction cliff — the top of the u32 universe is well
            // inside the representable range.
            assert!(prev > (1u64 << 33) as f64, "p={p}: top end {prev}");
        }
        // A concrete near-top-end sketch: registers distributed as a
        // cardinality of ~2^32 would leave them (rank ≈ 32 - p + 1 bits
        // of leading zeros on average). The estimate lands within an
        // order of magnitude of 2^32 — no silent collapse at the top.
        let p = 12u32;
        let m = 1usize << p;
        let rank = (32 - p + 1) as u8;
        let est = estimate_from_stats(m, m as f64 * pow_neg2(rank), 0);
        let top = (1u64 << 32) as f64;
        assert!(est > top / 4.0 && est < top * 4.0, "est={est}");
    }

    #[test]
    fn pow_neg2_matches_powi() {
        for r in 0u8..=64 {
            assert_eq!(pow_neg2(r), 2f64.powi(-(r as i32)), "r={r}");
        }
    }

    #[test]
    fn insert_is_idempotent() {
        let mut a = HyperLogLog::new(8, 2);
        for _ in 0..100 {
            a.insert(42);
        }
        let single = HyperLogLog::from_set(&[42], 8, 2);
        assert_eq!(a, single);
        assert!((a.estimate() - 1.0).abs() < 0.1);
    }
}
