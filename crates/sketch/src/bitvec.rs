//! Plain bit vector over 64-bit words.
//!
//! This is the physical representation of a Bloom filter (§VI of the
//! paper): `|X ∩ Y|` estimation reduces to a bitwise AND over two word
//! arrays followed by a population count. `u64::count_ones` compiles to the
//! `popcnt` instruction the paper calls out, and the word loops here are
//! simple enough for LLVM to auto-vectorize (the AVX path of §VI).
//!
//! ## Fused single-pass kernels
//!
//! Every kernel in this module makes exactly **one** traversal of its word
//! arrays and allocates nothing. The loops run four independent accumulator
//! lanes so consecutive `popcnt`s have no loop-carried dependency and
//! pipeline at full issue width. [`and_or_ones_words`] is the maximal
//! fusion: one traversal yields all four statistics the paper's Bloom
//! estimators consume — `B_{X∩Y,1}`, `B_{X∪Y,1}`, `B_{X,1}`, `B_{Y,1}` —
//! so evaluating the AND (Eq. 2), Limit (Eq. 4), *and* OR (Eq. 29)
//! estimators for one edge costs a single pass instead of the 2–3 passes
//! of the obvious per-estimator implementation.

/// Fixed-length bit vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len_bits: usize,
}

impl BitVec {
    /// An all-zero bit vector of `len_bits` bits (rounded up to whole words
    /// internally; the logical length stays exact).
    pub fn zeros(len_bits: usize) -> Self {
        BitVec {
            words: vec![0u64; len_bits.div_ceil(64)],
            len_bits,
        }
    }

    /// Logical length in bits (the paper's `B_X`).
    #[inline]
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Backing words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len_bits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Sets bit `i` and reports whether it was previously zero — lets
    /// callers maintain an incremental popcount without a second word load.
    #[inline]
    pub fn set_new(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len_bits);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let was_zero = *w & mask == 0;
        *w |= mask;
        was_zero
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len_bits);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits (the paper's `B_{X,1}`).
    #[inline]
    pub fn count_ones(&self) -> usize {
        count_ones_words(&self.words)
    }

    /// Fused AND + popcount against another vector of the same length —
    /// the core `|X ∩ Y|` kernel of Fig. 1 panel 3. Runs in `O(B/W)` work.
    #[inline]
    pub fn and_count(&self, other: &BitVec) -> usize {
        assert_eq!(self.len_bits, other.len_bits, "bit vectors differ in size");
        and_count_words(&self.words, &other.words)
    }

    /// All four pair statistics in one fused traversal; see
    /// [`and_or_ones_words`].
    #[inline]
    pub fn pair_ones(&self, other: &BitVec) -> PairOnes {
        assert_eq!(self.len_bits, other.len_bits, "bit vectors differ in size");
        and_or_ones_words(&self.words, &other.words)
    }

    /// Materialized AND (for callers that need the intersected filter).
    pub fn and(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len_bits, other.len_bits, "bit vectors differ in size");
        BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len_bits: self.len_bits,
        }
    }
}

/// The four popcounts of one filter pair, from one fused traversal:
/// `B_{X∩Y,1}`, `B_{X∪Y,1}`, `B_{X,1}`, `B_{Y,1}` in the paper's notation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairOnes {
    /// Popcount of `X AND Y` (`B_{X∩Y,1}`, Eq. 2 / Eq. 4 input).
    pub and_ones: usize,
    /// Popcount of `X OR Y` (`B_{X∪Y,1}`, Eq. 29 input).
    pub or_ones: usize,
    /// Popcount of `X` alone (`B_{X,1}`).
    pub a_ones: usize,
    /// Popcount of `Y` alone (`B_{Y,1}`).
    pub b_ones: usize,
}

/// Popcount of a word slice, four accumulator lanes wide.
#[inline]
pub fn count_ones_words(words: &[u64]) -> usize {
    let mut lanes = [0usize; 4];
    let mut chunks = words.chunks_exact(4);
    for w in &mut chunks {
        lanes[0] += w[0].count_ones() as usize;
        lanes[1] += w[1].count_ones() as usize;
        lanes[2] += w[2].count_ones() as usize;
        lanes[3] += w[3].count_ones() as usize;
    }
    let mut total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for w in chunks.remainder() {
        total += w.count_ones() as usize;
    }
    total
}

/// Fused AND + popcount of two word slices (must be equal length); one
/// traversal, zero allocation, four independent lanes.
#[inline]
pub fn and_count_words(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0usize; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        lanes[0] += (x[0] & y[0]).count_ones() as usize;
        lanes[1] += (x[1] & y[1]).count_ones() as usize;
        lanes[2] += (x[2] & y[2]).count_ones() as usize;
        lanes[3] += (x[3] & y[3]).count_ones() as usize;
    }
    let mut total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        total += (x & y).count_ones() as usize;
    }
    total
}

/// Multi-lane fused AND + popcount: one traversal of the pinned source
/// slice `a` against `L` destination slices (all equal length), one
/// independent popcount accumulator per lane.
///
/// This is the SIMD-style row kernel of the batched estimation path: a row
/// sweep `estimate_row(v, us)` re-reads the source window once *per
/// destination*; processing `L ∈ 2..=4` destinations per sweep amortizes
/// every source-word load over `L` AND+popcount operations and gives the
/// autovectorizer `L` independent reduction chains to pipeline (AVX-512
/// `vpopcntq` hardware chews through them at full width). Each lane's
/// accumulation is the plain word-order sum, so `out[l]` is bit-identical
/// to `and_count_words(a, bs[l])` for every lane count.
#[inline]
pub fn and_count_words_multi<const L: usize>(a: &[u64], bs: [&[u64]; L]) -> [usize; L] {
    // Pin every destination to the source length once; inner indexing is
    // then bounds-check-free in the eyes of the optimizer.
    let bs: [&[u64]; L] = bs.map(|b| {
        debug_assert_eq!(a.len(), b.len());
        &b[..a.len()]
    });
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512vpopcntdq"
    ))]
    {
        and_count_words_multi_512(a, bs)
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512vpopcntdq"
    )))]
    {
        let mut lanes = [0usize; L];
        for (w, &x) in a.iter().enumerate() {
            for l in 0..L {
                lanes[l] += (x & bs[l][w]).count_ones() as usize;
            }
        }
        lanes
    }
}

/// AVX-512 form of the multi-lane kernel: one `vpand` + `vpopcntq` per
/// destination per 8-word block, one masked block for the ragged word
/// tail, `L` independent vector accumulators. Popcounts are exact
/// integers, so this is bit-identical to the portable loop.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512vpopcntdq"
))]
#[inline]
fn and_count_words_multi_512<const L: usize>(a: &[u64], bs: [&[u64]; L]) -> [usize; L] {
    use std::arch::x86_64::*;
    // SAFETY: avx512f/avx512vpopcntdq are compile-time target features
    // here; unaligned loads are explicit (`loadu`), and every pointer
    // offset stays inside the equal-length slices checked by the caller.
    unsafe {
        let n = a.len();
        let mut acc = [_mm512_setzero_si512(); L];
        let mut w = 0;
        while w + 8 <= n {
            let x = _mm512_loadu_si512(a.as_ptr().add(w) as *const _);
            for l in 0..L {
                let y = _mm512_loadu_si512(bs[l].as_ptr().add(w) as *const _);
                acc[l] = _mm512_add_epi64(acc[l], _mm512_popcnt_epi64(_mm512_and_si512(x, y)));
            }
            w += 8;
        }
        if w < n {
            let mask: __mmask8 = (1u8 << (n - w)) - 1;
            let x = _mm512_maskz_loadu_epi64(mask, a.as_ptr().add(w) as *const _);
            for l in 0..L {
                let y = _mm512_maskz_loadu_epi64(mask, bs[l].as_ptr().add(w) as *const _);
                acc[l] = _mm512_add_epi64(acc[l], _mm512_popcnt_epi64(_mm512_and_si512(x, y)));
            }
        }
        let mut out = [0usize; L];
        for l in 0..L {
            out[l] = _mm512_reduce_add_epi64(acc[l]) as usize;
        }
        out
    }
}

/// Prefetches a destination window (word, register, or signature slice)
/// into L1 — issued by row sweeps some destinations ahead (see
/// [`prefetch_distance`]) so the L2 fills overlap the current destinations'
/// work (the row kernels are destination-bandwidth bound once the source is
/// pinned in L1). Strides in cache-line units of `size_of::<T>()` using the
/// probed line size, so one prefetch is issued per actual line regardless of
/// the element type; no-op off x86-64.
#[inline]
pub fn prefetch_slice<T>(w: &[T]) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let line = pg_parallel::cache_line_bytes();
        let step = (line / std::mem::size_of::<T>().max(1)).max(1);
        let mut off = 0;
        while off < w.len() {
            _mm_prefetch(w.as_ptr().add(off) as *const i8, _MM_HINT_T0);
            off += step;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = w;
    }
}

/// How many destinations ahead a row sweep should issue [`prefetch_slice`]
/// for windows of `window_bytes` each.
///
/// Targets ~4 KiB of fills in flight — enough to cover L2 latency at small
/// windows (tiny windows need many outstanding destinations, large windows
/// only one or two) without overrunning the L1 fill buffers. Returns 0 for
/// windows past 32 KiB: software-prefetching whole huge filters evicts more
/// than it hides and the hardware streamer already tracks a sequential
/// window walk (the same size regime where `BloomCollection` skips its
/// Swamidass lookup table).
#[inline]
pub fn prefetch_distance(window_bytes: usize) -> usize {
    const IN_FLIGHT_BYTES: usize = 4096;
    const MAX_WINDOW_BYTES: usize = 32 * 1024;
    if window_bytes == 0 || window_bytes > MAX_WINDOW_BYTES {
        return 0;
    }
    (IN_FLIGHT_BYTES / window_bytes).clamp(1, 16)
}

/// Fused OR + popcount of two word slices (must be equal length).
#[inline]
pub fn or_count_words(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0usize; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        lanes[0] += (x[0] | y[0]).count_ones() as usize;
        lanes[1] += (x[1] | y[1]).count_ones() as usize;
        lanes[2] += (x[2] | y[2]).count_ones() as usize;
        lanes[3] += (x[3] | y[3]).count_ones() as usize;
    }
    let mut total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        total += (x | y).count_ones() as usize;
    }
    total
}

/// The maximally fused kernel: one traversal of both word slices yields
/// `AND`, `OR`, and both single-filter popcounts (see [`PairOnes`]).
///
/// Only two popcounts are evaluated per word pair — `or_ones` and `b_ones`
/// come for free from the identities `|x∨y| = |x| + |y| − |x∧y|` applied
/// word-wise: we count `x & y` and `x | y` directly and recover
/// `a_ones + b_ones = and_ones + or_ones`, counting `x` in a third lane.
#[inline]
pub fn and_or_ones_words(a: &[u64], b: &[u64]) -> PairOnes {
    debug_assert_eq!(a.len(), b.len());
    let mut and_l = [0usize; 4];
    let mut or_l = [0usize; 4];
    let mut a_l = [0usize; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        and_l[0] += (x[0] & y[0]).count_ones() as usize;
        and_l[1] += (x[1] & y[1]).count_ones() as usize;
        and_l[2] += (x[2] & y[2]).count_ones() as usize;
        and_l[3] += (x[3] & y[3]).count_ones() as usize;
        or_l[0] += (x[0] | y[0]).count_ones() as usize;
        or_l[1] += (x[1] | y[1]).count_ones() as usize;
        or_l[2] += (x[2] | y[2]).count_ones() as usize;
        or_l[3] += (x[3] | y[3]).count_ones() as usize;
        a_l[0] += x[0].count_ones() as usize;
        a_l[1] += x[1].count_ones() as usize;
        a_l[2] += x[2].count_ones() as usize;
        a_l[3] += x[3].count_ones() as usize;
    }
    let mut and_ones = and_l[0] + and_l[1] + and_l[2] + and_l[3];
    let mut or_ones = or_l[0] + or_l[1] + or_l[2] + or_l[3];
    let mut a_ones = a_l[0] + a_l[1] + a_l[2] + a_l[3];
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        and_ones += (x & y).count_ones() as usize;
        or_ones += (x | y).count_ones() as usize;
        a_ones += x.count_ones() as usize;
    }
    PairOnes {
        and_ones,
        or_ones,
        a_ones,
        // Word-wise |x| + |y| = |x∧y| + |x∨y|, summed over the slice.
        b_ones: and_ones + or_ones - a_ones,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!v.get(i));
            v.set(i);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 8);
    }

    #[test]
    fn and_count_matches_naive() {
        let mut a = BitVec::zeros(200);
        let mut b = BitVec::zeros(200);
        for i in (0..200).step_by(3) {
            a.set(i);
        }
        for i in (0..200).step_by(5) {
            b.set(i);
        }
        let naive = (0..200).filter(|&i| a.get(i) && b.get(i)).count();
        assert_eq!(a.and_count(&b), naive);
        assert_eq!(a.and(&b).count_ones(), naive);
    }

    #[test]
    fn or_count_inclusion_exclusion() {
        let mut a = BitVec::zeros(77);
        let mut b = BitVec::zeros(77);
        for i in 0..40 {
            a.set(i);
        }
        for i in 30..77 {
            b.set(i);
        }
        assert_eq!(
            or_count_words(a.words(), b.words()),
            a.count_ones() + b.count_ones() - a.and_count(&b)
        );
    }

    #[test]
    #[should_panic(expected = "differ in size")]
    fn size_mismatch_panics() {
        BitVec::zeros(64).and_count(&BitVec::zeros(128));
    }

    #[test]
    fn fused_pair_kernel_matches_separate_passes() {
        // Cover every unroll remainder (words % 4 in {0,1,2,3}).
        for bits in [0usize, 64, 128, 192, 256, 320, 1024, 65 * 64] {
            let words = bits / 64;
            let mut a = vec![0u64; words];
            let mut b = vec![0u64; words];
            let mut state = bits as u64 ^ 0xABCD;
            for w in 0..words {
                a[w] = pg_hash::splitmix64(&mut state);
                b[w] = pg_hash::splitmix64(&mut state) & pg_hash::splitmix64(&mut state);
            }
            let p = and_or_ones_words(&a, &b);
            assert_eq!(p.and_ones, and_count_words(&a, &b), "bits={bits}");
            assert_eq!(p.or_ones, or_count_words(&a, &b), "bits={bits}");
            assert_eq!(p.a_ones, count_ones_words(&a), "bits={bits}");
            assert_eq!(p.b_ones, count_ones_words(&b), "bits={bits}");
        }
    }

    #[test]
    fn set_new_reports_first_set_only() {
        let mut v = BitVec::zeros(100);
        assert!(v.set_new(70));
        assert!(!v.set_new(70));
        assert!(v.set_new(0));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn pair_ones_on_bitvecs() {
        let mut a = BitVec::zeros(300);
        let mut b = BitVec::zeros(300);
        for i in (0..300).step_by(3) {
            a.set(i);
        }
        for i in (0..300).step_by(4) {
            b.set(i);
        }
        let p = a.pair_ones(&b);
        assert_eq!(p.and_ones, a.and_count(&b));
        assert_eq!(p.or_ones, or_count_words(a.words(), b.words()));
        assert_eq!(p.a_ones, a.count_ones());
        assert_eq!(p.b_ones, b.count_ones());
        assert_eq!(p.a_ones + p.b_ones, p.and_ones + p.or_ones);
    }

    #[test]
    fn multi_lane_matches_scalar_all_lane_counts() {
        // Sweep word counts across the 8-word AVX tail boundary and the
        // 4-word unroll remainders.
        for words in 0usize..26 {
            let mut state = 0x1234u64 ^ words as u64;
            let mk = |state: &mut u64| -> Vec<u64> {
                (0..words).map(|_| pg_hash::splitmix64(state)).collect()
            };
            let a = mk(&mut state);
            let b: Vec<Vec<u64>> = (0..4).map(|_| mk(&mut state)).collect();
            let want: Vec<usize> = b.iter().map(|x| and_count_words(&a, x)).collect();
            assert_eq!(and_count_words_multi(&a, [&b[0][..]]), [want[0]]);
            assert_eq!(
                and_count_words_multi(&a, [&b[0][..], &b[1][..]]),
                [want[0], want[1]]
            );
            assert_eq!(
                and_count_words_multi(&a, [&b[0][..], &b[1][..], &b[2][..]]),
                [want[0], want[1], want[2]]
            );
            assert_eq!(
                and_count_words_multi(&a, [&b[0][..], &b[1][..], &b[2][..], &b[3][..]]),
                [want[0], want[1], want[2], want[3]]
            );
        }
    }

    #[test]
    fn zero_length() {
        let v = BitVec::zeros(0);
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.len_bits(), 0);
        assert_eq!(v.and_count(&BitVec::zeros(0)), 0);
    }

    #[test]
    fn idempotent_set() {
        let mut v = BitVec::zeros(10);
        v.set(3);
        v.set(3);
        assert_eq!(v.count_ones(), 1);
    }
}
