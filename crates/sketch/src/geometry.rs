//! Per-set window layout shared by all six sketch collections.
//!
//! Every collection stores its per-set sketches back to back in flat
//! arrays. [`SetGeometry`] is the one description of where set `i`'s
//! window lies: per-stratum widths in the owning collection's slot unit
//! (Bloom words, MinHash / bottom-k / KMV slots, HLL registers), a per-set
//! stratum assignment, and the window offsets derived from the two.
//!
//! The uniform layout is the one-stratum case. It holds no per-set array
//! at all and answers [`SetGeometry::range`] by stride, so the flat hot
//! paths index exactly as they would without strata. Width *rules* (fold
//! ratios, precision ranges, minimum slots) belong to the collections;
//! this type only requires every window to own at least one slot.

use crate::budget::MAX_STRATA;
use crate::cowvec::cow_clear;
use std::borrow::Cow;
use std::ops::Range;

/// Where each set's sketch window lies in a collection's flat arrays.
///
/// The assignment is copy-on-write over `'a`, so a validated snapshot
/// buffer can back it in place; offsets are always derived here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetGeometry<'a> {
    /// The window width of every set when uniform; 0 when windows vary
    /// per set and `offsets` locates them.
    stride: usize,
    /// Number of sets.
    len: usize,
    /// Per-stratum window widths, in the owning collection's slot unit.
    widths: Vec<usize>,
    /// Per-set stratum indices — empty for one stratum.
    assign: Cow<'a, [u8]>,
    /// Window start of every set plus the end (`len + 1` entries) —
    /// empty for one stratum.
    offsets: Vec<usize>,
}

impl SetGeometry<'static> {
    /// `len` windows of `width` slots each: the one-stratum layout.
    pub fn uniform(len: usize, width: usize) -> Self {
        assert!(width > 0, "every set owns a window of at least one slot");
        SetGeometry {
            stride: width,
            len,
            widths: vec![width],
            assign: Cow::Owned(Vec::new()),
            offsets: Vec::new(),
        }
    }
}

impl<'a> SetGeometry<'a> {
    /// Set `i` gets a window of `widths[assign[i]]` slots. A one-stratum
    /// table normalizes to [`SetGeometry::uniform`] and keeps no per-set
    /// array.
    pub fn stratified(widths: Vec<usize>, assign: impl Into<Cow<'a, [u8]>>) -> Self {
        let assign = assign.into();
        assert!(
            (1..=MAX_STRATA).contains(&widths.len()),
            "need 1..={MAX_STRATA} strata, got {}",
            widths.len()
        );
        if let [width] = widths[..] {
            return SetGeometry::uniform(assign.len(), width);
        }
        assert!(
            widths.iter().all(|&w| w > 0),
            "every set owns a window of at least one slot"
        );
        assert!(
            assign.iter().all(|&a| (a as usize) < widths.len()),
            "assignment references a stratum past the table"
        );
        let mut g = SetGeometry {
            stride: 0,
            len: assign.len(),
            widths,
            assign,
            offsets: Vec::new(),
        };
        g.derive_offsets();
        g
    }

    /// Recomputes `offsets` from `assign` (saturating, so a hostile table
    /// can only produce a total no payload matches, never a wrap).
    fn derive_offsets(&mut self) {
        self.offsets.clear();
        self.offsets.reserve(self.assign.len() + 1);
        let mut off = 0usize;
        self.offsets.push(0);
        for &a in self.assign.iter() {
            off = off.saturating_add(self.widths[a as usize]);
            self.offsets.push(off);
        }
    }

    /// Number of sets.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the layout holds no sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True for the one-stratum layout (no per-set arrays).
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.stride != 0
    }

    /// Per-stratum window widths (one entry when uniform).
    #[inline]
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Per-set stratum indices — `None` for the one-stratum layout.
    #[inline]
    pub fn assign(&self) -> Option<&[u8]> {
        (!self.is_uniform()).then_some(&self.assign[..])
    }

    /// Stratum of set `i` (always 0 when uniform).
    #[inline]
    pub fn stratum_of(&self, i: usize) -> usize {
        if self.is_uniform() {
            0
        } else {
            self.assign[i] as usize
        }
    }

    /// Window width of set `i`.
    #[inline]
    pub fn width_of(&self, i: usize) -> usize {
        if self.is_uniform() {
            self.stride
        } else {
            self.widths[self.assign[i] as usize]
        }
    }

    /// Slot range of set `i`'s window — by stride when uniform.
    #[inline]
    pub fn range(&self, i: usize) -> Range<usize> {
        match self.stride {
            0 => self.offsets[i]..self.offsets[i + 1],
            w => i * w..(i + 1) * w,
        }
    }

    /// Total slots over all windows (saturating on hostile tables).
    #[inline]
    pub fn total(&self) -> usize {
        match self.stride {
            0 => self.offsets[self.len],
            w => self.len.saturating_mul(w),
        }
    }

    /// Width of the narrowest stratum (the stride when uniform).
    #[inline]
    pub fn min_width(&self) -> usize {
        match self.stride {
            0 => *self.widths.iter().min().expect("at least one stratum"),
            w => w,
        }
    }

    /// Width of the widest stratum (the stride when uniform).
    #[inline]
    pub fn max_width(&self) -> usize {
        match self.stride {
            0 => *self.widths.iter().max().expect("at least one stratum"),
            w => w,
        }
    }

    /// Overwrites `self` with the concatenation of `parts`, in order,
    /// reusing `self`'s allocations (the serving layer's double-buffer
    /// publish path). All parts must share one width table.
    pub fn gather_into<'p, 'g: 'p>(
        &mut self,
        parts: impl Iterator<Item = &'p SetGeometry<'g>> + Clone,
    ) {
        let first = parts
            .clone()
            .next()
            .expect("gather needs at least one part");
        for p in parts.clone() {
            assert_eq!(p.widths, first.widths, "gather: mismatched stratum widths");
        }
        if self.widths != first.widths {
            self.widths.clone_from(&first.widths);
        }
        self.stride = first.stride;
        self.len = parts.clone().map(|p| p.len).sum();
        let assign = cow_clear(&mut self.assign);
        if first.is_uniform() {
            self.offsets.clear();
            return;
        }
        for p in parts {
            assign.extend_from_slice(&p.assign);
        }
        self.derive_offsets();
    }

    /// Detaches the assignment from any borrowed buffer. No-op when
    /// already owned.
    pub fn into_owned(self) -> SetGeometry<'static> {
        SetGeometry {
            stride: self.stride,
            len: self.len,
            widths: self.widths,
            assign: Cow::Owned(self.assign.into_owned()),
            offsets: self.offsets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random assignment over `k` strata.
    fn assignment(n: usize, k: usize, seed: u64) -> Vec<u8> {
        (0..n)
            .map(|i| (pg_hash::splitmix64_at(seed ^ i as u64) % k as u64) as u8)
            .collect()
    }

    #[test]
    fn one_stratum_table_normalizes_to_uniform_geometry() {
        let g = SetGeometry::stratified(vec![12], vec![0u8; 40]);
        assert_eq!(g, SetGeometry::uniform(40, 12));
        assert!(g.is_uniform());
        assert!(g.assign().is_none(), "no per-set assignment array");
        assert!(g.offsets.is_empty() && g.assign.is_empty());
        assert_eq!(g.range(3), 36..48);
        assert_eq!((g.total(), g.width_of(39), g.stratum_of(39)), (480, 12, 0));
    }

    #[test]
    fn ranges_tile_the_total_without_gaps_or_overlaps() {
        for seed in 0..20u64 {
            let widths = vec![8, 2, 5, 1];
            let assign = assignment(257, widths.len(), seed);
            let g = SetGeometry::stratified(widths.clone(), assign.clone());
            assert!(!g.is_uniform());
            let mut next = 0;
            for (i, &a) in assign.iter().enumerate() {
                let r = g.range(i);
                assert_eq!(r.start, next, "seed {seed}: gap or overlap at set {i}");
                assert_eq!(r.len(), widths[a as usize]);
                assert_eq!(g.width_of(i), r.len());
                assert_eq!(g.stratum_of(i), a as usize);
                next = r.end;
            }
            assert_eq!(next, g.total());
        }
    }

    #[test]
    fn gather_of_parts_equals_the_concatenated_assignment() {
        let widths = vec![4, 2, 1];
        let assign = assignment(100, 3, 7);
        let whole = SetGeometry::stratified(widths.clone(), assign.clone());
        let (a, rest) = assign.split_at(31);
        let (b, c) = rest.split_at(0);
        let parts = [a, b, c].map(|s| SetGeometry::stratified(widths.clone(), s.to_vec()));
        // Gather into a target of a different shape: it adopts the parts'.
        let mut g = SetGeometry::uniform(5, 9);
        g.gather_into(parts.iter());
        assert_eq!(g, whole);
        // Uniform parts gather to the uniform layout.
        let mut u = whole.clone();
        u.gather_into([SetGeometry::uniform(3, 6), SetGeometry::uniform(4, 6)].iter());
        assert_eq!(u, SetGeometry::uniform(7, 6));
    }

    #[test]
    fn into_owned_detaches_a_borrowed_assignment() {
        let assign = assignment(50, 2, 3);
        let want = SetGeometry::stratified(vec![3, 1], assign.clone());
        let borrowed = SetGeometry::stratified(vec![3, 1], &assign[..]);
        assert!(matches!(borrowed.assign, Cow::Borrowed(_)));
        let owned = borrowed.into_owned();
        drop(assign);
        assert!(matches!(owned.assign, Cow::Owned(_)));
        assert_eq!(owned, want);
    }
}
