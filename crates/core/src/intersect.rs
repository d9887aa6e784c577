//! Exact set-intersection kernels over sorted vertex-ID arrays.
//!
//! Fig. 1 panel 2 of the paper: the *merge* kernel (`O(d_u + d_v)`, best
//! when the sets have similar sizes) and the *galloping* kernel
//! (`O(d_u log d_v)` for `d_u ≪ d_v`). [`intersect_card`] picks between
//! them with the standard size-ratio heuristic, which is what the tuned
//! GMS/GAP baselines do.
//!
//! The third kernel is the *mark-bitmap filter*, for a run of
//! intersections that share one fixed operand `A`, such as 4-clique
//! counting's `N⁺_u ∩ N⁺_v` for every `v ∈ N⁺_u`. [`mark_set`] sets `A`'s
//! bits in a bitmap over the vertex universe once; each
//! [`filter_marked`] call then keeps the elements of `B` whose bit is set,
//! in `|B|` independent probes of that bitmap where a merge takes up to
//! `|A| + |B|` dependent steps; [`clear_marks`] zeroes the bitmap again
//! by visiting `A`'s words only.

/// Size-ratio threshold above which galloping beats merging.
const GALLOP_RATIO: usize = 32;

/// Merge intersection count of two sorted ascending slices.
///
/// Branchless inner loop: the three-way `match` of the textbook merge
/// mispredicts on random data (the branch pattern *is* the data); the
/// comparison-driven index bumps below compile to `setcc`/`cmov`, so the
/// only branch left is the loop condition.
pub fn merge_count(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut c = 0;
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        c += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    c
}

/// Galloping (exponential-search) intersection count: for each element of
/// the smaller set, locate it in the larger by doubling then binary search.
pub fn gallop_count(small: &[u32], large: &[u32]) -> usize {
    debug_assert!(small.len() <= large.len());
    let mut c = 0;
    let mut lo = 0usize;
    for &x in small {
        if lo >= large.len() {
            break;
        }
        // Exponential probe from the last position: find a window
        // [lo, hi) guaranteed to contain the insertion point of x.
        let mut bound = 1usize;
        while lo + bound < large.len() && large[lo + bound] < x {
            bound <<= 1;
        }
        let hi = (lo + bound + 1).min(large.len());
        match large[lo..hi].binary_search(&x) {
            Ok(pos) => {
                c += 1;
                lo += pos + 1;
            }
            Err(pos) => {
                lo += pos;
            }
        }
    }
    c
}

/// Exact `|A ∩ B|` with the merge/gallop selection heuristic of the tuned
/// baselines.
#[inline]
pub fn intersect_card(a: &[u32], b: &[u32]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    if large.len() / small.len().max(1) >= GALLOP_RATIO {
        gallop_count(small, large)
    } else {
        merge_count(small, large)
    }
}

/// Materialized intersection of two sorted sets, in ascending order.
/// `out` is overwritten; a warm buffer is reused. A run of intersections
/// with one fixed operand is cheaper through [`filter_marked`].
///
/// Branchless like [`merge_count`]: every step stores the current `a`
/// element at the write cursor and advances the cursor only on a match,
/// so a non-match is overwritten by the next step instead of being
/// branched around. The cursor counts matches, each of which advanced
/// both inputs, so it stays below `min(|a|, |b|)`, the size `out` takes
/// first.
pub fn intersect_set(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.resize(a.len().min(b.len()), 0);
    let mut i = 0;
    let mut j = 0;
    let mut k = 0;
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        out[k] = x;
        k += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.truncate(k);
}

/// Sets the bit of every element of `a` in `marks`, a bitmap over the
/// vertex universe (bit `x % 64` of word `x / 64`): the fixed operand of
/// [`filter_marked`]. `marks` must hold at least `max(a) / 64 + 1` words.
#[inline]
pub fn mark_set(marks: &mut [u64], a: &[u32]) {
    for &x in a {
        marks[(x / 64) as usize] |= 1 << (x % 64);
    }
}

/// Materialized `A ∩ B` for the set `A` marked in `marks` by
/// [`mark_set`]: the elements of `b` whose bit is set, in `b`'s order, so
/// for sorted inputs `out` equals what [`intersect_set`] returns. `out`
/// is overwritten; a warm buffer is reused.
///
/// Branchless like [`intersect_set`]: every element of `b` is stored at
/// the write cursor, and the cursor advances only when its bit is set.
/// The probes do not depend on each other, and a bitmap of `n / 8` bytes
/// stays in L1 for graphs up to a few hundred thousand vertices.
pub fn filter_marked(marks: &[u64], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.resize(b.len(), 0);
    let mut k = 0;
    for &x in b {
        out[k] = x;
        k += ((marks[(x / 64) as usize] >> (x % 64)) & 1) as usize;
    }
    out.truncate(k);
}

/// Zeroes every word of `marks` that holds an element of `a`. Run after
/// [`mark_set`]`(marks, a)` on a zeroed bitmap, it leaves the bitmap zeroed
/// again: no other word was ever set. Costs `|a|` stores, not `n / 64`.
#[inline]
pub fn clear_marks(marks: &mut [u64], a: &[u32]) {
    for &x in a {
        marks[(x / 64) as usize] = 0;
    }
}

/// Visits every common element (needed by Adamic–Adar / Resource
/// Allocation, which weight each shared neighbor individually).
pub fn for_each_common<F: FnMut(u32)>(a: &[u32], b: &[u32], mut f: F) {
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[u32], b: &[u32]) -> usize {
        a.iter().filter(|x| b.contains(x)).count()
    }

    #[test]
    fn merge_matches_naive() {
        let a: Vec<u32> = (0..100).step_by(3).collect();
        let b: Vec<u32> = (0..100).step_by(5).collect();
        assert_eq!(merge_count(&a, &b), naive(&a, &b));
    }

    #[test]
    fn gallop_matches_naive() {
        let small: Vec<u32> = vec![3, 50, 51, 99, 500];
        let large: Vec<u32> = (0..1000).step_by(2).collect();
        assert_eq!(gallop_count(&small, &large), naive(&small, &large));
    }

    #[test]
    fn gallop_edge_positions() {
        let large: Vec<u32> = (10..20).collect();
        assert_eq!(gallop_count(&[10], &large), 1); // first
        assert_eq!(gallop_count(&[19], &large), 1); // last
        assert_eq!(gallop_count(&[5], &large), 0); // below
        assert_eq!(gallop_count(&[25], &large), 0); // above
        assert_eq!(gallop_count(&[5, 10, 15, 19, 25], &large), 3);
    }

    #[test]
    fn auto_dispatch_agrees_with_both() {
        // Exhaustive-ish randomized cross-check of all five kernels. The
        // materializing merge and the mark-bitmap filter each reuse one
        // warm buffer that starts longer than any intersection and holds
        // stale values from every trial. The bitmap covers the 0..3000
        // universe in 47 words, the last one partial (3000 = 46·64 + 56),
        // and must be all zero again after every trial's clear.
        let mut seed = 99u64;
        let mut set = vec![u32::MAX; 4096];
        let mut filtered = vec![u32::MAX; 4096];
        let mut marks = vec![0u64; 3000usize.div_ceil(64)];
        for trial in 0..200 {
            let la = (pg_hash::splitmix64(&mut seed) % 200) as usize;
            let lb = (pg_hash::splitmix64(&mut seed) % 2000) as usize;
            let mut a: Vec<u32> = (0..la)
                .map(|_| (pg_hash::splitmix64(&mut seed) % 3000) as u32)
                .collect();
            let mut b: Vec<u32> = (0..lb)
                .map(|_| (pg_hash::splitmix64(&mut seed) % 3000) as u32)
                .collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let want = naive(&a, &b);
            assert_eq!(intersect_card(&a, &b), want, "trial {trial}");
            assert_eq!(merge_count(&a, &b), want);
            let (s, l) = if a.len() <= b.len() {
                (&a, &b)
            } else {
                (&b, &a)
            };
            assert_eq!(gallop_count(s, l), want);
            intersect_set(&a, &b, &mut set);
            let naive_set: Vec<u32> = a.iter().copied().filter(|x| b.contains(x)).collect();
            assert_eq!(set, naive_set, "trial {trial}");
            mark_set(&mut marks, &a);
            filter_marked(&marks, &b, &mut filtered);
            let naive_filter: Vec<u32> = b.iter().copied().filter(|x| a.contains(x)).collect();
            assert_eq!(filtered, naive_filter, "trial {trial}");
            clear_marks(&mut marks, &a);
            assert!(marks.iter().all(|&w| w == 0), "trial {trial}");
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(intersect_card(&[], &[1, 2, 3]), 0);
        assert_eq!(intersect_card(&[], &[]), 0);
        assert_eq!(gallop_count(&[], &[1]), 0);
    }

    #[test]
    fn intersect_set_materializes() {
        let mut out = Vec::new();
        intersect_set(&[1, 3, 5, 7], &[3, 4, 5, 6], &mut out);
        assert_eq!(out, vec![3, 5]);
        // Reuse clears previous contents.
        intersect_set(&[1], &[2], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn for_each_common_visits_in_order() {
        let mut seen = Vec::new();
        for_each_common(&[1, 2, 3, 9], &[2, 3, 4, 9], |x| seen.push(x));
        assert_eq!(seen, vec![2, 3, 9]);
    }
}
