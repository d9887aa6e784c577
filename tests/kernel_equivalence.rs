//! Property tests proving the fused/batched kernels are **bit-identical**
//! to the naive reference paths they replaced:
//!
//! * `and_or_ones_words` (one traversal, four statistics) vs separate
//!   AND/OR/popcount passes;
//! * `BloomCollection::pair_ones` (cached popcounts + inclusion–exclusion)
//!   vs the general fused kernel over the raw windows;
//! * batched `HashFamily::hashes_into`/`buckets_into` (premixed, unrolled)
//!   vs per-function scalar hashing;
//! * batched Bloom construction vs a scalar-hash reference build;
//! * each Bloom strategy's tail (over the memoized Swamidass curve) vs
//!   its closed form, across random sketches and budget-shaped parameters;
//! * the branchless `merge_count` vs a hash-set reference.

use pg_hash::HashFamily;
use pg_sketch::bitvec::{and_count_words, and_or_ones_words, count_ones_words, or_count_words};
use pg_sketch::{estimators, BloomCollection, BloomFilter};
use probgraph::oracle::{BloomAnd, BloomLimit, BloomOr, BloomOracle, IntersectionOracle};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_word_kernel_matches_separate_passes(
        words in vec((0u64..u64::MAX, 0u64..u64::MAX), 0..70)
    ) {
        let a: Vec<u64> = words.iter().map(|&(x, _)| x).collect();
        let b: Vec<u64> = words.iter().map(|&(_, y)| y).collect();
        let p = and_or_ones_words(&a, &b);
        prop_assert_eq!(p.and_ones, and_count_words(&a, &b));
        prop_assert_eq!(p.or_ones, or_count_words(&a, &b));
        prop_assert_eq!(p.a_ones, count_ones_words(&a));
        prop_assert_eq!(p.b_ones, count_ones_words(&b));
        // Inclusion–exclusion invariant that the collection fast path uses.
        prop_assert_eq!(p.a_ones + p.b_ones, p.and_ones + p.or_ones);
    }

    #[test]
    fn collection_pair_path_matches_general_kernel(
        x in vec(0u32..5_000, 0..250),
        y in vec(0u32..5_000, 0..250),
        bits in 1usize..2_000,
        b in 1usize..5,
        seed in 0u64..100,
    ) {
        let col = BloomCollection::build(2, bits, b, seed, |i| if i == 0 { &x } else { &y });
        let fused = col.pair_ones(0, 1);
        let general = and_or_ones_words(col.words(0), col.words(1));
        prop_assert_eq!(fused, general);
        prop_assert_eq!(fused.and_ones, col.and_ones(0, 1));
        prop_assert_eq!(fused.or_ones, col.or_ones(0, 1));
        prop_assert_eq!(fused.a_ones, col.count_ones(0));
    }

    #[test]
    fn batched_hashing_matches_scalar(
        k in 1usize..40,
        m in 1usize..100_000,
        seed in 0u64..1_000,
        keys in vec(0u64..u64::MAX, 1..50),
    ) {
        let family = HashFamily::new(k, seed);
        let mut hashes = vec![0u32; k];
        let mut buckets = vec![0u32; k];
        for &key in &keys {
            family.hashes_into(key, &mut hashes);
            family.buckets_into(key, m, &mut buckets);
            for i in 0..k {
                prop_assert_eq!(hashes[i], family.hash32(i, key));
                prop_assert_eq!(buckets[i] as usize, family.bucket(i, key, m));
            }
        }
    }

    #[test]
    fn batched_bloom_build_matches_scalar_reference(
        items in vec(0u32..100_000, 0..300),
        bits in 64usize..4_096,
        b in 1usize..5,
        seed in 0u64..100,
    ) {
        // Batched construction (BloomFilter::insert + collection build).
        let filter = BloomFilter::from_set(&items, bits, b, seed);
        let col = BloomCollection::build(1, bits, b, seed, |_| &items[..]);
        // Scalar-hash reference build over the same rounded bit count.
        let rounded = col.bits_per_set();
        let family = HashFamily::new(b, seed);
        let mut reference = vec![0u64; rounded / 64];
        for &x in &items {
            for i in 0..b {
                let pos = family.bucket(i, x as u64, rounded);
                reference[pos / 64] |= 1u64 << (pos % 64);
            }
        }
        prop_assert_eq!(col.words(0), &reference[..]);
        prop_assert_eq!(col.count_ones(0), count_ones_words(&reference));
        // The standalone filter rounds differently (exact bit length) but
        // its incremental popcount must match a full recount.
        prop_assert_eq!(filter.count_ones(), filter.bits().count_ones());
        for &x in &items {
            prop_assert!(filter.contains(x));
            prop_assert!(col.contains(0, x));
        }
    }

    #[test]
    fn memoized_estimators_match_closed_forms(
        x in vec(0u32..10_000, 0..400),
        y in vec(0u32..10_000, 0..400),
        bits in 64usize..3_000,
        b in 1usize..4,
        seed in 0u64..50,
    ) {
        let col = BloomCollection::build(2, bits, b, seed, |i| if i == 0 { &x } else { &y });
        let (bp, nx, ny) = (col.bits_per_set(), x.len(), y.len());
        // Each strategy's tail, served through its oracle, equals its
        // closed form.
        let sizes = [nx as u32, ny as u32];
        let and = BloomOracle::<BloomAnd>::new(&col, &sizes).estimate(0, 1);
        prop_assert_eq!(and, estimators::bf_intersect_and(col.and_ones(0, 1), bp, b));
        prop_assert_eq!(
            BloomOracle::<BloomLimit>::new(&col, &sizes).estimate(0, 1),
            estimators::bf_intersect_limit(col.and_ones(0, 1), b)
        );
        prop_assert_eq!(
            BloomOracle::<BloomOr>::new(&col, &sizes).estimate(0, 1),
            estimators::bf_intersect_or(col.or_ones(0, 1), bp, b, nx, ny)
        );
        prop_assert_eq!(col.estimate_and(0, 1), and);
        // The standalone fused AND filter agrees with the collection.
        let fx = BloomFilter::from_set(&x, bp, b, seed);
        let fy = BloomFilter::from_set(&y, bp, b, seed);
        prop_assert_eq!(fx.estimate_intersection_and(&fy), col.estimate_and(0, 1));
    }

    #[test]
    fn branchless_merge_matches_reference(
        a in vec(0u32..3_000, 0..300),
        b in vec(0u32..3_000, 0..300),
    ) {
        let mut a = a;
        let mut b = b;
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        let set: std::collections::HashSet<_> = a.iter().collect();
        let want = b.iter().filter(|x| set.contains(x)).count();
        prop_assert_eq!(probgraph::intersect::merge_count(&a, &b), want);
        prop_assert_eq!(probgraph::intersect::intersect_card(&a, &b), want);
    }
}
