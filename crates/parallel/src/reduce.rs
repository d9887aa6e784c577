//! Parallel reductions: per-chunk accumulation + ordered combine.
//!
//! Every ProbGraph algorithm ends in a reduction — triangle counts are sums
//! of per-edge intersection cardinalities, clustering collects per-edge
//! decisions, etc. Workers claim chunks of `grain` consecutive iterations
//! dynamically, as OpenMP `schedule(dynamic, grain)` does, and fold each
//! chunk into a fresh accumulator; after the join the chunk partials are
//! combined in chunk order. The association of every `combine` is thus
//! fixed by `n` and `grain` alone, never by scheduling, so `f64` sums
//! repeat bit for bit from run to run at a given thread count (the
//! default grains depend on the thread count, so different counts may
//! differ in the last ulps). Integer reductions are exact at any count.

use crate::config::current_threads;

/// Parallel map-reduce over `0..n`.
///
/// `map(acc, i)` folds iteration `i` into the worker-private accumulator,
/// `combine` merges two accumulators, and `identity()` creates a fresh one.
///
/// ```
/// let triangles = pg_parallel::map_reduce(
///     100,
///     || 0u64,
///     |acc, i| acc + (i as u64 % 3),
///     |a, b| a + b,
/// );
/// assert_eq!(triangles, (0..100).map(|i| i as u64 % 3).sum::<u64>());
/// ```
pub fn map_reduce<T, Id, M, C>(n: usize, identity: Id, map: M, combine: C) -> T
where
    T: Send,
    Id: Fn() -> T + Sync,
    M: Fn(T, usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    map_reduce_grain(n, crate::auto_grain(n), identity, map, combine)
}

/// [`map_reduce`] with an explicit scheduling grain. Thin wrapper over
/// [`map_reduce_scratch`] with unit scratch — one scheduling loop to
/// maintain.
pub fn map_reduce_grain<T, Id, M, C>(n: usize, grain: usize, identity: Id, map: M, combine: C) -> T
where
    T: Send,
    Id: Fn() -> T + Sync,
    M: Fn(T, usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    map_reduce_scratch(n, grain, identity, || (), |(), acc, i| map(acc, i), combine)
}

/// [`map_reduce_grain`] with worker-local scratch: `map(scratch, acc, i)`
/// folds iteration `i` into the worker-private accumulator while reusing
/// the worker's scratch value (created once per worker by `make_scratch`).
///
/// The accumulator/scratch split matters: accumulators are *combined* at
/// join time, scratch is *discarded* — putting a reusable buffer into the
/// accumulator (the old 4-clique trick) forces `combine` to arbitrate
/// which buffer to keep, whereas scratch needs no such ceremony.
///
/// With one thread, or `n <= grain`, everything folds into one
/// accumulator in index order. Otherwise each chunk `[c·grain,
/// (c+1)·grain)` folds into a fresh `identity()`, and the partials are
/// combined as `combine(…combine(combine(identity(), p_0), p_1)…, p_last)`
/// after the join, so the result does not depend on which worker ran
/// which chunk. The partials are held until the join: one `T` per chunk.
pub fn map_reduce_scratch<T, S, Id, Mk, M, C>(
    n: usize,
    grain: usize,
    identity: Id,
    make_scratch: Mk,
    map: M,
    combine: C,
) -> T
where
    T: Send,
    Id: Fn() -> T + Sync,
    Mk: Fn() -> S + Sync,
    M: Fn(&mut S, T, usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    let grain = grain.max(1);
    let threads = current_threads();
    if threads <= 1 || n <= grain {
        let mut scratch = make_scratch();
        let mut acc = identity();
        for i in 0..n {
            acc = map(&mut scratch, acc, i);
        }
        return acc;
    }
    let partials =
        crate::init::init_scratch_grain(n.div_ceil(grain), 1, make_scratch, |scratch, c| {
            let mut acc = identity();
            for i in c * grain..((c + 1) * grain).min(n) {
                acc = map(scratch, acc, i);
            }
            acc
        });
    partials.into_iter().fold(identity(), combine)
}

/// Parallel sum of `f(i)` for `i in 0..n` as `u64`. Exact and deterministic.
#[inline]
pub fn sum_u64<F: Fn(usize) -> u64 + Sync>(n: usize, f: F) -> u64 {
    map_reduce(n, || 0u64, |acc, i| acc + f(i), |a, b| a + b)
}

/// Parallel sum of `f(i)` for `i in 0..n` as `f64`.
///
/// Repeats bit for bit at a given thread count (see the module doc);
/// different thread counts group the terms differently and may differ by
/// floating-point association, which all ProbGraph estimators tolerate
/// (the estimator error dominates by many orders of magnitude).
#[inline]
pub fn sum_f64<F: Fn(usize) -> f64 + Sync>(n: usize, f: F) -> f64 {
    map_reduce(n, || 0f64, |acc, i| acc + f(i), |a, b| a + b)
}

/// Parallel maximum of `f(i)`; returns `f64::NEG_INFINITY` for `n == 0`.
#[inline]
pub fn max_f64<F: Fn(usize) -> f64 + Sync>(n: usize, f: F) -> f64 {
    map_reduce(
        n,
        || f64::NEG_INFINITY,
        |acc, i| acc.max(f(i)),
        |a, b| a.max(b),
    )
}

/// Parallel minimum of `f(i)`; returns `f64::INFINITY` for `n == 0`.
#[inline]
pub fn min_f64<F: Fn(usize) -> f64 + Sync>(n: usize, f: F) -> f64 {
    map_reduce(n, || f64::INFINITY, |acc, i| acc.min(f(i)), |a, b| a.min(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;

    #[test]
    fn sum_matches_sequential_for_all_thread_counts() {
        let n = 12_345;
        let expect: u64 = (0..n as u64).map(|i| i * i % 97).sum();
        for threads in [1, 2, 3, 8] {
            let got = with_threads(threads, || sum_u64(n, |i| (i as u64 * i as u64) % 97));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_reduction_yields_identity() {
        assert_eq!(sum_u64(0, |_| panic!("no calls")), 0);
        assert_eq!(max_f64(0, |_| panic!("no calls")), f64::NEG_INFINITY);
        assert_eq!(min_f64(0, |_| panic!("no calls")), f64::INFINITY);
    }

    #[test]
    fn float_sum_close_to_sequential() {
        let n = 100_000;
        let expect: f64 = (0..n).map(|i| 1.0 / (1.0 + i as f64)).sum();
        let got = with_threads(8, || sum_f64(n, |i| 1.0 / (1.0 + i as f64)));
        assert!((got - expect).abs() < 1e-9 * expect.abs());
    }

    #[test]
    fn float_sum_repeats_bit_for_bit() {
        // Association matters: every 1.0 added to an accumulator already
        // holding 1e17 is lost (half an ulp there is 8), while a fresh
        // accumulator keeps them, so any grouping that followed the
        // schedule would show up as differing bits between runs.
        let term = |i: usize| if i == 0 { 1e17 } else { 1.0 };
        let first = with_threads(2, || sum_f64(10_000, term));
        for run in 0..50 {
            let again = with_threads(2, || sum_f64(10_000, term));
            assert_eq!(
                again.to_bits(),
                first.to_bits(),
                "run {run}: {again} != {first}"
            );
        }
    }

    #[test]
    fn max_and_min_find_extremes() {
        let vals: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let mx = with_threads(4, || max_f64(vals.len(), |i| vals[i]));
        let mn = with_threads(4, || min_f64(vals.len(), |i| vals[i]));
        assert_eq!(mx, 999.0);
        assert_eq!(mn, 0.0);
    }

    #[test]
    fn custom_accumulator_type() {
        // Collect (count, sum) pairs — a non-commutative-looking but
        // combine-associative accumulator.
        let (cnt, sum) = with_threads(4, || {
            map_reduce(
                5000,
                || (0u64, 0u64),
                |(c, s), i| (c + 1, s + i as u64),
                |(c1, s1), (c2, s2)| (c1 + c2, s1 + s2),
            )
        });
        assert_eq!(cnt, 5000);
        assert_eq!(sum, 4999 * 5000 / 2);
    }

    #[test]
    fn scratch_reduce_matches_plain_reduce() {
        let n = 20_000;
        let expect: u64 = (0..n as u64).map(|i| i % 13).sum();
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || {
                map_reduce_scratch(
                    n,
                    64,
                    || 0u64,
                    || vec![0u8; 16],
                    |scratch, acc, i| {
                        scratch[0] = scratch[0].wrapping_add(1); // exercise reuse
                        acc + (i as u64 % 13)
                    },
                    |a, b| a + b,
                )
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn panic_in_map_propagates() {
        let r = std::panic::catch_unwind(|| {
            with_threads(4, || {
                sum_u64(1000, |i| if i == 500 { panic!("boom") } else { 1 })
            });
        });
        assert!(r.is_err());
    }
}
