//! # pg-parallel — fork/join parallel-for substrate
//!
//! The ProbGraph paper parallelizes its graph-mining algorithms with OpenMP
//! `parallel for` loops using dynamic scheduling (§VI-B of the paper). This
//! crate is the Rust equivalent used by every other crate in the workspace:
//! a fork/join runtime built on [`std::thread::scope`] with a shared atomic
//! work index, i.e. the same scheduling model as
//! `#pragma omp parallel for schedule(dynamic, grain)`.
//!
//! Design goals, in order:
//!
//! 1. **Explicit thread-count control.** The scaling experiments (Figs. 8–9
//!    of the paper) sweep the thread count from 1 to the machine maximum.
//!    [`with_threads`] (or `PG_THREADS`) makes the sweep a one-liner.
//! 2. **Load balancing under skew.** Power-law graphs have a few huge
//!    neighborhoods; static partitioning of the vertex range would serialize
//!    on them. Dynamic chunk claiming via a single `fetch_add` gives the
//!    OpenMP-dynamic behaviour the paper relies on.
//! 3. **No global daemon threads.** Each parallel region forks and joins;
//!    the process is single-threaded between regions, which keeps Criterion
//!    measurements clean and avoids cross-talk between benchmark cases.
//!
//! The public surface is small: [`parallel_for`], [`parallel_for_grain`],
//! [`map_reduce`], [`sum_u64`], [`sum_f64`], [`parallel_init`], [`join`],
//! and the thread-count configuration in [`config`].
//!
//! ```
//! use pg_parallel::{parallel_for, sum_u64};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let hits = AtomicU64::new(0);
//! parallel_for(1000, |i| {
//!     if i % 7 == 0 {
//!         hits.fetch_add(1, Ordering::Relaxed);
//!     }
//! });
//! assert_eq!(hits.into_inner(), 143);
//!
//! let s = sum_u64(1000, |i| i as u64);
//! assert_eq!(s, 999 * 1000 / 2);
//! ```

pub mod cache;
pub mod config;
pub mod epoch;
mod init;
mod par;
mod reduce;
pub mod shard;

pub use cache::{cache_line_bytes, cache_topology, tile_bytes, CacheTopology};
pub use config::{available_threads, current_threads, with_threads};
pub use epoch::{EpochCell, EpochGuard};
pub use init::{parallel_fill_with, parallel_init, parallel_init_scratch};
pub use par::{join, parallel_for, parallel_for_grain, parallel_for_range, parallel_for_scratch};
pub use reduce::{
    map_reduce, map_reduce_grain, map_reduce_scratch, max_f64, min_f64, sum_f64, sum_u64,
};
pub use shard::{current_shards, with_shards};

/// Picks a chunk size ("grain") for a loop of `n` iterations.
///
/// Small enough that `8 × threads` chunks exist (so the dynamic scheduler can
/// balance skewed work), large enough that the `fetch_add` per chunk is
/// amortized. Mirrors what OpenMP implementations choose for
/// `schedule(dynamic)` with an unspecified chunk size, scaled up because a
/// single ProbGraph loop iteration is usually a whole neighborhood
/// intersection.
#[inline]
pub fn auto_grain(n: usize) -> usize {
    let t = current_threads().max(1);
    (n / (8 * t)).clamp(1, 4096)
}

/// Degree-aware grain for loops with **skewed per-iteration work** (one
/// iteration = one vertex neighborhood; power-law graphs put orders of
/// magnitude more work behind a hub than behind a median vertex).
///
/// [`auto_grain`] assumes uniform iterations: with `n/(8t)` iterations per
/// chunk, the chunk that happens to contain a hub carries
/// `max_work + (grain−1)·avg` — a serial tail that stalls the join. This
/// variant sizes chunks by *work* instead: each chunk should carry about
/// `total_work / (16·threads)`, and a chunk already containing a
/// `max_work` hub gets only the remaining headroom in extra iterations.
/// For uniform work it degenerates to roughly [`auto_grain`]; for heavy
/// skew (`max_work ≥` the per-chunk target) it collapses to `grain = 1`,
/// letting the dynamic scheduler isolate hubs.
///
/// `total_work`/`max_work` are abstract work units (e.g. `Σ d_v` and
/// `max d_v` for per-edge loops, `Σ d_v²` / `max d_v²` for wedge loops).
#[inline]
pub fn weighted_grain(n: usize, total_work: u64, max_work: u64) -> usize {
    if n == 0 || total_work == 0 {
        return 1;
    }
    let t = current_threads().max(1) as u64;
    let avg = (total_work / n as u64).max(1);
    let target = (total_work / (16 * t)).max(1);
    let headroom = target.saturating_sub(max_work);
    let by_work = 1 + (headroom / avg) as usize;
    by_work.min(auto_grain(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_grain_is_positive_and_bounded() {
        for n in [0usize, 1, 2, 100, 10_000, 10_000_000] {
            let g = auto_grain(n);
            assert!(g >= 1);
            assert!(g <= 4096);
        }
    }

    #[test]
    fn auto_grain_shrinks_with_more_threads() {
        let g1 = with_threads(1, || auto_grain(100_000));
        let g8 = with_threads(8, || auto_grain(100_000));
        assert!(g8 <= g1);
    }

    #[test]
    fn weighted_grain_uniform_work_tracks_auto() {
        with_threads(8, || {
            let n = 100_000;
            // Uniform work: max == avg.
            let g = weighted_grain(n, n as u64 * 10, 10);
            assert!(g >= auto_grain(n) / 4, "g={g} auto={}", auto_grain(n));
            assert!(g <= auto_grain(n));
        });
    }

    #[test]
    fn weighted_grain_collapses_under_heavy_skew() {
        with_threads(8, || {
            let n = 100_000;
            // One hub holds half the total work: chunks must shrink to 1 so
            // the scheduler can isolate it.
            let total = 2_000_000u64;
            let g = weighted_grain(n, total, total / 2);
            assert_eq!(g, 1);
        });
    }

    #[test]
    fn weighted_grain_degenerate_inputs() {
        assert_eq!(weighted_grain(0, 100, 10), 1);
        assert_eq!(weighted_grain(100, 0, 0), 1);
        assert!(weighted_grain(1, 1, 1) >= 1);
    }
}
