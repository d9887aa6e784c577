//! Shard-count configuration for the serving layer.
//!
//! The effective shard count for a sharded store is resolved, in order:
//!
//! 1. the innermost active [`with_shards`] override on the calling thread,
//! 2. the `PG_SHARDS` environment variable,
//! 3. [`crate::available_threads`], clamped to `[1, 64]` — one
//!    single-writer ingest lane per hardware thread.
//!
//! This mirrors the `PG_THREADS` / `PG_TILE_BYTES` resolution chains in
//! [`crate::config`] and [`crate::cache`]. The serving layer additionally
//! caps the resolved count against the cache-topology probe (a shard
//! should own at least one destination tile's worth of sketch bytes —
//! see `probgraph::serving`), so `PG_SHARDS` is a request, not a promise,
//! on stores too small to split that far.

use std::cell::Cell;

thread_local! {
    /// Innermost `with_shards` override on this thread; 0 = none.
    static LOCAL_SHARDS: Cell<usize> = const { Cell::new(0) };
}

fn env_shards() -> Option<usize> {
    std::env::var("PG_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Derived default: one ingest lane per hardware thread, bounded so the
/// per-publish gather fan-in stays trivial.
fn derived_shards() -> usize {
    crate::available_threads().clamp(1, 64)
}

/// The shard count the *calling thread* would use for a sharded store
/// created right now. Always ≥ 1.
pub fn current_shards() -> usize {
    let local = LOCAL_SHARDS.with(|c| c.get());
    if local > 0 {
        return local;
    }
    env_shards().unwrap_or_else(derived_shards).max(1)
}

/// Runs `f` with the calling thread's sharded stores using `n` shards,
/// restoring the previous setting afterwards (also on panic). The scaling
/// harness sweeps shard counts with this.
pub fn with_shards<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_SHARDS.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_SHARDS.with(|c| c.replace(n.max(1)));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_shards_is_at_least_one() {
        assert!(current_shards() >= 1);
    }

    #[test]
    fn with_shards_nests_and_restores() {
        let outer = current_shards();
        with_shards(3, || {
            assert_eq!(current_shards(), 3);
            with_shards(7, || assert_eq!(current_shards(), 7));
            assert_eq!(current_shards(), 3);
        });
        assert_eq!(current_shards(), outer);
    }

    #[test]
    fn with_shards_clamps_zero_to_one() {
        with_shards(0, || assert_eq!(current_shards(), 1));
    }
}
