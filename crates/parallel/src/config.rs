//! Thread-count configuration.
//!
//! The effective thread count for a parallel region is resolved, in order:
//!
//! 1. the innermost active [`with_threads`] override on the calling thread,
//! 2. the `PG_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! This mirrors OpenMP's `OMP_NUM_THREADS`, which the paper's scaling
//! experiments rely on, with a scoped override in place of the
//! process-global `omp_set_num_threads`.

use std::cell::Cell;

thread_local! {
    /// Innermost `with_threads` override on this thread; 0 = none.
    static LOCAL_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Number of hardware threads the runtime would use by default.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn env_threads() -> Option<usize> {
    std::env::var("PG_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The thread count the *calling thread* would use for a parallel region
/// started right now. Always ≥ 1.
pub fn current_threads() -> usize {
    let local = LOCAL_OVERRIDE.with(|c| c.get());
    if local > 0 {
        return local;
    }
    env_threads().unwrap_or_else(available_threads).max(1)
}

/// Runs `f` with the calling thread's parallel regions limited to `n`
/// threads, restoring the previous setting afterwards (also on panic).
///
/// Used by the scaling harness:
///
/// ```
/// use pg_parallel::{with_threads, current_threads};
/// for t in [1, 2, 4] {
///     with_threads(t, || assert_eq!(current_threads(), t));
/// }
/// ```
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_OVERRIDE.with(|c| c.replace(n.max(1)));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_threads_is_at_least_one() {
        assert!(current_threads() >= 1);
    }

    #[test]
    fn with_threads_nests_and_restores() {
        let outer = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let outer = current_threads();
        let r = std::panic::catch_unwind(|| {
            with_threads(5, || panic!("boom"));
        });
        assert!(r.is_err());
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        with_threads(0, || assert_eq!(current_threads(), 1));
    }
}
