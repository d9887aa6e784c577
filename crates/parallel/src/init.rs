//! Parallel construction of owned collections.
//!
//! Building the ProbGraph representation means materializing one sketch per
//! vertex (Table V of the paper analyses exactly this construction). Each
//! slot is written exactly once by exactly one worker, so we can initialize
//! a `Vec` in place without locks.

use crate::par::parallel_for_grain;
use std::mem::MaybeUninit;

/// Raw pointer wrapper that lets disjoint-index writes cross the `Sync`
/// boundary of the parallel loop. Safety argument: `parallel_for_grain`
/// dispatches every index in `0..n` to exactly one worker, so no two threads
/// ever write the same slot, and the caller joins all workers before reading.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Builds `Vec<T>` of length `n` where element `i` is `f(i)`, computing the
/// elements in parallel.
///
/// ```
/// let squares = pg_parallel::parallel_init(10, |i| i * i);
/// assert_eq!(squares[7], 49);
/// assert_eq!(squares.len(), 10);
/// ```
pub fn parallel_init<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut storage: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit<T> needs no initialization; len==capacity==n.
    unsafe { storage.set_len(n) };
    let ptr = SendPtr(storage.as_mut_ptr());
    let ptr = &ptr;
    parallel_for_grain(n, crate::auto_grain(n), |i| {
        // SAFETY: each index is written exactly once (see SendPtr docs), and
        // the pointee is a MaybeUninit slot inside a live allocation.
        unsafe { (*ptr.0.add(i)).write(f(i)) };
    });
    // If f panicked, the scope already propagated the panic and `storage`
    // leaked its initialized prefix (leak, not UB). Otherwise all n slots
    // are initialized and we can take ownership.
    let mut storage = std::mem::ManuallyDrop::new(storage);
    // SAFETY: all n elements initialized; identical layout & allocator.
    unsafe { Vec::from_raw_parts(storage.as_mut_ptr() as *mut T, n, storage.capacity()) }
}

/// [`parallel_init`] with worker-local scratch: element `i` is
/// `f(&mut scratch, i)` where each worker owns one scratch value for its
/// whole run (see [`crate::parallel_for_scratch`]). Use when computing an
/// element needs temporary buffers that would otherwise be reallocated
/// per element.
pub fn parallel_init_scratch<T, S, Mk, F>(n: usize, make_scratch: Mk, f: F) -> Vec<T>
where
    T: Send,
    Mk: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    init_scratch_grain(n, crate::auto_grain(n), make_scratch, f)
}

/// [`parallel_init_scratch`] with an explicit scheduling grain.
pub(crate) fn init_scratch_grain<T, S, Mk, F>(
    n: usize,
    grain: usize,
    make_scratch: Mk,
    f: F,
) -> Vec<T>
where
    T: Send,
    Mk: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut storage: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit<T> needs no initialization; len==capacity==n.
    unsafe { storage.set_len(n) };
    let ptr = SendPtr(storage.as_mut_ptr());
    let ptr = &ptr;
    crate::parallel_for_scratch(n, grain, make_scratch, |scratch, i| {
        // SAFETY: each index is written exactly once (see SendPtr docs).
        unsafe { (*ptr.0.add(i)).write(f(scratch, i)) };
    });
    let mut storage = std::mem::ManuallyDrop::new(storage);
    // SAFETY: all n elements initialized; identical layout & allocator.
    unsafe { Vec::from_raw_parts(storage.as_mut_ptr() as *mut T, n, storage.capacity()) }
}

/// Overwrites `out[i] = f(i)` for every element, in parallel.
pub fn parallel_fill_with<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n = out.len();
    let ptr = SendPtr(out.as_mut_ptr());
    let ptr = &ptr;
    parallel_for_grain(n, crate::auto_grain(n), |i| {
        // SAFETY: disjoint single writes into a live slice; old value dropped
        // by the assignment.
        unsafe { *ptr.0.add(i) = f(i) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn init_produces_correct_elements() {
        for threads in [1, 4] {
            with_threads(threads, || {
                let v = parallel_init(10_000, |i| i as u64 * 3);
                assert_eq!(v.len(), 10_000);
                assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
            });
        }
    }

    #[test]
    fn init_empty() {
        let v: Vec<u32> = parallel_init(0, |_| unreachable!());
        assert!(v.is_empty());
    }

    #[test]
    fn init_with_heap_elements_drops_cleanly() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(#[allow(dead_code)] Box<usize>);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let v = with_threads(4, || parallel_init(1000, |i| D(Box::new(i))));
            assert_eq!(v.len(), 1000);
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn fill_overwrites_in_place() {
        let mut v = vec![0u32; 5000];
        with_threads(4, || parallel_fill_with(&mut v, |i| i as u32 + 1));
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
    }

    #[test]
    fn init_scratch_matches_plain_init() {
        for threads in [1, 4] {
            let got = with_threads(threads, || {
                parallel_init_scratch(3000, Vec::<u64>::new, |scratch, i| {
                    scratch.clear();
                    scratch.extend((0..i as u64 % 7).map(|x| x * 2));
                    scratch.iter().sum::<u64>() + i as u64
                })
            });
            let want: Vec<u64> = (0..3000u64)
                .map(|i| (0..i % 7).map(|x| x * 2).sum::<u64>() + i)
                .collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn init_strings() {
        let v = with_threads(4, || parallel_init(257, |i| format!("s{i}")));
        assert_eq!(v[256], "s256");
    }
}
