//! The row reuse contract, counted. After one warm sweep, a second
//! `estimate_row` + `jaccard_row` sweep over every vertex's neighborhood
//! makes no heap allocation, for every store, uniform and under
//! `StrataSpec::skewed_default()` strata. A k-hash build, too, allocates
//! per worker and not per set.
//!
//! This binary installs a counting global allocator. The count is kept
//! per thread, so allocations on the harness's other threads do not
//! disturb it.

use pg_graph::{CsrGraph, VertexId};
use pg_sketch::{MinHashCollection, StrataSpec};
use probgraph::oracle::{IntersectionOracle, OracleVisitor};
use probgraph::{BfEstimator, PgConfig, ProbGraph, Representation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local without a destructor, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Every store variant: Bloom at b = 1 and 2 under each estimator,
/// counting Bloom, k-hash, 1-hash, KMV and HLL. At s = 1 every one of
/// them resolves `skewed_default()` to three strata on the test graph.
fn all_cfgs() -> Vec<(PgConfig, String)> {
    let mk = |r| PgConfig::new(r, 1.0).with_seed(0xA110C);
    let mut cfgs = Vec::new();
    for b in [1, 2] {
        for (est, name) in [
            (BfEstimator::And, "AND"),
            (BfEstimator::Limit, "L"),
            (BfEstimator::Or, "OR"),
        ] {
            let cfg = mk(Representation::Bloom { b }).with_bf_estimator(est);
            cfgs.push((cfg, format!("BF{b}-{name}")));
        }
    }
    cfgs.push((mk(Representation::CountingBloom { b: 2 }), "CBF2".into()));
    cfgs.push((mk(Representation::KHash), "kH".into()));
    cfgs.push((mk(Representation::OneHash), "1H".into()));
    cfgs.push((mk(Representation::Kmv), "KMV".into()));
    cfgs.push((mk(Representation::Hll), "HLL".into()));
    cfgs
}

/// Allocations made by the second of two row sweeps over every vertex.
struct SecondSweepAllocs<'a>(&'a CsrGraph);

impl OracleVisitor for SecondSweepAllocs<'_> {
    type Output = u64;

    fn visit<O: IntersectionOracle>(self, o: &O) -> u64 {
        let g = self.0;
        let mut row = Vec::new();
        let mut sweep = || {
            let mut acc = 0.0;
            for v in 0..g.num_vertices() as VertexId {
                let us = g.neighbors(v);
                o.estimate_row(v, us, &mut row);
                acc += row.iter().sum::<f64>();
                o.jaccard_row(v, us, &mut row);
                acc += row.iter().sum::<f64>();
            }
            std::hint::black_box(acc);
        };
        sweep();
        let before = allocs();
        sweep();
        allocs() - before
    }
}

#[test]
fn warm_row_sweeps_allocate_nothing() {
    let before = allocs();
    drop(std::hint::black_box(Vec::<u8>::with_capacity(8)));
    assert_eq!(allocs(), before + 1, "the allocator counts this thread");

    let g = pg_graph::gen::chung_lu(4096, 32_768, 2.5, 3);
    let mut failures = Vec::new();
    for (cfg, label) in all_cfgs() {
        for strata in [None, Some(StrataSpec::skewed_default())] {
            let stratified = strata.is_some();
            let cfg = match strata {
                Some(spec) => cfg.clone().with_strata(spec),
                None => cfg.clone(),
            };
            let pg = ProbGraph::build(&g, &cfg);
            assert_eq!(
                pg.stratified_params().is_some(),
                stratified,
                "{label}: the spec must resolve to several strata"
            );
            let n = pg_parallel::with_threads(1, || pg.with_oracle(SecondSweepAllocs(&g)));
            if n != 0 {
                let layout = if stratified {
                    "skewed_default"
                } else {
                    "uniform"
                };
                failures.push(format!("{label} {layout}: {n} allocations"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "warm row sweeps allocated: {failures:?}"
    );
}

/// Allocations made by a one-thread k-hash build over `sets`.
fn khash_build_allocs(sets: &[Vec<u32>]) -> u64 {
    pg_parallel::with_threads(1, || {
        let before = allocs();
        let col = MinHashCollection::build(sets.len(), 16, 7, |i| &sets[i]);
        let n = allocs() - before;
        std::hint::black_box(col);
        n
    })
}

#[test]
fn khash_build_allocations_do_not_grow_with_set_count() {
    let sets: Vec<Vec<u32>> = (0..4096u32)
        .map(|i| (0..8).map(|t| i * 8 + t).collect())
        .collect();
    let small = khash_build_allocs(&sets[..1024]);
    let large = khash_build_allocs(&sets);
    assert!(
        large <= small,
        "a k-hash build over 4096 sets made {large} allocations, over 1024 sets {small}"
    );
}
