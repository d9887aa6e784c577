//! Degree-aware scheduling grains for the DAG kernels.
//!
//! Triangle and 4-clique counting iterate vertices, but the work behind a
//! vertex scales with powers of its oriented out-degree — on power-law
//! graphs the hubs would serialize a count-based schedule (one chunk drags
//! the join while every other worker idles). These helpers summarize the
//! degree profile with one cheap parallel pass and feed it to
//! [`pg_parallel::weighted_grain`], which shrinks the chunk size until the
//! dynamic scheduler can isolate hubs.

use crate::oracle::IntersectionOracle;
use pg_graph::{OrientedDag, VertexId};
use pg_parallel::{map_reduce, weighted_grain};

/// `(Σ w(v), max w(v))` over all vertices, where `w(v) = d⁺(v)^pow`
/// (saturating — degree profiles of billion-edge graphs stay finite).
fn degree_power_stats(dag: &OrientedDag, pow: u32) -> (u64, u64) {
    map_reduce(
        dag.num_vertices(),
        || (0u64, 0u64),
        |(sum, max), v| {
            let d = dag.out_degree(v as VertexId) as u64;
            let w = d.saturating_pow(pow);
            (sum.saturating_add(w), max.max(w))
        },
        |(s1, m1), (s2, m2)| (s1.saturating_add(s2), m1.max(m2)),
    )
}

/// Scheduling grain for kernels whose per-vertex work is `d⁺(v)^pow`:
/// `pow = 1` for per-edge sketch estimators (one `O(B/W)`/`O(k)` call per
/// edge), `pow = 2` for wedge kernels (exact triangle counting: a sum of
/// `O(d⁺)` merges per vertex), `pow = 3` for 4-clique kernels (each
/// oriented edge materializes a `C3` set and intersects every member
/// against it). The generic oracle kernels pick `pow` from
/// [`crate::oracle::IntersectionOracle::degree_scaled_cost`].
pub(crate) fn degree_power_grain(dag: &OrientedDag, pow: u32) -> usize {
    let (total, max) = degree_power_stats(dag, pow);
    weighted_grain(dag.num_vertices(), total, max)
}

// ---------------------------------------------------------------------------
// Cache tiling: the blocked row-sweep traversal
// ---------------------------------------------------------------------------

/// Geometry of one blocked sweep: destinations are partitioned into
/// contiguous id ranges of `tile_ids` sets (one cache-resident window of
/// the flat sketch array), and sources are processed `batch` at a time so
/// each tile's lines are re-read across the whole batch instead of being
/// refetched per edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePlan {
    /// Destination sets per tile (`⌈tile_bytes / window_bytes⌉`-ish).
    pub tile_ids: usize,
    /// Pinned source rows swept across each tile before it is evicted.
    pub batch: usize,
}

/// Plans a blocked sweep over `n_ids` destination sets of `window_bytes`
/// each, or `None` when the plain row sweep wins:
///
/// * `window_bytes == 0` / `n_ids == 0` — nothing to tile;
/// * one window alone overflows the tile budget (huge filters — the same
///   regime where `BloomCollection` skips its Swamidass table and
///   [`pg_sketch::bitvec::prefetch_distance`] returns 0);
/// * the whole collection fits in twice the tile budget (tiny graphs: every
///   destination is cache-resident after the first row, so blocking only
///   adds bookkeeping).
///
/// The tile budget comes from [`pg_parallel::tile_bytes`] (`PG_TILE_BYTES`
/// override, else half the probed L2 — L1-sized tiles shrink the per-source
/// segments below what the 4-lane kernels can amortize). The source batch
/// matches the tile (`batch = tile_ids`): one blocked sweep refetches the
/// store `nt` times for source windows and `nb` times for tile fills, and
/// with `nt·nb` fixed by the two byte budgets the sum `nt + nb` is minimal
/// when the budgets are equal — which also keeps the streamed batch windows
/// from evicting the resident tile mid-unit.
pub fn plan_tiles(n_ids: usize, window_bytes: usize) -> Option<TilePlan> {
    if n_ids == 0 || window_bytes == 0 {
        return None;
    }
    let budget = pg_parallel::tile_bytes();
    if window_bytes > budget {
        return None;
    }
    let total = n_ids.checked_mul(window_bytes)?;
    if total <= budget.saturating_mul(2) {
        return None;
    }
    let tile_ids = (budget / window_bytes).max(1).min(n_ids);
    let batch = tile_ids.clamp(64, 8192);
    Some(TilePlan { tile_ids, batch })
}

/// Plans a blocked sweep for `oracle` (via
/// [`IntersectionOracle::dest_window_bytes`]) over `n_ids` destination
/// sets; `None` routes the caller to its plain row-sweep path.
pub fn plan_for<O: IntersectionOracle + ?Sized>(oracle: &O, n_ids: usize) -> Option<TilePlan> {
    plan_tiles(n_ids, oracle.dest_window_bytes()?)
}

/// Which blocked kernel a [`tiled_block_sweep`] runs per segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// [`IntersectionOracle::estimate_block_into`] — intersection sizes.
    Estimate,
    /// [`IntersectionOracle::jaccard_block_into`] — native Jaccard rows.
    Jaccard,
}

/// Worker-local scratch of one blocked sweep: the flattened segment layout
/// of the current (source-batch × destination-tile) block plus the value
/// buffer under the row-buffer reuse contract. All vectors grow to the
/// widest block once and are then reused allocation-free.
///
/// `bounds` caches, per source of the *current batch*, the `nt + 1` row
/// indices where its sorted row crosses each tile boundary — computed in
/// one predictable linear walk per row when a worker first touches a batch
/// and reused across all of that batch's tile units (the grain keeps a
/// batch's tiles on one worker). Without it every (source, tile) unit
/// would pay two branch-mispredicting binary searches for a segment only a
/// few destinations long, which costs more than the segment's kernel.
#[derive(Default)]
struct BlockScratch {
    sources: Vec<VertexId>,
    seg_row_start: Vec<usize>,
    offs: Vec<usize>,
    us: Vec<VertexId>,
    out: Vec<f64>,
    bounds: Vec<u32>,
    cached_batch: Option<usize>,
}

/// The shared blocked row-sweep traversal: every algorithm that used to
/// sweep `rows(v)` per source vertex reroutes through this when
/// [`plan_for`] says tiling is profitable.
///
/// Traversal order is batch-major: for each batch of `plan.batch` sources,
/// every destination tile is visited in ascending id order, and within one
/// (batch × tile) block each source's in-tile destinations (a contiguous
/// segment of its sorted row, found by binary search) are estimated with
/// one [`IntersectionOracle::estimate_block_into`] /
/// [`IntersectionOracle::jaccard_block_into`] call. `fold(acc, v,
/// seg_row_start, dests, vals)` then folds each segment — `seg_row_start`
/// is the segment's offset inside `rows(v)`, so sinks that write per-edge
/// outputs can address `flat_offset(v) + seg_row_start + t` directly.
///
/// Scheduling: the work-stealing unit is the destination **tile** — the
/// claimed index space is `batches × tiles` (batch-major, so one grain of
/// consecutive units is one batch's tile sweep, default a whole batch)
/// which keeps a tile's destination lines hot on the core that claimed it;
/// with fewer batches than workers the grain shrinks to split one batch's
/// tiles across cores. Per-destination values are bit-identical to the
/// untiled row sweep for any plan (pinned by the tiled-equivalence suite);
/// only the `fold`/`combine` grouping differs from the untiled sweep. As
/// in every [`pg_parallel::map_reduce`] reduction, that grouping follows
/// from the plan and the grain, never from scheduling.
#[allow(clippy::too_many_arguments)]
pub fn tiled_block_sweep<'g, O, T, FRow, FId, FFold, FComb>(
    n_sources: usize,
    n_ids: usize,
    oracle: &O,
    plan: &TilePlan,
    kind: BlockKind,
    rows: FRow,
    identity: FId,
    fold: FFold,
    combine: FComb,
) -> T
where
    O: IntersectionOracle + ?Sized,
    T: Send,
    FRow: Fn(VertexId) -> &'g [VertexId] + Sync,
    FId: Fn() -> T + Sync,
    FFold: Fn(T, VertexId, usize, &[VertexId], &[f64]) -> T + Sync,
    FComb: Fn(T, T) -> T + Sync,
{
    let tile_ids = plan.tile_ids.max(1);
    let batch = plan.batch.max(1);
    let nt = n_ids.div_ceil(tile_ids).max(1);
    let nb = n_sources.div_ceil(batch);
    let units = nb * nt;
    let threads = pg_parallel::current_threads().max(1);
    // Grain in tiles: a whole batch-sweep when there are batches to spare,
    // else split one batch's tiles across the workers.
    let grain = if nb >= 2 * threads {
        nt
    } else {
        (units / (8 * threads)).clamp(1, nt)
    };
    pg_parallel::map_reduce_scratch(
        units,
        grain,
        &identity,
        BlockScratch::default,
        |scratch, mut acc, unit| {
            let b = unit / nt;
            let tile = unit % nt;
            let s0 = b * batch;
            let s1 = (s0 + batch).min(n_sources);
            if scratch.cached_batch != Some(b) {
                // First unit of this batch on this worker: one linear walk
                // per row records where it crosses every tile boundary
                // (rows are sorted ascending, so the walk never backs up).
                scratch.bounds.clear();
                scratch.bounds.reserve((s1 - s0) * (nt + 1));
                for v in s0..s1 {
                    let row = rows(v as VertexId);
                    let mut idx = 0usize;
                    scratch.bounds.push(0);
                    for t in 1..=nt {
                        let d1 = t * tile_ids;
                        while idx < row.len() && (row[idx] as usize) < d1 {
                            idx += 1;
                        }
                        scratch.bounds.push(idx as u32);
                    }
                }
                scratch.cached_batch = Some(b);
            }
            scratch.sources.clear();
            scratch.seg_row_start.clear();
            scratch.offs.clear();
            scratch.us.clear();
            scratch.offs.push(0);
            for v in s0..s1 {
                let base = (v - s0) * (nt + 1);
                let lo = scratch.bounds[base + tile] as usize;
                let hi = scratch.bounds[base + tile + 1] as usize;
                if lo == hi {
                    continue;
                }
                let row = rows(v as VertexId);
                scratch.sources.push(v as VertexId);
                scratch.seg_row_start.push(lo);
                scratch.us.extend_from_slice(&row[lo..hi]);
                scratch.offs.push(scratch.us.len());
            }
            if scratch.us.is_empty() {
                return acc;
            }
            match kind {
                BlockKind::Estimate => oracle.estimate_block(
                    &scratch.sources,
                    &scratch.offs,
                    &scratch.us,
                    &mut scratch.out,
                ),
                BlockKind::Jaccard => oracle.jaccard_block(
                    &scratch.sources,
                    &scratch.offs,
                    &scratch.us,
                    &mut scratch.out,
                ),
            }
            for (k, (&v, &lo)) in scratch
                .sources
                .iter()
                .zip(&scratch.seg_row_start)
                .enumerate()
            {
                let (a, b2) = (scratch.offs[k], scratch.offs[k + 1]);
                acc = fold(acc, v, lo, &scratch.us[a..b2], &scratch.out[a..b2]);
            }
            acc
        },
        combine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_graph::{gen, orient_by_degree};

    #[test]
    fn grains_are_positive_and_bounded_by_n() {
        for g in [gen::kronecker(9, 8, 1), gen::complete(32), gen::path(100)] {
            let dag = orient_by_degree(&g);
            for pow in 1..=3 {
                let grain = degree_power_grain(&dag, pow);
                assert!(grain >= 1);
                assert!(grain <= dag.num_vertices().max(1));
            }
        }
    }

    #[test]
    fn skewed_dag_gets_finer_grain_than_uniform() {
        pg_parallel::with_threads(8, || {
            // Degree orientation caps most out-degrees, so skew a DAG the
            // only way possible: a "hub" whose neighbors all out-rank it.
            // hub 0 — heavies 1..=k — each heavy with k+1 private leaves,
            // so every heavy's degree exceeds the hub's and the hub's
            // out-neighborhood is all k heavies.
            let k = 50u32;
            let mut edges: Vec<(u32, u32)> = (1..=k).map(|h| (0, h)).collect();
            let mut next = k + 1;
            for h in 1..=k {
                for _ in 0..k + 1 {
                    edges.push((h, next));
                    next += 1;
                }
            }
            let skewed = pg_graph::CsrGraph::from_edges(next as usize, &edges);
            let dag = orient_by_degree(&skewed);
            assert_eq!(dag.out_degree(0), k as usize, "hub must keep its out-edges");
            let uniform = gen::cycle(next as usize);
            let gs = degree_power_grain(&dag, 2);
            let gu = degree_power_grain(&orient_by_degree(&uniform), 2);
            assert!(gs < gu, "skewed grain {gs} should be < uniform grain {gu}");
        });
    }

    #[test]
    fn empty_dag() {
        let g = pg_graph::CsrGraph::from_edges(0, &[]);
        let dag = orient_by_degree(&g);
        assert_eq!(degree_power_grain(&dag, 1), 1);
    }

    #[test]
    fn plan_tiles_picks_default_path_for_degenerate_shapes() {
        pg_parallel::with_tile_bytes(1 << 14, || {
            assert_eq!(plan_tiles(0, 64), None, "no destinations");
            assert_eq!(plan_tiles(100, 0), None, "no window");
            assert_eq!(plan_tiles(16, 64), None, "store fits in cache");
            assert_eq!(plan_tiles(1000, 1 << 20), None, "one window overflows");
        });
    }

    #[test]
    fn plan_tiles_shapes_follow_the_budget() {
        pg_parallel::with_tile_bytes(1 << 14, || {
            let p = plan_tiles(10_000, 64).expect("tiling profitable");
            assert_eq!(p.tile_ids, (1 << 14) / 64);
            assert_eq!(p.batch, p.tile_ids, "balanced batch = tile shape");
            // Never more tile ids than sets.
            let q = plan_tiles(700, 64).expect("3× the budget still tiles");
            assert!(q.tile_ids <= 700);
        });
        // A near-usize::MAX budget (the tests' forced-decline idiom) must
        // decline without overflowing the 2× headroom check.
        pg_parallel::with_tile_bytes(usize::MAX, || {
            assert_eq!(plan_tiles(10_000, 64), None);
        });
    }
}
