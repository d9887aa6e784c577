//! Classic random-graph models: Erdős–Rényi and Chung–Lu.
//!
//! [`erdos_renyi_gnm`] and [`chung_lu`] draw endpoint pairs one after
//! another from one seeded stream and keep the first `m` distinct pairs
//! (self loops skipped). The graph is a pure function of the arguments:
//! the stream, the order of draws and the cut at the `m`-th distinct pair
//! are fixed, and how the draws are deduplicated or batched is not part of
//! the contract. Two implementation choices keep that cheap:
//!
//! * Chung–Lu endpoints come from inverse-transform sampling over a
//!   cumulative weight table, started from a Chen–Asau guide table
//!   ([`CumulativeTable`]), so a draw costs O(1) expected comparisons and
//!   returns exactly the vertex a binary search over the same table would.
//! * Draws come in rounds; [`first_distinct_pairs`] buckets each round's
//!   pairs by smaller endpoint with the pairs kept so far, and keeps each
//!   pair's first occurrence, in place of a hash set probed once per draw.

use crate::csr::{dedup_sorted_by_key, map_rows_mut, CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// G(n, m): exactly `m` distinct undirected edges chosen uniformly among all
/// `n(n-1)/2` pairs. Panics if `m` exceeds the number of available pairs.
///
/// Draws `(u, v)` uniformly from `0..n` per endpoint, skips self loops, and
/// keeps the first `m` distinct pairs (see the module doc).
pub fn erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> CsrGraph {
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max_m,
        "G(n={n}) has at most {max_m} edges, asked for {m}"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x474e_4d31);
    let edges = first_distinct_pairs(n, m, usize::MAX, || {
        let u = rng.gen_range(0..n as u64) as VertexId;
        let v = rng.gen_range(0..n as u64) as VertexId;
        (u, v)
    });
    CsrGraph::from_edges(n, &edges)
}

/// G(n, p): every pair independently an edge with probability `p`.
pub fn erdos_renyi_gnp(n: usize, p: f64, seed: u64) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x474e_5031);
    let mut edges = Vec::new();
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if rng.gen::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Chung–Lu power-law graph: samples edges with endpoint probabilities
/// proportional to weights `w_i ∝ (i + 1)^(−1/(γ−1))` — the standard
/// construction for an expected power-law degree distribution with exponent
/// `gamma` — until `m_target` *distinct* edges exist. Self loops and
/// duplicates are resampled (capped at `50 × m_target` attempts, so extreme
/// hub saturation degrades gracefully to slightly fewer edges).
///
/// Each attempt draws `u`, then `v`, each by inverse transform of one
/// uniform `f64` over the cumulative weights; a self loop counts as an
/// attempt. The edges are the distinct pairs first drawn before the
/// `m_target`-th distinct pair, or before the cap (see the module doc).
pub fn chung_lu(n: usize, m_target: usize, gamma: f64, seed: u64) -> CsrGraph {
    assert!(gamma > 1.0, "power-law exponent must exceed 1, got {gamma}");
    assert!(n > 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x434c_5531);
    let alpha = 1.0 / (gamma - 1.0);
    let table = CumulativeTable::new((0..n).map(|i| (i as f64 + 1.0).powf(-alpha)));
    let max_attempts = m_target.saturating_mul(50).max(1000);
    let edges = first_distinct_pairs(n, m_target, max_attempts, || {
        let u = table.draw(rng.gen::<f64>());
        let v = table.draw(rng.gen::<f64>());
        (u, v)
    });
    CsrGraph::from_edges(n, &edges)
}

/// Inverse-transform sampler over a cumulative weight table.
///
/// `cum[i + 1] = w_0 + … + w_i` and `draw(x)` returns the first `i` with
/// `cum[i + 1] > x · total`, the vertex a binary search over `cum` returns.
/// A Chen–Asau guide table splits `[0, total)` into `n` equal buckets and
/// records, per bucket `b`, the first `i` whose `cum[i + 1]` falls in bucket
/// `b` or later. Bucketing is monotone in its argument, so every `t` in
/// bucket `b` has its answer at or after `guide[b]`, and a forward scan from
/// there by the same `cum[i + 1] > t` test stops at exactly that answer.
/// A scan from `guide[b]` only crosses boundaries `cum[i + 1]` inside
/// bucket `b`, and the `n` boundaries are shared among `n` buckets, so a
/// uniform `t` costs at most two comparisons on average.
struct CumulativeTable {
    cum: Vec<f64>,
    guide: Vec<u32>,
    /// Buckets per unit of cumulative weight: `guide.len() / total`.
    scale: f64,
}

impl CumulativeTable {
    /// Builds the table over `weights`: at least one, non-negative, with a
    /// positive sum.
    fn new(weights: impl ExactSizeIterator<Item = f64>) -> Self {
        let n = weights.len();
        assert!(n > 0, "a cumulative table needs at least one weight");
        let mut cum = Vec::with_capacity(n + 1);
        cum.push(0.0f64);
        let mut acc = 0.0;
        for w in weights {
            acc += w;
            cum.push(acc);
        }
        let mut table = CumulativeTable {
            cum,
            guide: Vec::new(),
            scale: n as f64 / acc,
        };
        let mut i = 0usize;
        table.guide = (0..n)
            .map(|b| {
                while i < n && table.bucket(table.cum[i + 1]) < b {
                    i += 1;
                }
                i as u32
            })
            .collect();
        table
    }

    /// Guide bucket of cumulative weight `t`, clamped to the last of the
    /// `n` buckets.
    #[inline]
    fn bucket(&self, t: f64) -> usize {
        ((t * self.scale) as usize).min(self.cum.len() - 2)
    }

    /// The vertex that uniform `x ∈ [0, 1)` maps to.
    #[inline]
    fn draw(&self, x: f64) -> VertexId {
        let n = self.cum.len() - 1;
        let t = x * self.cum[n];
        let mut i = self.guide[self.bucket(t)] as usize;
        while i < n && self.cum[i + 1] <= t {
            i += 1;
        }
        i as VertexId
    }
}

/// The distinct unordered pairs, as `(min, max)` sorted ascending, that
/// `draw` yields up to and including its `m`-th distinct pair, or within
/// its first `max_attempts` draws if that comes first. Self loops are
/// skipped but count as draws. Endpoints must be `< n`.
///
/// Same set as one pass over the draws with a hash set of pairs seen, but
/// cache-friendly: draws come in rounds sized from the duplicate rate so
/// far, and each round goes through [`merge_first_occurrences`].
fn first_distinct_pairs(
    n: usize,
    m: usize,
    max_attempts: usize,
    mut draw: impl FnMut() -> (VertexId, VertexId),
) -> Vec<(VertexId, VertexId)> {
    let mut kept = Vec::new();
    let mut attempts = 0usize;
    while kept.len() < m && attempts < max_attempts {
        let want = m - kept.len();
        // Round sizes change only the time taken, never the pairs kept:
        // draws past the cut are discarded. Enough draws for `want` new
        // pairs at the rate so far plus 1/8, so one round usually suffices;
        // but at least a quarter of the draws so far, so that when new
        // pairs grow rare (near-complete graphs) the rounds, each of which
        // re-buckets every kept pair, grow geometrically.
        let rate = (attempts as f64 + 1.0) / (kept.len() as f64 + 1.0);
        let round = ((want as f64 * rate * 1.125) as usize + 64)
            .max(attempts / 4)
            .min(max_attempts - attempts)
            .min(u32::MAX as usize - 1);
        attempts += round;
        let mut fresh = Vec::with_capacity(round);
        for _ in 0..round {
            let (u, v) = draw();
            if u != v {
                fresh.push((u.min(v), u.max(v)));
            }
        }
        kept = merge_first_occurrences(n, kept, &fresh, want);
    }
    kept
}

/// `kept` (distinct, sorted) plus the pairs of `fresh` not in `kept` whose
/// first occurrence in `fresh` comes no later than the `want`-th such
/// first occurrence; sorted ascending.
///
/// Counting-sorts `kept` and `fresh` together by smaller endpoint, tagging
/// each entry `(larger endpoint, 0)` for `kept` and `(larger endpoint,
/// 1 + index in fresh)` otherwise, then sorts and dedups each bucket in
/// parallel: a pair's entries are adjacent and the one kept has its
/// smallest tag.
fn merge_first_occurrences(
    n: usize,
    kept: Vec<(VertexId, VertexId)>,
    fresh: &[(VertexId, VertexId)],
    want: usize,
) -> Vec<(VertexId, VertexId)> {
    let mut start = vec![0usize; n + 1];
    for &(u, _) in kept.iter().chain(fresh) {
        start[u as usize + 1] += 1;
    }
    for u in 0..n {
        start[u + 1] += start[u];
    }
    let mut entries = vec![0u64; kept.len() + fresh.len()];
    let mut fill = start[..n].to_vec();
    let tagged = kept.iter().map(|&p| (p, 0u32));
    for ((u, v), tag) in tagged.chain(fresh.iter().copied().zip(1u32..)) {
        entries[fill[u as usize]] = (v as u64) << 32 | tag as u64;
        fill[u as usize] += 1;
    }
    drop((kept, fill));
    let distinct = map_rows_mut(&mut entries, &start, |bucket| {
        bucket.sort_unstable();
        dedup_sorted_by_key(bucket, |&e| e >> 32)
    });
    let firsts = || {
        (0..n).flat_map(|u| {
            entries[start[u]..start[u] + distinct[u]]
                .iter()
                .map(move |&e| (u, e))
        })
    };
    let mut new_tags: Vec<u32> = firsts()
        .map(|(_, e)| e as u32)
        .filter(|&t| t != 0)
        .collect();
    let cut = if new_tags.len() > want {
        *new_tags.select_nth_unstable(want - 1).1
    } else {
        u32::MAX
    };
    firsts()
        .filter(|&(_, e)| e as u32 <= cut)
        .map(|(u, e)| (u as VertexId, (e >> 32) as VertexId))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_exact_edge_count() {
        let g = erdos_renyi_gnm(100, 500, 3);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 500);
    }

    #[test]
    fn gnm_complete_limit() {
        let g = erdos_renyi_gnm(10, 45, 1);
        assert_eq!(g.num_edges(), 45);
        assert_eq!(g.max_degree(), 9);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn gnm_rejects_impossible_m() {
        erdos_renyi_gnm(4, 100, 0);
    }

    #[test]
    fn gnp_density_tracks_p() {
        let g = erdos_renyi_gnp(200, 0.1, 9);
        let expect = 0.1 * (200.0 * 199.0 / 2.0);
        let m = g.num_edges() as f64;
        assert!((m - expect).abs() < 0.25 * expect, "m={m}, expect≈{expect}");
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(erdos_renyi_gnp(50, 0.0, 1).num_edges(), 0);
        assert_eq!(erdos_renyi_gnp(20, 1.0, 1).num_edges(), 190);
    }

    #[test]
    fn chung_lu_is_skewed() {
        let g = chung_lu(2000, 20_000, 2.2, 11);
        assert!(g.num_edges() > 15_000);
        let skew = g.max_degree() as f64 / g.avg_degree();
        assert!(skew > 3.0, "power-law should be skewed, got {skew}");
    }

    #[test]
    fn chung_lu_hubs_are_low_indices() {
        // Weight decreases with index, so vertex 0 should be a top hub.
        let g = chung_lu(1000, 10_000, 2.1, 4);
        let d0 = g.degree(0);
        let tail_max = (500..1000).map(|v| g.degree(v as VertexId)).max().unwrap();
        assert!(d0 > tail_max, "d0={d0} tail_max={tail_max}");
    }

    #[test]
    fn generators_deterministic() {
        assert_eq!(erdos_renyi_gnm(50, 100, 5), erdos_renyi_gnm(50, 100, 5));
        assert_eq!(chung_lu(100, 500, 2.3, 5), chung_lu(100, 500, 2.3, 5));
        assert_eq!(erdos_renyi_gnp(50, 0.2, 5), erdos_renyi_gnp(50, 0.2, 5));
    }

    /// Reference draw: binary search for the first `i` with
    /// `cum[i + 1] > x · total`.
    fn draw_by_binary_search(cum: &[f64], x: f64) -> VertexId {
        let n = cum.len() - 1;
        let t = x * cum[n];
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cum[mid + 1] > t {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo as VertexId
    }

    /// Reference dedup: one hash set probed per draw, stopping at the
    /// `m`-th distinct pair or after `max_attempts`.
    fn first_distinct_pairs_by_hash_set(
        m: usize,
        max_attempts: usize,
        mut draw: impl FnMut() -> (VertexId, VertexId),
    ) -> Vec<(VertexId, VertexId)> {
        let mut chosen = std::collections::HashSet::new();
        let mut edges = Vec::new();
        let mut attempts = 0usize;
        while edges.len() < m && attempts < max_attempts {
            attempts += 1;
            let (u, v) = draw();
            if u == v {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if chosen.insert(key) {
                edges.push(key);
            }
        }
        edges.sort_unstable();
        edges
    }

    /// A uniform in `[0, 1)` whose product with `total` lands just below,
    /// on, or just above each cumulative boundary, plus both ends.
    fn boundary_points(cum: &[f64]) -> Vec<f64> {
        let total = cum[cum.len() - 1];
        let mut xs = vec![0.0, 1.0 - f64::EPSILON / 2.0];
        for &c in cum {
            let x = c / total;
            for y in [
                x,
                f64::from_bits(x.to_bits().saturating_sub(1)),
                f64::from_bits(x.to_bits() + 1),
            ] {
                if (0.0..1.0).contains(&y) {
                    xs.push(y);
                }
            }
        }
        xs
    }

    #[test]
    fn guide_table_draw_matches_binary_search() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut tables: Vec<Vec<f64>> = [1.5, 2.1, 2.5, 3.0, 1.01]
            .iter()
            .flat_map(|&gamma| {
                let alpha = 1.0 / (gamma - 1.0);
                [1usize, 2, 7, 1000]
                    .map(|n| (0..n).map(|i| (i as f64 + 1.0).powf(-alpha)).collect())
            })
            .collect();
        tables.push(vec![1.0; 64]);
        // Zero weights make `cum` plateau, as underflow does at γ = 1.01.
        tables.push(
            (0..300)
                .map(|i| if i % 3 == 1 { 0.0 } else { rng.gen::<f64>() })
                .collect(),
        );
        for weights in tables {
            let table = CumulativeTable::new(weights.iter().copied());
            let mut xs = boundary_points(&table.cum);
            xs.extend((0..2000).map(|_| rng.gen::<f64>()));
            for x in xs {
                assert_eq!(
                    table.draw(x),
                    draw_by_binary_search(&table.cum, x),
                    "n={} x={x:e}",
                    weights.len()
                );
            }
        }
    }

    #[test]
    fn first_distinct_pairs_matches_hash_set_reference() {
        // Skewed draws over few vertices, with self loops: heavy repeats.
        let stream = |seed: u64, n: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            move || {
                let skewed = |r: &mut StdRng| r.gen_range(0..n).min(r.gen_range(0..n)) as VertexId;
                (skewed(&mut rng), skewed(&mut rng))
            }
        };
        for seed in 0..40u64 {
            let n = 2 + seed % 30;
            let pairs = (n * (n - 1) / 2) as usize;
            for m in [0, 1, pairs / 3, pairs, pairs + 5] {
                for max_attempts in [0, 1, 2, 7, 64, 65, 200, 5_000] {
                    let got = first_distinct_pairs(n as usize, m, max_attempts, stream(seed, n));
                    let want = first_distinct_pairs_by_hash_set(m, max_attempts, stream(seed, n));
                    assert_eq!(got, want, "n={n} m={m} max_attempts={max_attempts}");
                }
            }
            let got = first_distinct_pairs(n as usize, pairs, usize::MAX, stream(seed, n));
            let want = first_distinct_pairs_by_hash_set(pairs, usize::MAX, stream(seed, n));
            assert_eq!(got, want, "n={n} m={pairs} uncapped");
        }
    }

    /// Reference Chung–Lu generator: binary-search draws and hash-set
    /// dedup.
    fn chung_lu_reference(n: usize, m_target: usize, gamma: f64, seed: u64) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x434c_5531);
        let alpha = 1.0 / (gamma - 1.0);
        let mut cum = vec![0.0f64];
        let mut acc = 0.0;
        for i in 0..n {
            acc += (i as f64 + 1.0).powf(-alpha);
            cum.push(acc);
        }
        let max_attempts = m_target.saturating_mul(50).max(1000);
        let edges = first_distinct_pairs_by_hash_set(m_target, max_attempts, || {
            let u = draw_by_binary_search(&cum, rng.gen::<f64>());
            let v = draw_by_binary_search(&cum, rng.gen::<f64>());
            (u, v)
        });
        CsrGraph::from_edges(n, &edges)
    }

    /// Reference G(n, m) generator with hash-set dedup.
    fn gnm_reference(n: usize, m: usize, seed: u64) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x474e_4d31);
        let edges = first_distinct_pairs_by_hash_set(m, usize::MAX, || {
            let u = rng.gen_range(0..n as u64) as VertexId;
            let v = rng.gen_range(0..n as u64) as VertexId;
            (u, v)
        });
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn generators_match_reference_implementation() {
        for seed in 0..12u64 {
            let n = 20 + 13 * seed as usize;
            for (m, gamma) in [(n, 2.5), (4 * n, 2.1), (n * (n - 1) / 3, 3.0), (3 * n, 1.3)] {
                assert_eq!(
                    chung_lu(n, m, gamma, seed),
                    chung_lu_reference(n, m, gamma, seed),
                    "chung_lu({n}, {m}, {gamma}, {seed})"
                );
            }
            for m in [0, n, n * (n - 1) / 4, n * (n - 1) / 2] {
                assert_eq!(
                    erdos_renyi_gnm(n, m, seed),
                    gnm_reference(n, m, seed),
                    "erdos_renyi_gnm({n}, {m}, {seed})"
                );
            }
        }
    }
}
