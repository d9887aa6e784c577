//! Compressed Sparse Row (CSR) graph representation.
//!
//! Exactly the layout the paper describes in §II-A: all neighborhoods form
//! one contiguous array of vertex IDs (2m words for an undirected graph),
//! plus an offsets array with n+1 entries. Each neighborhood is stored as a
//! **sorted** array, which is what makes the exact merge/galloping
//! intersections of Fig. 1 possible.

use pg_parallel::{parallel_init, sum_u64};

/// Vertex identifier. The paper models `V = {1, …, n}`; we use `0..n`.
pub type VertexId = u32;

/// An undirected simple graph in CSR form.
///
/// Invariants (checked by the builder, relied upon everywhere):
/// * every neighborhood is sorted strictly ascending (no duplicates),
/// * no self loops,
/// * symmetry: `u ∈ N(v)` ⇔ `v ∈ N(u)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
}

impl CsrGraph {
    /// Builds a CSR graph from an arbitrary list of undirected edges.
    ///
    /// Accepts duplicates, self loops, and either edge orientation; the
    /// result is a clean simple undirected graph over vertices
    /// `0..num_vertices`. Edges that mention vertices `>= num_vertices`
    /// panic. The result does not depend on the edge order or the thread
    /// count, and `offsets` and `neighbors` are allocated to their exact
    /// final lengths.
    ///
    /// A counting sort with plain writes: one serial pass counts the
    /// degrees, a second scatters both arcs of every edge into its rows
    /// through per-row cursors. The rows are then sorted and deduplicated
    /// in parallel, each by one worker, and compacted serially. Besides
    /// the result it allocates two `n`-entry arrays (cursors, then row
    /// lengths), whatever the thread count.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let n = num_vertices;
        assert!(n <= u32::MAX as usize, "vertex ids are u32; got n={n}");
        // 1. Degrees (both directions, self loops dropped), shifted by one
        //    slot so the prefix sum leaves `offsets[v]` = start of row v.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for n={n}"
            );
            if u != v {
                offsets[u as usize + 1] += 1;
                offsets[v as usize + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // 2. Scatter both arcs of every edge through per-row cursors.
        let mut neighbors = vec![0 as VertexId; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        for &(u, v) in edges {
            if u != v {
                neighbors[cursor[u as usize]] = v;
                cursor[u as usize] += 1;
                neighbors[cursor[v as usize]] = u;
                cursor[v as usize] += 1;
            }
        }
        drop(cursor);
        // 3. Sort and dedup each row in parallel.
        let lens = map_rows_mut(&mut neighbors, &offsets, |row| {
            row.sort_unstable();
            dedup_sorted_by_key(row, |&w| w)
        });
        // 4. Compact the deduplicated rows to the front, rewriting each
        //    `offsets[v]` after its old value has been read.
        let mut write = 0usize;
        for v in 0..n {
            let start = offsets[v];
            offsets[v] = write;
            neighbors.copy_within(start..start + lens[v], write);
            write += lens[v];
        }
        offsets[n] = write;
        neighbors.truncate(write);
        neighbors.shrink_to_fit();
        CsrGraph { offsets, neighbors }
    }

    /// Builds a graph directly from already-clean sorted adjacency arrays.
    /// Panics if any invariant (sortedness, symmetry, no self loops) fails.
    pub fn from_adjacency(adj: Vec<Vec<VertexId>>) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::new();
        for (v, nv) in adj.iter().enumerate() {
            assert!(
                nv.windows(2).all(|w| w[0] < w[1]),
                "neighborhood of {v} not strictly sorted"
            );
            assert!(!nv.contains(&(v as VertexId)), "self loop at {v}");
            neighbors.extend_from_slice(nv);
            offsets.push(neighbors.len());
        }
        let g = CsrGraph { offsets, neighbors };
        for v in 0..n as VertexId {
            for &u in g.neighbors(v) {
                assert!(
                    g.has_edge(u, v),
                    "asymmetric adjacency: {v}->{u} present, {u}->{v} missing"
                );
            }
        }
        g
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree `d_v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The sorted neighborhood `N_v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Membership query `u ∈ N_v` by binary search.
    #[inline]
    pub fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.neighbors(v).binary_search(&u).is_ok()
    }

    /// Maximum degree `d` (paper notation: Δ).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `d̄ = 2m / n`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Σ_v d(v)² — appears in the MinHash TC bound of Theorem VII.1.
    pub fn sum_degree_squares(&self) -> u64 {
        sum_u64(self.num_vertices(), |v| {
            let d = self.degree(v as VertexId) as u64;
            d * d
        })
    }

    /// Σ_v d(v)³ — appears in the refined MinHash TC bound of Theorem VII.1.
    pub fn sum_degree_cubes(&self) -> u64 {
        sum_u64(self.num_vertices(), |v| {
            let d = self.degree(v as VertexId) as u64;
            d * d * d
        })
    }

    /// The *forward* neighbors of `v`: the suffix of [`CsrGraph::neighbors`]
    /// with IDs strictly greater than `v`. Because [`CsrGraph::edge_list`]
    /// emits every edge once as `(u, v)` with `u < v`, sources ascending,
    /// the forward run of `u` is exactly `u`'s contiguous block of the
    /// edge list — which is what lets edge kernels batch per-source rows
    /// through `estimate_row` instead of looping edge-by-edge.
    #[inline]
    pub fn forward_neighbors(&self, v: VertexId) -> &[VertexId] {
        let nv = self.neighbors(v);
        &nv[nv.partition_point(|&w| w <= v)..]
    }

    /// Iterates every undirected edge exactly once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |v| {
            self.neighbors(v)
                .iter()
                .copied()
                .filter(move |&u| v < u)
                .map(move |u| (v, u))
        })
    }

    /// Collects [`CsrGraph::edges`] into a vector (handy for samplers).
    pub fn edge_list(&self) -> Vec<(VertexId, VertexId)> {
        self.edges().collect()
    }

    /// Bytes occupied by the CSR arrays — the baseline against which the
    /// paper's storage budget `s` (§V-A) is measured.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
    }
}

/// Runs `f` on every row of the flat array `data`, row `v` being
/// `data[offsets[v]..offsets[v + 1]]`, in parallel over rows, and returns
/// the results in row order. Panics unless `offsets` is non-decreasing and
/// ends within `data`.
pub(crate) fn map_rows_mut<T, R, F>(data: &mut [T], offsets: &[usize], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut [T]) -> R + Sync,
{
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets.last().is_none_or(|&end| end <= data.len()),
        "row offsets must be non-decreasing and end within the data"
    );
    struct Rows<T>(*mut T);
    // SAFETY: `Rows` points into `data`, which outlives the loop below, its
    // only use. Iteration v touches only row v, rows are pairwise disjoint
    // (checked above), and `parallel_init` runs each iteration once, so no
    // element is shared; `T: Send` lets the rows move between threads.
    unsafe impl<T: Send> Sync for Rows<T> {}
    let rows = Rows(data.as_mut_ptr());
    let rows = &rows;
    parallel_init(offsets.len().saturating_sub(1), |v| {
        let (s, e) = (offsets[v], offsets[v + 1]);
        // SAFETY: `s <= e <= data.len()` and no other iteration touches
        // `s..e` (see `Rows`).
        f(unsafe { std::slice::from_raw_parts_mut(rows.0.add(s), e - s) })
    })
}

/// Moves the first element of every run of equal `key`s in sorted `row` to
/// the front, in order, and returns how many there are.
pub(crate) fn dedup_sorted_by_key<T: Copy, K: PartialEq>(
    row: &mut [T],
    key: impl Fn(&T) -> K,
) -> usize {
    let mut w = 0usize;
    for r in 0..row.len() {
        if w == 0 || key(&row[r]) != key(&row[w - 1]) {
            row[w] = row[r];
            w += 1;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.avg_degree(), 2.0);
    }

    #[test]
    fn ignores_self_loops_and_duplicates() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (3, 2), (2, 3), (3, 3)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::from_edges(5, &[(0, 1)]);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(4).is_empty());
        let empty = CsrGraph::from_edges(0, &[]);
        assert_eq!(empty.num_vertices(), 0);
        assert_eq!(empty.num_edges(), 0);
        assert_eq!(empty.avg_degree(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle();
        for v in 0..3 {
            for u in 0..3 {
                assert_eq!(g.has_edge(v, u), g.has_edge(u, v));
                assert_eq!(g.has_edge(v, u), v != u);
            }
        }
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let es = g.edge_list();
        assert_eq!(es.len(), g.num_edges());
        assert!(es.iter().all(|&(u, v)| u < v));
        let set: std::collections::HashSet<_> = es.iter().collect();
        assert_eq!(set.len(), es.len());
    }

    #[test]
    fn degree_sums() {
        let g = triangle();
        assert_eq!(g.sum_degree_squares(), 3 * 4);
        assert_eq!(g.sum_degree_cubes(), 3 * 8);
    }

    #[test]
    fn from_adjacency_roundtrip() {
        let g = triangle();
        let adj: Vec<Vec<VertexId>> = (0..3).map(|v| g.neighbors(v).to_vec()).collect();
        assert_eq!(CsrGraph::from_adjacency(adj), g);
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn from_adjacency_rejects_asymmetry() {
        CsrGraph::from_adjacency(vec![vec![1], vec![]]);
    }

    /// Reference builder: atomic degree counts and atomic per-row cursors
    /// on a parallel scatter.
    fn from_edges_atomic_reference(
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
    ) -> CsrGraph {
        use pg_parallel::parallel_for;
        use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
        let degrees: Vec<AtomicUsize> = (0..num_vertices).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(edges.len(), |i| {
            let (u, v) = edges[i];
            if u != v {
                degrees[u as usize].fetch_add(1, Ordering::Relaxed);
                degrees[v as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degrees {
            acc += d.load(Ordering::Relaxed);
            offsets.push(acc);
        }
        let cursors: Vec<AtomicUsize> = offsets[..num_vertices]
            .iter()
            .map(|&o| AtomicUsize::new(o))
            .collect();
        let slots: Vec<AtomicU32> = (0..acc).map(|_| AtomicU32::new(0)).collect();
        parallel_for(edges.len(), |i| {
            let (u, v) = edges[i];
            if u != v {
                let su = cursors[u as usize].fetch_add(1, Ordering::Relaxed);
                slots[su].store(v, Ordering::Relaxed);
                let sv = cursors[v as usize].fetch_add(1, Ordering::Relaxed);
                slots[sv].store(u, Ordering::Relaxed);
            }
        });
        let mut adj: Vec<Vec<VertexId>> = offsets
            .windows(2)
            .map(|w| {
                slots[w[0]..w[1]]
                    .iter()
                    .map(|s| s.load(Ordering::Relaxed))
                    .collect()
            })
            .collect();
        for row in &mut adj {
            row.sort_unstable();
            row.dedup();
        }
        CsrGraph::from_adjacency(adj)
    }

    /// The naive reference: every arc into one ordered set.
    fn btreeset_reference(n: usize, edges: &[(VertexId, VertexId)]) -> CsrGraph {
        let arcs: std::collections::BTreeSet<(VertexId, VertexId)> = edges
            .iter()
            .filter(|(u, v)| u != v)
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        let mut adj = vec![Vec::new(); n];
        for (u, v) in arcs {
            adj[u as usize].push(v);
        }
        CsrGraph::from_adjacency(adj)
    }

    fn random_multigraph(n: u32, m: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut s = seed;
        (0..m)
            .map(|_| {
                let a = pg_hash::splitmix64(&mut s);
                ((a % n as u64) as u32, ((a >> 32) % n as u64) as u32)
            })
            .collect()
    }

    #[test]
    fn from_edges_matches_btreeset_reference() {
        let star: Vec<_> = (1..40)
            .flat_map(|v| [(0, v), (v, 0), (0, v), (v, 0)])
            .collect();
        let loops = vec![(0, 0), (1, 1), (1, 2), (2, 2), (2, 1), (3, 3)];
        let isolated = vec![(2, 7), (7, 2), (4, 9)];
        let kron = crate::gen::kronecker(9, 8, 3).edge_list();
        let kron_both: Vec<_> = kron.iter().flat_map(|&(u, v)| [(v, u), (u, v)]).collect();
        type Case<'a> = (&'a str, usize, &'a [(VertexId, VertexId)]);
        let cases: [Case; 8] = [
            ("star, every arc twice both ways", 40, &star),
            ("self loops", 4, &loops),
            ("isolated vertices", 12, &isolated),
            ("n = 0", 0, &[]),
            ("n = 1", 1, &[]),
            ("n = 1, self loop", 1, &[(0, 0), (0, 0)]),
            ("kronecker", 512, &kron),
            ("kronecker, both orientations", 512, &kron_both),
        ];
        for threads in [1, 2] {
            for (name, n, edges) in cases {
                let g = pg_parallel::with_threads(threads, || CsrGraph::from_edges(n, edges));
                let want = btreeset_reference(n, edges);
                assert_eq!(g, want, "{name}, {threads} threads");
                assert_eq!(g.num_vertices(), n, "{name}");
                assert_eq!(g.offsets.capacity(), n + 1, "{name}: offsets capacity");
                assert_eq!(
                    g.neighbors.capacity(),
                    g.neighbors.len(),
                    "{name}: neighbors capacity"
                );
            }
        }
    }

    #[test]
    fn from_edges_matches_atomic_reference_on_random_multigraphs() {
        for (case, (n, m)) in [(1, 0), (2, 5), (50, 2_000), (500, 20_000), (3_000, 9_000)]
            .into_iter()
            .enumerate()
        {
            let edges = random_multigraph(n, m, 77 + case as u64);
            let want = from_edges_atomic_reference(n as usize, &edges);
            for threads in [1, 2] {
                let g =
                    pg_parallel::with_threads(threads, || CsrGraph::from_edges(n as usize, &edges));
                assert_eq!(g, want, "n={n} m={m} threads={threads}");
                assert_eq!(g.neighbors.capacity(), g.neighbors.len());
                assert_eq!(g.offsets.capacity(), n as usize + 1);
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // Build a medium random multigraph twice under different thread
        // counts; CSR output must be identical.
        let mut edges = Vec::new();
        let mut s = 12345u64;
        for _ in 0..20_000 {
            let a = pg_hash::splitmix64(&mut s);
            edges.push(((a % 500) as u32, ((a >> 32) % 500) as u32));
        }
        let g1 = pg_parallel::with_threads(1, || CsrGraph::from_edges(500, &edges));
        let g8 = pg_parallel::with_threads(8, || CsrGraph::from_edges(500, &edges));
        assert_eq!(g1, g8);
    }

    #[test]
    fn memory_accounting_positive() {
        let g = triangle();
        assert!(g.memory_bytes() >= 6 * 4);
    }
}
