//! # ProbGraph — approximate graph mining with probabilistic set representations
//!
//! A Rust reproduction of *"ProbGraph: High-Performance and High-Accuracy
//! Graph Mining with Probabilistic Set Representations"* (Besta et al.,
//! SC 2022). The key idea: vertex neighborhoods are sets, the hot operation
//! of many graph-mining algorithms is the set-intersection cardinality
//! `|N_u ∩ N_v|`, and replacing exact sorted-array intersections with
//! sketch-based estimators (Bloom filters, MinHash, KMV) buys large
//! speedups at a small, *theoretically bounded* accuracy cost.
//!
//! ## Quickstart (Listing 6 of the paper)
//!
//! ```
//! use pg_graph::gen;
//! use probgraph::{ProbGraph, PgConfig, Representation};
//!
//! let g = gen::kronecker(10, 16, 42);
//!
//! // Exact: CSR merge/galloping intersection.
//! let exact = probgraph::intersect::intersect_card(g.neighbors(3), g.neighbors(5));
//!
//! // ProbGraph: Bloom filters under a 25 % storage budget.
//! let pg = ProbGraph::build(&g, &PgConfig::new(Representation::Bloom { b: 2 }, 0.25));
//! let approx = pg.estimate_intersection(3, 5);
//!
//! // Both answer "how many common neighbors do 3 and 5 have?".
//! assert!((approx - exact as f64).abs() <= g.degree(3).max(g.degree(5)) as f64);
//! ```
//!
//! ## Modules
//!
//! * [`pg`] — the [`ProbGraph`] representation: per-neighborhood sketches
//!   under a storage budget `s` (§V).
//! * [`oracle`] — the monomorphized intersection-oracle layer: one
//!   [`IntersectionOracle`] trait implemented by exact CSR adjacency and
//!   every sketch (Bloom×{AND, Limit, OR}, k-hash, 1-hash, KMV, HLL);
//!   [`ProbGraph::with_oracle`] hoists the representation dispatch out of
//!   every per-edge loop.
//! * [`intersect`] — exact merge & galloping kernels (Fig. 1 panel 2).
//! * [`algorithms`] — Triangle Counting (Listing 1), 4-Clique Counting
//!   (Listing 2), Vertex Similarity (Listing 3), Jarvis–Patrick Clustering
//!   (Listing 4), Link Prediction (Listing 5) — each in exact and
//!   PG-accelerated form.
//! * [`baselines`] — the comparison schemes of §VIII: Doulion, Colorful
//!   TC, Reduced Execution, Partial Graph Processing, AutoApprox.
//! * [`tc_estimator`] — the §VII triangle-count estimators `T̂C_⋆` and
//!   their Theorem VII.1 bounds, instantiated with graph quantities.
//! * [`accuracy`] — relative-count / relative-error metrics of §VIII-A.
//! * [`workdepth`] — operation-count instrumentation validating the
//!   work/depth claims of Tables IV–VI.
//! * [`snapshot`] — durable checksummed on-disk snapshots of a
//!   [`ProbGraph`]: atomic saves, fault-attributing validated loads, and
//!   warm restarts that continue bit-identically — plus zero-copy loads
//!   (borrowed buffers and mmap) serving the same bits in place.
//! * [`exchange`] (Unix) — real multi-process neighborhood exchange over
//!   Unix sockets for distributed triangle counting (§VIII-F): snapshot
//!   wire format, per-(vertex, part) deduped ship sets, typed faults,
//!   bit-equal distributed counts.

pub mod accuracy;
pub mod algorithms;
pub mod baselines;
#[cfg(unix)]
pub mod exchange;
pub mod grain;
pub mod intersect;
pub mod oracle;
pub mod pg;
pub mod serving;
pub mod snapshot;
pub mod tc_estimator;
pub mod workdepth;

pub use accuracy::{relative_count, relative_error};
#[cfg(unix)]
pub use exchange::{
    run_exchange, single_process_partials, ExchangeError, ExchangeOptions, ExchangeReport, Fault,
};
pub use grain::{plan_for, TilePlan};
pub use oracle::{
    ExactOracle, IntersectionOracle, MutableOracle, OracleVisitor, UnsupportedOperation,
};
pub use pg::{
    BfEstimator, Edge, PgConfig, ProbGraph, ProbGraphIn, Representation, SketchStore, SketchStoreIn,
};
pub use serving::{ServingReader, ShardedProbGraph};
#[cfg(unix)]
pub use snapshot::{load_snapshot_mmap, SnapshotMapping};
pub use snapshot::{AlignedBytes, SnapshotError, SnapshotReport};
