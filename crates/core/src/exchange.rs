//! # exchange — multi-process sketch exchange over the snapshot wire format
//!
//! The ProbGraph paper's communication-volume argument (§V-C) is that a
//! distributed graph-mining round ships **sketches** of boundary
//! neighborhoods instead of the exact adjacency lists, cutting the bytes on
//! the wire by the sketch-compression factor. This module makes that claim
//! measurable instead of modeled: it partitions a degree-oriented DAG by an
//! externally supplied assignment, forks one **worker process per part**
//! connected by Unix-domain socket pairs, runs one neighborhood-exchange
//! round, and has every worker compute its partial of the distributed
//! triangle count — while counting the actual bytes crossing each socket.
//!
//! ## What is shipped, and the dedupe rule
//!
//! Worker `q` sends worker `r` the **ship set**
//! `S(q→r) = { u : parts[u] = q and u ∈ N⁺(v) for some v with parts[v] = r }`
//! — each boundary vertex appears **once per (vertex, remote part)**, no
//! matter how many cut edges reference it. Both the sketch round and the
//! exact-adjacency round (shipped in the same exchange so the reduction is
//! measured on identical traffic patterns) use the same ship sets, so the
//! measured reduction isolates the per-set payload size.
//!
//! ## Wire format
//!
//! Payloads are the **snapshot format** of [`crate::snapshot`]: worker `q`
//! slices `S(q→r)` into chunks of [`ExchangeOptions::chunk_sets`] rows,
//! rebuilds each chunk's sub-store with
//! [`ProbGraph::build_rows_stratified`] under the rows' own stratum
//! params (per-row sketch builds are independent, so the rows are
//! bit-identical to the coordinator's full build under the same params
//! and seed), and ships
//! `snapshot_to_bytes` of it. Receivers land each payload in an
//! [`AlignedBytes`] buffer and validate it with the hostile-bytes loader
//! ([`ProbGraphIn::from_snapshot_bytes_borrowed`]) — zero-copy, typed
//! errors, never a panic — then cross-check params, seed, estimator, row
//! count, and recorded set sizes against the expected chunk.
//!
//! Every payload is preceded by a 40-byte frame header:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `"PGXF"` |
//! | 4      | 4    | sender part (u32 LE) |
//! | 8      | 4    | receiver part (u32 LE) |
//! | 12     | 4    | payload kind: 0 = sketch snapshot, 1 = exact rows |
//! | 16     | 4    | chunk index |
//! | 20     | 4    | total chunks for this (pair, kind); 0 = empty ship set |
//! | 24     | 8    | payload length in bytes (u64 LE) |
//! | 32     | 8    | xxh64 checksum of bytes 0..32 |
//!
//! An empty ship set still costs one frame (`n_chunks = 0`, no payload) so
//! the pair handshake stays uniform.
//!
//! ## Determinism
//!
//! Partial counts are summed **sequentially over owned vertices in
//! ascending id order**, and the coordinator sums partials in part order.
//! [`single_process_partials`] replays the identical grouping in one
//! process, so the distributed total is asserted **bit-equal** to the
//! single-process estimate — not merely close.
//!
//! ## Deadlock freedom
//!
//! Each worker walks its peers in ascending part id; within a pair the
//! lower part sends first. Every worker therefore visits pairs in global
//! lexicographic `(min, max)` order, so the smallest uncompleted pair
//! always has both endpoints ready — no waiting cycle can form. Socket
//! read/write timeouts ([`ExchangeOptions::timeout`]) are the backstop for
//! crashed peers, and the coordinator closing its copies of the mesh makes
//! a dead worker's sockets read as EOF rather than hang. A worker stuck
//! outside socket I/O is killed once the same timeout has passed after
//! the result reads, and surfaces as [`ExchangeError::WorkerExit`].

use crate::oracle::{IntersectionOracle, OracleVisitor};
use crate::pg::{BfEstimator, ProbGraph, ProbGraphIn};
use crate::snapshot::{AlignedBytes, SnapshotError};
use pg_graph::OrientedDag;
use pg_hash::xxh64;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pg_sketch::StratifiedParams;

/// Frame magic: "PGXF" (ProbGraph eXchange Frame).
pub const FRAME_MAGIC: [u8; 4] = *b"PGXF";
/// Fixed frame header length in bytes.
pub const FRAME_HEADER_LEN: usize = 40;
/// Seed for the header checksum (shared with the snapshot format).
pub const FRAME_CHECKSUM_SEED: u64 = crate::snapshot::CHECKSUM_SEED;
/// Hard cap on a single frame payload — a hostile or corrupted length
/// field must not drive a multi-gigabyte allocation.
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 31;
/// Default number of sketch rows per payload chunk.
pub const DEFAULT_CHUNK_SETS: usize = 512;

/// Worker exit codes (observable through [`ExchangeError::WorkerExit`]).
const EXIT_KILLED: i32 = 43;
const EXIT_TRUNCATED: i32 = 44;
const EXIT_PANIC: i32 = 101;
const EXIT_REPORT_FAILED: i32 = 102;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadKind {
    /// A snapshot-format sketch sub-store chunk.
    Sketch = 0,
    /// Exact adjacency rows (`encode_exact_rows`).
    ExactRows = 1,
}

/// Parsed frame header (see the module-level wire-format table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Sending part id.
    pub from: u32,
    /// Receiving part id.
    pub to: u32,
    /// Payload kind (0 = sketch, 1 = exact rows).
    pub kind: u32,
    /// Chunk index within this (pair, kind).
    pub chunk: u32,
    /// Total chunks for this (pair, kind); 0 means an empty ship set.
    pub n_chunks: u32,
    /// Payload length in bytes.
    pub payload_len: u64,
}

/// Encodes a frame header into its 40-byte wire form.
pub fn encode_frame_header(h: &FrameHeader) -> [u8; FRAME_HEADER_LEN] {
    let mut out = [0u8; FRAME_HEADER_LEN];
    out[0..4].copy_from_slice(&FRAME_MAGIC);
    out[4..8].copy_from_slice(&h.from.to_le_bytes());
    out[8..12].copy_from_slice(&h.to.to_le_bytes());
    out[12..16].copy_from_slice(&h.kind.to_le_bytes());
    out[16..20].copy_from_slice(&h.chunk.to_le_bytes());
    out[20..24].copy_from_slice(&h.n_chunks.to_le_bytes());
    out[24..32].copy_from_slice(&h.payload_len.to_le_bytes());
    let sum = xxh64(&out[..32], FRAME_CHECKSUM_SEED);
    out[32..40].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Parses and validates a 40-byte frame header: magic, checksum, and the
/// payload-length cap. Never panics on hostile bytes.
pub fn parse_frame_header(bytes: &[u8; FRAME_HEADER_LEN]) -> Result<FrameHeader, ExchangeError> {
    if bytes[0..4] != FRAME_MAGIC {
        return Err(ExchangeError::Frame("bad frame magic".into()));
    }
    let stored = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
    if xxh64(&bytes[..32], FRAME_CHECKSUM_SEED) != stored {
        return Err(ExchangeError::Frame(
            "frame header checksum mismatch".into(),
        ));
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    let h = FrameHeader {
        from: u32_at(4),
        to: u32_at(8),
        kind: u32_at(12),
        chunk: u32_at(16),
        n_chunks: u32_at(20),
        payload_len: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
    };
    if h.kind > PayloadKind::ExactRows as u32 {
        return Err(ExchangeError::Frame(format!(
            "unknown payload kind {}",
            h.kind
        )));
    }
    if h.payload_len > MAX_FRAME_PAYLOAD {
        return Err(ExchangeError::Frame(format!(
            "payload length {} exceeds cap {}",
            h.payload_len, MAX_FRAME_PAYLOAD
        )));
    }
    if h.n_chunks == 0 && (h.chunk != 0 || h.payload_len != 0) {
        return Err(ExchangeError::Frame(
            "empty-ship-set frame must have chunk 0 and no payload".into(),
        ));
    }
    if h.n_chunks > 0 && h.chunk >= h.n_chunks {
        return Err(ExchangeError::Frame(format!(
            "chunk index {} out of range (n_chunks {})",
            h.chunk, h.n_chunks
        )));
    }
    Ok(h)
}

/// Writes one frame (header + payload) to `w`.
pub fn write_frame(w: &mut impl Write, h: &FrameHeader, payload: &[u8]) -> io::Result<()> {
    debug_assert_eq!(h.payload_len as usize, payload.len());
    w.write_all(&encode_frame_header(h))?;
    w.write_all(payload)
}

/// Reads one frame from `r`: header validation first, then the payload
/// into an 8-byte-aligned buffer ready for zero-copy snapshot decoding.
/// Truncation anywhere — mid-header or mid-payload — surfaces as a typed
/// [`ExchangeError`], never a panic.
pub fn read_frame(r: &mut impl Read) -> Result<(FrameHeader, AlignedBytes), ExchangeError> {
    let mut hdr = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut hdr)
        .map_err(|e| ExchangeError::Frame(format!("truncated frame header: {e}")))?;
    let h = parse_frame_header(&hdr)?;
    let mut payload = AlignedBytes::zeroed(h.payload_len as usize);
    r.read_exact(&mut payload)
        .map_err(|e| ExchangeError::Frame(format!("truncated frame payload: {e}")))?;
    Ok((h, payload))
}

/// Encodes the exact-adjacency payload for `rows`:
/// `[n_rows u32][len_i u32 × n][neighbors u32 × Σ len_i]`, little-endian.
/// This is the baseline the sketch round is measured against — same ship
/// sets, exact `N⁺` lists instead of sketches.
pub fn encode_exact_rows(dag: &OrientedDag, rows: &[u32]) -> Vec<u8> {
    let total: usize = rows.iter().map(|&u| dag.out_degree(u)).sum();
    let mut out = Vec::with_capacity(4 + 4 * rows.len() + 4 * total);
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for &u in rows {
        out.extend_from_slice(&(dag.out_degree(u) as u32).to_le_bytes());
    }
    for &u in rows {
        for &v in dag.neighbors_plus(u) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Validates an exact-rows payload against the rows the receiver expects:
/// row count, per-row lengths, and the neighbor ids themselves.
pub fn check_exact_rows(
    payload: &[u8],
    dag: &OrientedDag,
    rows: &[u32],
) -> Result<(), ExchangeError> {
    let bad = |d: String| Err(ExchangeError::Frame(d));
    if payload.len() < 4 {
        return bad("exact payload shorter than its row count".into());
    }
    let n = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    if n != rows.len() {
        return bad(format!(
            "exact payload has {n} rows, expected {}",
            rows.len()
        ));
    }
    let lens_end = 4 + 4 * n;
    if payload.len() < lens_end {
        return bad("exact payload truncated in length table".into());
    }
    let mut off = lens_end;
    for (i, &u) in rows.iter().enumerate() {
        let len = u32::from_le_bytes(payload[4 + 4 * i..8 + 4 * i].try_into().unwrap()) as usize;
        if len != dag.out_degree(u) {
            return bad(format!(
                "exact row {u} has length {len}, expected {}",
                dag.out_degree(u)
            ));
        }
        if payload.len() < off + 4 * len {
            return bad("exact payload truncated in neighbor data".into());
        }
        for (j, &v) in dag.neighbors_plus(u).iter().enumerate() {
            let got = u32::from_le_bytes(payload[off + 4 * j..off + 4 * j + 4].try_into().unwrap());
            if got != v {
                return bad(format!("exact row {u} neighbor {j} is {got}, expected {v}"));
            }
        }
        off += 4 * len;
    }
    if off != payload.len() {
        return bad(format!(
            "exact payload has {} trailing bytes",
            payload.len() - off
        ));
    }
    Ok(())
}

/// Why an exchange failed. Every fault mode — truncated streams, corrupt
/// payloads, dead workers — maps to one of these; the coordinator never
/// panics and never leaks a child process.
#[derive(Debug)]
pub enum ExchangeError {
    /// An OS-level I/O failure (socket, fork).
    Io(io::Error),
    /// A malformed or truncated frame.
    Frame(String),
    /// A payload failed snapshot validation on the receiving side.
    Payload {
        /// The part whose payload failed validation.
        from: u32,
        /// What the validator rejected.
        detail: String,
    },
    /// A worker reported a typed failure over its coordinator link.
    Worker {
        /// The failing part.
        part: u32,
        /// The worker's error description.
        detail: String,
    },
    /// A worker exited without reporting a result.
    WorkerExit {
        /// The part that died.
        part: u32,
        /// Its exit code (negative = killed by that signal number).
        code: i32,
    },
    /// The two sides of the exchange disagree about what happened.
    Protocol(String),
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::Io(e) => write!(f, "exchange i/o error: {e}"),
            ExchangeError::Frame(d) => write!(f, "bad frame: {d}"),
            ExchangeError::Payload { from, detail } => {
                write!(f, "invalid payload from part {from}: {detail}")
            }
            ExchangeError::Worker { part, detail } => {
                write!(f, "worker {part} failed: {detail}")
            }
            ExchangeError::WorkerExit { part, code } => {
                write!(
                    f,
                    "worker {part} exited with code {code} before reporting a result"
                )
            }
            ExchangeError::Protocol(d) => write!(f, "protocol violation: {d}"),
        }
    }
}

impl std::error::Error for ExchangeError {}

impl From<io::Error> for ExchangeError {
    fn from(e: io::Error) -> Self {
        ExchangeError::Io(e)
    }
}

impl From<SnapshotError> for ExchangeError {
    fn from(e: SnapshotError) -> Self {
        ExchangeError::Payload {
            from: u32::MAX,
            detail: e.to_string(),
        }
    }
}

/// Fault injection for the exchange fault suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The given part exits before sending anything; peers see EOF.
    KillWorker {
        /// The part to kill.
        part: u32,
    },
    /// The given part flips a bit mid-payload in its first outgoing sketch
    /// chunk; the receiver's snapshot validation must reject it.
    CorruptPayload {
        /// The corrupting part.
        part: u32,
    },
    /// The given part sends a frame header, half the payload, then dies.
    TruncateStream {
        /// The truncating part.
        part: u32,
    },
    /// The given part parks forever before touching the mesh, like a
    /// worker blocked on a lock that was held when it was forked; the
    /// coordinator must kill it.
    StallWorker {
        /// The stalling part.
        part: u32,
    },
}

/// Tuning and fault-injection knobs for [`run_exchange`].
#[derive(Clone, Debug)]
pub struct ExchangeOptions {
    /// Sketch rows per payload chunk (≥ 1).
    pub chunk_sets: usize,
    /// Socket read/write timeout — the backstop against hung peers — and
    /// how long the coordinator waits, after the result reads, for the
    /// workers to exit before it kills them.
    pub timeout: Duration,
    /// Optional injected fault.
    pub fault: Option<Fault>,
}

impl Default for ExchangeOptions {
    fn default() -> Self {
        ExchangeOptions {
            chunk_sets: DEFAULT_CHUNK_SETS,
            timeout: Duration::from_secs(30),
            fault: None,
        }
    }
}

/// What a successful exchange measured.
#[derive(Clone, Debug)]
pub struct ExchangeReport {
    /// Number of parts (worker processes).
    pub parts: usize,
    /// Per-part partial triangle counts, in part order.
    pub partials: Vec<f64>,
    /// Sum of the partials in part order — bit-equal to
    /// [`single_process_partials`] summed the same way.
    pub distributed_tc: f64,
    /// Bytes actually written to the socket for sketch frames, per
    /// `[from][to]` ordered part pair (frame headers included).
    pub sketch_pair_bytes: Vec<Vec<u64>>,
    /// Same, for the exact-adjacency frames.
    pub exact_pair_bytes: Vec<Vec<u64>>,
}

impl ExchangeReport {
    /// Total sketch bytes across all ordered pairs.
    pub fn sketch_total(&self) -> u64 {
        self.sketch_pair_bytes.iter().flatten().sum()
    }

    /// Total exact-adjacency bytes across all ordered pairs.
    pub fn exact_total(&self) -> u64 {
        self.exact_pair_bytes.iter().flatten().sum()
    }

    /// Measured communication reduction `exact / sketch`. When **both**
    /// totals are zero (single part, or an edgeless graph) there is no
    /// communication to reduce and the ratio is defined as `1.0`.
    pub fn reduction(&self) -> f64 {
        let exact = self.exact_total();
        let sketch = self.sketch_total();
        if exact == 0 && sketch == 0 {
            return 1.0;
        }
        exact as f64 / sketch as f64
    }
}

/// Computes every ship set `S(q→r)` in one `O(m log m)` pass:
/// `out[q][r]` is the ascending, deduplicated list of vertices owned by
/// `q` that appear in the `N⁺` row of at least one vertex owned by `r`.
/// Diagonal entries are empty.
pub fn ship_sets(dag: &OrientedDag, parts: &[u32], p: usize) -> Vec<Vec<Vec<u32>>> {
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); p * p];
    for v in 0..dag.num_vertices() {
        let r = parts[v] as usize;
        for &u in dag.neighbors_plus(v as u32) {
            let q = parts[u as usize] as usize;
            if q != r {
                buckets[q * p + r].push(u);
            }
        }
    }
    for b in &mut buckets {
        b.sort_unstable();
        b.dedup();
    }
    let mut out: Vec<Vec<Vec<u32>>> = Vec::with_capacity(p);
    let mut it = buckets.into_iter();
    for _ in 0..p {
        out.push((&mut it).take(p).collect());
    }
    out
}

/// The single-process replay of the distributed grouping: partial `r` is
/// the sequential sum over vertices owned by `r` in ascending id order of
/// that row's clamped estimates. Summing the returned vector in order is
/// **bit-equal** to [`ExchangeReport::distributed_tc`] for the same
/// inputs, because every per-row estimate depends only on the two
/// sketches and the recorded sizes — which the workers rebuild
/// bit-identically — and the accumulation order is identical.
pub fn single_process_partials(
    dag: &OrientedDag,
    pg: &ProbGraph,
    parts: &[u32],
    p: usize,
) -> Vec<f64> {
    struct V<'a> {
        dag: &'a OrientedDag,
        parts: &'a [u32],
        p: usize,
    }
    impl OracleVisitor for V<'_> {
        type Output = Vec<f64>;
        fn visit<O: IntersectionOracle>(self, o: &O) -> Vec<f64> {
            let mut partials = vec![0.0f64; self.p];
            let mut row = Vec::new();
            for v in 0..self.dag.num_vertices() {
                let np = self.dag.neighbors_plus(v as u32);
                o.estimate_row(v as u32, np, &mut row);
                partials[self.parts[v] as usize] += row.iter().fold(0.0f64, |s, &e| s + e.max(0.0));
            }
            partials
        }
    }
    // Ascending-id iteration visits each part's owned vertices in the same
    // ascending order the workers use, so per-part sums match bit for bit.
    pg.with_oracle(V { dag, parts, p })
}

mod sys {
    use std::os::raw::c_int;
    extern "C" {
        pub fn fork() -> c_int;
        pub fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn _exit(code: c_int) -> !;
    }
    pub const WNOHANG: c_int = 1;
    pub const SIGKILL: c_int = 9;
}

/// Decoded worker result blob ("PGXR" over the coordinator link).
struct WorkerResult {
    ok: bool,
    partial: f64,
    sketch_sent: Vec<u64>,
    exact_sent: Vec<u64>,
    sketch_recv: Vec<u64>,
    exact_recv: Vec<u64>,
    err: String,
}

const RESULT_MAGIC: [u8; 4] = *b"PGXR";

fn write_result(w: &mut impl Write, part: u32, p: usize, r: &WorkerResult) -> io::Result<()> {
    let mut out = Vec::with_capacity(24 + 32 * p + r.err.len());
    out.extend_from_slice(&RESULT_MAGIC);
    out.extend_from_slice(&part.to_le_bytes());
    out.extend_from_slice(&(r.ok as u32).to_le_bytes());
    out.extend_from_slice(&r.partial.to_bits().to_le_bytes());
    for arr in [&r.sketch_sent, &r.exact_sent, &r.sketch_recv, &r.exact_recv] {
        debug_assert_eq!(arr.len(), p);
        for &b in arr.iter() {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
    out.extend_from_slice(&(r.err.len() as u32).to_le_bytes());
    out.extend_from_slice(r.err.as_bytes());
    let sum = xxh64(&out, FRAME_CHECKSUM_SEED);
    out.extend_from_slice(&sum.to_le_bytes());
    w.write_all(&out)
}

fn read_result(
    r: &mut impl Read,
    expect_part: u32,
    p: usize,
) -> Result<WorkerResult, ExchangeError> {
    let mut fixed = vec![0u8; 20 + 32 * p + 4];
    r.read_exact(&mut fixed)
        .map_err(|e| ExchangeError::Frame(format!("truncated worker result: {e}")))?;
    if fixed[0..4] != RESULT_MAGIC {
        return Err(ExchangeError::Frame("bad worker result magic".into()));
    }
    let u32_at = |b: &[u8], o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap());
    let u64_at = |b: &[u8], o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
    let part = u32_at(&fixed, 4);
    if part != expect_part {
        return Err(ExchangeError::Protocol(format!(
            "result from part {part} arrived on part {expect_part}'s link"
        )));
    }
    let ok = u32_at(&fixed, 8) != 0;
    let partial = f64::from_bits(u64_at(&fixed, 12));
    let mut arrays: Vec<Vec<u64>> = Vec::with_capacity(4);
    let mut off = 20;
    for _ in 0..4 {
        let mut a = Vec::with_capacity(p);
        for _ in 0..p {
            a.push(u64_at(&fixed, off));
            off += 8;
        }
        arrays.push(a);
    }
    let err_len = u32_at(&fixed, off) as usize;
    if err_len > 1 << 20 {
        return Err(ExchangeError::Frame(format!(
            "worker error message of {err_len} bytes"
        )));
    }
    let mut tail = vec![0u8; err_len + 8];
    r.read_exact(&mut tail)
        .map_err(|e| ExchangeError::Frame(format!("truncated worker result: {e}")))?;
    let body_len = fixed.len() + err_len;
    let mut body = fixed;
    body.extend_from_slice(&tail[..err_len]);
    debug_assert_eq!(body.len(), body_len);
    let stored = u64::from_le_bytes(tail[err_len..].try_into().unwrap());
    if xxh64(&body, FRAME_CHECKSUM_SEED) != stored {
        return Err(ExchangeError::Frame(
            "worker result checksum mismatch".into(),
        ));
    }
    let err = String::from_utf8_lossy(&body[body.len() - err_len..]).into_owned();
    let mut it = arrays.into_iter();
    Ok(WorkerResult {
        ok,
        partial,
        sketch_sent: it.next().unwrap(),
        exact_sent: it.next().unwrap(),
        sketch_recv: it.next().unwrap(),
        exact_recv: it.next().unwrap(),
        err,
    })
}

/// Everything a worker needs; inherited through `fork`, so no
/// serialization of the graph itself is ever required.
struct Ctx<'a> {
    dag: &'a OrientedDag,
    p: usize,
    /// The coordinator's resolved parameter table; workers select the
    /// global assignment over whatever rows they rebuild, so every
    /// sub-store row stays bit-identical to the coordinator's.
    params: &'a StratifiedParams,
    est: BfEstimator,
    seed: u64,
    opts: &'a ExchangeOptions,
    /// `ship[q][r]` = S(q→r), precomputed once before forking.
    ship: &'a [Vec<Vec<u32>>],
    /// `owned[r]` = ascending list of vertices assigned to part `r`.
    owned: &'a [Vec<u32>],
}

impl Ctx<'_> {
    /// Rebuilds the sub-store for an arbitrary row subset `rows` under the
    /// coordinator's parameter table, so each row's sketch is
    /// bit-identical to the coordinator's row for the same vertex.
    fn build_rows_of(&self, rows: &[u32]) -> ProbGraph {
        ProbGraph::build_rows_stratified(
            rows.len(),
            self.params.select(rows.iter().map(|&u| u as usize)),
            self.est,
            self.seed,
            |i| self.dag.neighbors_plus(rows[i]),
        )
    }
}

/// Runs one distributed neighborhood-exchange round with `p` forked
/// worker processes and returns the measured report. `parts[v]` assigns
/// vertex `v` to a part in `0..p`; `pg` must be the sketch store built
/// over `dag`'s `N⁺` rows (its params/seed/estimator are what the workers
/// rebuild their sub-stores under).
///
/// The caller may be multithreaded, and a forked worker holds only the
/// forking thread. So anything a worker initializes lazily must be
/// resolved before the fork: a lazy cell that another thread is
/// initializing at fork time stays "in progress" in the child forever,
/// and the worker that touches it blocks until it is killed.
pub fn run_exchange(
    dag: &OrientedDag,
    pg: &ProbGraph,
    parts: &[u32],
    p: usize,
    opts: &ExchangeOptions,
) -> Result<ExchangeReport, ExchangeError> {
    let n = dag.num_vertices();
    if p == 0 {
        return Err(ExchangeError::Protocol("p must be at least 1".into()));
    }
    if parts.len() != n || pg.len() != n {
        return Err(ExchangeError::Protocol(format!(
            "inconsistent sizes: dag {n}, parts {}, pg {}",
            parts.len(),
            pg.len()
        )));
    }
    if let Some(&bad) = parts.iter().find(|&&x| x as usize >= p) {
        return Err(ExchangeError::Protocol(format!(
            "part id {bad} out of range 0..{p}"
        )));
    }

    let ship = ship_sets(dag, parts, p);
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); p];
    for v in 0..n {
        owned[parts[v] as usize].push(v as u32);
    }
    let ctx = Ctx {
        dag,
        p,
        params: pg.resolved_params(),
        est: pg.bf_estimator(),
        seed: pg.seed(),
        opts,
        ship: &ship,
        owned: &owned,
    };

    // Socket mesh: one pair per unordered part pair, plus a coordinator
    // link per worker. All ends get timeouts before any fork.
    let mut mesh: Vec<Option<(UnixStream, UnixStream)>> = Vec::new();
    mesh.resize_with(p * p, || None);
    for q in 0..p {
        for r in (q + 1)..p {
            let (a, b) = UnixStream::pair()?;
            for s in [&a, &b] {
                s.set_read_timeout(Some(opts.timeout))?;
                s.set_write_timeout(Some(opts.timeout))?;
            }
            mesh[q * p + r] = Some((a, b));
        }
    }
    let mut coord: Vec<Option<(UnixStream, UnixStream)>> = Vec::new();
    for _ in 0..p {
        let (a, b) = UnixStream::pair()?;
        a.set_read_timeout(Some(opts.timeout))?;
        coord.push(Some((a, b)));
    }

    // The workers' row sweeps and prefetches read the probed cache
    // topology, a `OnceLock`. Resolve it here: forking while another
    // thread of this process runs the probe would leave the cell in
    // progress in every child, and each worker would block on it forever.
    pg_parallel::cache_topology();

    let mut pids: Vec<i32> = Vec::with_capacity(p);
    for r in 0..p {
        // SAFETY: plain fork; the child only touches memory it inherited
        // and exits via `_exit`, never unwinding into the parent's stack.
        let pid = unsafe { sys::fork() };
        if pid < 0 {
            // Reap whatever was already forked before bailing out.
            for &pid in &pids {
                unsafe {
                    let mut status = 0;
                    sys::waitpid(pid, &mut status, 0);
                }
            }
            return Err(ExchangeError::Io(io::Error::last_os_error()));
        }
        if pid == 0 {
            // Child: extract this part's socket ends, close everything
            // else (EOF detection for peers relies on it), run, exit.
            let mut peers: Vec<Option<UnixStream>> = Vec::new();
            peers.resize_with(p, || None);
            for (idx, slot) in mesh.iter_mut().enumerate() {
                let (q0, r0) = (idx / p, idx % p);
                if let Some((a, b)) = slot.take() {
                    if q0 == r {
                        peers[r0] = Some(a);
                    } else if r0 == r {
                        peers[q0] = Some(b);
                    }
                    // Non-matching ends drop here, closing the fds.
                }
            }
            let mut link = None;
            for (idx, slot) in coord.iter_mut().enumerate() {
                if let Some((a, b)) = slot.take() {
                    drop(a);
                    if idx == r {
                        link = Some(b);
                    }
                }
            }
            let code = worker_entry(r as u32, &ctx, peers, link.expect("own coordinator link"));
            unsafe { sys::_exit(code) }
        }
        pids.push(pid);
    }

    // Parent: close the whole mesh and the child ends of the links.
    drop(mesh);
    let mut links: Vec<UnixStream> = Vec::with_capacity(p);
    for slot in &mut coord {
        let (a, b) = slot.take().expect("link not yet consumed");
        drop(b);
        links.push(a);
    }

    let mut results: Vec<Option<Result<WorkerResult, ExchangeError>>> = Vec::new();
    for (r, link) in links.iter_mut().enumerate() {
        results.push(Some(read_result(link, r as u32, p)));
    }
    drop(links);

    // Always reap every child — no zombies, no leaked processes, whatever
    // the outcome. Socket timeouts bound a worker's I/O but not a stall
    // elsewhere (a lock another thread held at fork time is never released
    // in the child), so a worker still running `opts.timeout` after the
    // result reads is killed and reports `-SIGKILL`.
    let deadline = Instant::now() + opts.timeout;
    let mut codes: Vec<i32> = Vec::with_capacity(p);
    for &pid in &pids {
        let mut status: i32 = 0;
        // SAFETY: waitpid and kill on a child we forked and have not yet
        // reaped, so the pid cannot have been reused.
        let got = unsafe {
            loop {
                let got = sys::waitpid(pid, &mut status, sys::WNOHANG);
                if got != 0 {
                    break got;
                }
                if Instant::now() >= deadline {
                    sys::kill(pid, sys::SIGKILL);
                    break sys::waitpid(pid, &mut status, 0);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        codes.push(if got < 0 {
            EXIT_REPORT_FAILED
        } else if status & 0x7f == 0 {
            (status >> 8) & 0xff
        } else {
            -(status & 0x7f)
        });
    }

    // A worker that died without reporting is the root cause; surface it
    // ahead of the secondary errors its peers saw.
    for (r, (res, &code)) in results.iter().zip(codes.iter()).enumerate() {
        if matches!(res, Some(Err(_))) && code != 0 {
            return Err(ExchangeError::WorkerExit {
                part: r as u32,
                code,
            });
        }
    }
    for (r, slot) in results.iter_mut().enumerate() {
        match slot.take().expect("result slot filled above") {
            Ok(res) if res.ok => *slot = Some(Ok(res)),
            Ok(res) => {
                return Err(ExchangeError::Worker {
                    part: r as u32,
                    detail: res.err,
                });
            }
            Err(e) => {
                return Err(ExchangeError::Worker {
                    part: r as u32,
                    detail: format!("no result: {e}"),
                })
            }
        }
    }
    let results: Vec<WorkerResult> = results
        .into_iter()
        .map(|r| match r {
            Some(Ok(res)) => res,
            _ => unreachable!("all results checked ok above"),
        })
        .collect();

    // Assemble matrices from sender-side counts and cross-check them
    // against what the receivers measured.
    let mut sketch_pair = vec![vec![0u64; p]; p];
    let mut exact_pair = vec![vec![0u64; p]; p];
    for (q, res) in results.iter().enumerate() {
        for r in 0..p {
            sketch_pair[q][r] = res.sketch_sent[r];
            exact_pair[q][r] = res.exact_sent[r];
        }
    }
    for (r, res) in results.iter().enumerate() {
        for q in 0..p {
            if res.sketch_recv[q] != sketch_pair[q][r] || res.exact_recv[q] != exact_pair[q][r] {
                return Err(ExchangeError::Protocol(format!(
                    "byte counts disagree for pair {q}->{r}: sent ({}, {}), received ({}, {})",
                    sketch_pair[q][r], exact_pair[q][r], res.sketch_recv[q], res.exact_recv[q]
                )));
            }
        }
    }

    let partials: Vec<f64> = results.iter().map(|r| r.partial).collect();
    let distributed_tc = partials.iter().sum();
    Ok(ExchangeReport {
        parts: p,
        partials,
        distributed_tc,
        sketch_pair_bytes: sketch_pair,
        exact_pair_bytes: exact_pair,
    })
}

/// Child-process entry: runs the worker under `catch_unwind` so a bug can
/// never unwind back into the forked copy of the coordinator's stack, and
/// reports the outcome (or the typed error) over the coordinator link.
/// The panic hook stays as inherited: swapping it would take std's
/// process-wide hook lock, which another thread may have held at fork
/// time.
fn worker_entry(
    r: u32,
    ctx: &Ctx<'_>,
    peers: Vec<Option<UnixStream>>,
    mut link: UnixStream,
) -> i32 {
    let outcome = catch_unwind(AssertUnwindSafe(|| worker_run(r, ctx, peers)));
    let result = match outcome {
        Ok(Ok(res)) => res,
        Ok(Err(e)) => WorkerResult {
            ok: false,
            partial: 0.0,
            sketch_sent: vec![0; ctx.p],
            exact_sent: vec![0; ctx.p],
            sketch_recv: vec![0; ctx.p],
            exact_recv: vec![0; ctx.p],
            err: e.to_string(),
        },
        Err(_) => return EXIT_PANIC,
    };
    match write_result(&mut link, r, ctx.p, &result) {
        Ok(()) => 0,
        Err(_) => EXIT_REPORT_FAILED,
    }
}

/// The worker body for part `r`: rebuild the owned sub-store, pre-encode
/// outgoing chunks, run the pairwise exchange, validate what arrived,
/// gather the combined store, and compute this part's partial count.
fn worker_run(
    r: u32,
    ctx: &Ctx<'_>,
    mut peers: Vec<Option<UnixStream>>,
) -> Result<WorkerResult, ExchangeError> {
    let rr = r as usize;
    let p = ctx.p;
    let chunk = ctx.opts.chunk_sets.max(1);
    let my = &ctx.owned[rr];

    match ctx.opts.fault {
        // Die before touching the mesh; peers see EOF, the coordinator
        // sees an exit code and no result.
        Some(Fault::KillWorker { part }) if part == r => unsafe { sys::_exit(EXIT_KILLED) },
        // Never touch the mesh; peers time out, the coordinator kills it.
        Some(Fault::StallWorker { part }) if part == r => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        _ => {}
    }

    let own_pg = ctx.build_rows_of(my);

    // Pre-encode every outgoing payload so the exchange loop is pure I/O.
    let mut out_sketch: Vec<Vec<Vec<u8>>> = vec![Vec::new(); p];
    let mut out_exact: Vec<Vec<Vec<u8>>> = vec![Vec::new(); p];
    for q in 0..p {
        if q == rr {
            continue;
        }
        for rows in ctx.ship[rr][q].chunks(chunk) {
            let sub = ctx.build_rows_of(rows);
            out_sketch[q].push(sub.snapshot_to_bytes());
            out_exact[q].push(encode_exact_rows(ctx.dag, rows));
        }
    }

    if let Some(Fault::CorruptPayload { part }) = ctx.opts.fault {
        if part == r {
            let payload = out_sketch
                .iter_mut()
                .flat_map(|chunks| chunks.iter_mut())
                .find(|pl| !pl.is_empty());
            if let Some(pl) = payload {
                let mid = pl.len() / 2;
                pl[mid] ^= 0x40;
            }
        }
    }
    let truncate = matches!(ctx.opts.fault, Some(Fault::TruncateStream { part }) if part == r);

    let mut sketch_sent = vec![0u64; p];
    let mut exact_sent = vec![0u64; p];
    let mut sketch_recv = vec![0u64; p];
    let mut exact_recv = vec![0u64; p];
    let mut recv_bufs: Vec<Vec<AlignedBytes>> = Vec::new();
    recv_bufs.resize_with(p, Vec::new);

    // Ascending peer order, lower part sends first within a pair: every
    // worker visits pairs in global (min, max) lexicographic order, so the
    // smallest uncompleted pair always has both endpoints ready.
    for q in 0..p {
        if q == rr {
            continue;
        }
        let stream = peers[q].as_mut().expect("mesh stream for peer");
        if rr < q {
            send_to_peer(
                stream,
                r,
                q as u32,
                &out_sketch[q],
                &out_exact[q],
                &mut sketch_sent[q],
                &mut exact_sent[q],
                truncate,
            )?;
            recv_from_peer(
                stream,
                ctx,
                q as u32,
                r,
                &mut sketch_recv[q],
                &mut exact_recv[q],
                &mut recv_bufs[q],
            )?;
        } else {
            recv_from_peer(
                stream,
                ctx,
                q as u32,
                r,
                &mut sketch_recv[q],
                &mut exact_recv[q],
                &mut recv_bufs[q],
            )?;
            send_to_peer(
                stream,
                r,
                q as u32,
                &out_sketch[q],
                &out_exact[q],
                &mut sketch_sent[q],
                &mut exact_sent[q],
                truncate,
            )?;
        }
    }
    drop(peers);

    // Zero-copy validation of every received sketch chunk against the
    // rows this part expects from that sender.
    let mut remote_graphs: Vec<ProbGraphIn<'_>> = Vec::new();
    for (q, bufs) in recv_bufs.iter().enumerate() {
        if q == rr {
            continue;
        }
        let expect = &ctx.ship[q][rr];
        let mut row_off = 0usize;
        for buf in bufs {
            let sub = ProbGraphIn::from_snapshot_bytes_borrowed(buf).map_err(|e| {
                ExchangeError::Payload {
                    from: q as u32,
                    detail: format!("snapshot rejected: {e}"),
                }
            })?;
            let rows = &expect[row_off..(row_off + sub.len()).min(expect.len())];
            validate_remote_chunk(ctx, q as u32, &sub, rows)?;
            row_off += sub.len();
            remote_graphs.push(sub);
        }
        if row_off != expect.len() {
            return Err(ExchangeError::Payload {
                from: q as u32,
                detail: format!("received {row_off} rows, expected {}", expect.len()),
            });
        }
    }

    // Combined local graph: owned rows first, then each sender's ship set
    // in ascending part order — the same order the local id map assigns.
    let mut combined = ctx.build_rows_of(&[]);
    let mut parts = vec![&own_pg];
    parts.extend(&remote_graphs);
    combined.gather_from(&parts);

    let mut local_id = vec![u32::MAX; ctx.dag.num_vertices()];
    for (i, &v) in my.iter().enumerate() {
        local_id[v as usize] = i as u32;
    }
    let mut off = my.len() as u32;
    for q in 0..p {
        if q == rr {
            continue;
        }
        for &u in &ctx.ship[q][rr] {
            local_id[u as usize] = off;
            off += 1;
        }
    }

    struct PartialVisitor<'a> {
        dag: &'a OrientedDag,
        my: &'a [u32],
        local_id: &'a [u32],
    }
    impl OracleVisitor for PartialVisitor<'_> {
        type Output = f64;
        fn visit<O: IntersectionOracle>(self, o: &O) -> f64 {
            let mut acc = 0.0f64;
            let mut row = Vec::new();
            let mut targets: Vec<u32> = Vec::new();
            for (i, &v) in self.my.iter().enumerate() {
                targets.clear();
                targets.extend(
                    self.dag
                        .neighbors_plus(v)
                        .iter()
                        .map(|&u| self.local_id[u as usize]),
                );
                o.estimate_row(i as u32, &targets, &mut row);
                acc += row.iter().fold(0.0f64, |s, &e| s + e.max(0.0));
            }
            acc
        }
    }
    let partial = combined.with_oracle(PartialVisitor {
        dag: ctx.dag,
        my,
        local_id: &local_id,
    });

    Ok(WorkerResult {
        ok: true,
        partial,
        sketch_sent,
        exact_sent,
        sketch_recv,
        exact_recv,
        err: String::new(),
    })
}

/// Cross-checks a decoded remote chunk against what the receiver expects:
/// same params, seed, and estimator as its own build, the right number of
/// rows, and per-row sizes equal to the shipped vertices' out-degrees.
fn validate_remote_chunk(
    ctx: &Ctx<'_>,
    from: u32,
    sub: &ProbGraphIn<'_>,
    rows: &[u32],
) -> Result<(), ExchangeError> {
    let fail = |detail: String| Err(ExchangeError::Payload { from, detail });
    let want = ctx.params;
    if sub.params() != want.strata()[0] {
        return fail(format!(
            "params {:?} do not match {:?}",
            sub.params(),
            want.strata()[0]
        ));
    }
    if sub.seed() != ctx.seed {
        return fail(format!("seed {} does not match {}", sub.seed(), ctx.seed));
    }
    if sub.bf_estimator() != ctx.est {
        return fail("estimator variant mismatch".into());
    }
    if sub.len() != rows.len() {
        return fail(format!(
            "chunk has {} rows, expected {}",
            sub.len(),
            rows.len()
        ));
    }
    let got = sub.resolved_params();
    if got.strata() != want.strata() {
        return fail(format!(
            "stratum table {:?} does not match {:?}",
            got.strata(),
            want.strata()
        ));
    }
    for (i, &u) in rows.iter().enumerate() {
        let (g, w) = (got.stratum_of(i), want.stratum_of(u as usize));
        if g != w {
            return fail(format!("row {u} assigned stratum {g}, expected {w}"));
        }
    }
    for (i, &u) in rows.iter().enumerate() {
        if sub.set_size(i) != ctx.dag.out_degree(u) {
            return fail(format!(
                "row {u} has recorded size {}, expected out-degree {}",
                sub.set_size(i),
                ctx.dag.out_degree(u)
            ));
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn send_to_peer(
    stream: &mut UnixStream,
    from: u32,
    to: u32,
    sketch_chunks: &[Vec<u8>],
    exact_chunks: &[Vec<u8>],
    sketch_sent: &mut u64,
    exact_sent: &mut u64,
    truncate: bool,
) -> Result<(), ExchangeError> {
    for (kind, chunks, counter) in [
        (PayloadKind::Sketch, sketch_chunks, &mut *sketch_sent),
        (PayloadKind::ExactRows, exact_chunks, &mut *exact_sent),
    ] {
        if chunks.is_empty() {
            let h = FrameHeader {
                from,
                to,
                kind: kind as u32,
                chunk: 0,
                n_chunks: 0,
                payload_len: 0,
            };
            write_frame(stream, &h, &[])?;
            *counter += FRAME_HEADER_LEN as u64;
            continue;
        }
        for (c, payload) in chunks.iter().enumerate() {
            let h = FrameHeader {
                from,
                to,
                kind: kind as u32,
                chunk: c as u32,
                n_chunks: chunks.len() as u32,
                payload_len: payload.len() as u64,
            };
            if truncate && kind == PayloadKind::Sketch {
                // Fault injection: header promises the full payload, the
                // stream delivers half of it, then the worker dies.
                let half = payload.len() / 2;
                stream.write_all(&encode_frame_header(&h))?;
                stream.write_all(&payload[..half])?;
                let _ = stream.flush();
                unsafe { sys::_exit(EXIT_TRUNCATED) }
            }
            write_frame(stream, &h, payload)?;
            *counter += (FRAME_HEADER_LEN + payload.len()) as u64;
        }
    }
    Ok(())
}

fn recv_from_peer(
    stream: &mut UnixStream,
    ctx: &Ctx<'_>,
    from: u32,
    to: u32,
    sketch_recv: &mut u64,
    exact_recv: &mut u64,
    sketch_bufs: &mut Vec<AlignedBytes>,
) -> Result<(), ExchangeError> {
    let expect_rows = &ctx.ship[from as usize][to as usize];
    let chunk = ctx.opts.chunk_sets.max(1);
    let expect_chunks = expect_rows.len().div_ceil(chunk);
    for kind in [PayloadKind::Sketch, PayloadKind::ExactRows] {
        let mut row_off = 0usize;
        let mut c = 0u32;
        loop {
            let (h, payload) = read_frame(stream)?;
            if h.from != from || h.to != to {
                return Err(ExchangeError::Protocol(format!(
                    "frame addressed {}->{} arrived on pair {from}->{to}",
                    h.from, h.to
                )));
            }
            if h.kind != kind as u32 {
                return Err(ExchangeError::Protocol(format!(
                    "expected kind {} frame, got kind {}",
                    kind as u32, h.kind
                )));
            }
            if h.n_chunks as usize != expect_chunks {
                return Err(ExchangeError::Protocol(format!(
                    "peer {from} announced {} chunks, receiver expects {expect_chunks}",
                    h.n_chunks
                )));
            }
            if h.n_chunks == 0 {
                *count_for(kind, sketch_recv, exact_recv) += FRAME_HEADER_LEN as u64;
                break;
            }
            if h.chunk != c {
                return Err(ExchangeError::Protocol(format!(
                    "chunk {} arrived out of order (expected {c})",
                    h.chunk
                )));
            }
            *count_for(kind, sketch_recv, exact_recv) += (FRAME_HEADER_LEN as u64) + h.payload_len;
            let rows_here = chunk.min(expect_rows.len() - row_off);
            match kind {
                PayloadKind::Sketch => sketch_bufs.push(payload),
                PayloadKind::ExactRows => {
                    check_exact_rows(
                        &payload,
                        ctx.dag,
                        &expect_rows[row_off..row_off + rows_here],
                    )
                    .map_err(|e| ExchangeError::Payload {
                        from,
                        detail: e.to_string(),
                    })?;
                }
            }
            row_off += rows_here;
            c += 1;
            if c == h.n_chunks {
                break;
            }
        }
    }
    Ok(())
}

fn count_for<'a>(kind: PayloadKind, sketch: &'a mut u64, exact: &'a mut u64) -> &'a mut u64 {
    match kind {
        PayloadKind::Sketch => sketch,
        PayloadKind::ExactRows => exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_header_roundtrip() {
        let h = FrameHeader {
            from: 3,
            to: 7,
            kind: 1,
            chunk: 2,
            n_chunks: 9,
            payload_len: 1234,
        };
        let bytes = encode_frame_header(&h);
        assert_eq!(parse_frame_header(&bytes).unwrap(), h);
    }

    #[test]
    fn frame_header_rejects_every_single_bit_flip() {
        let h = FrameHeader {
            from: 0,
            to: 1,
            kind: 0,
            chunk: 0,
            n_chunks: 1,
            payload_len: 64,
        };
        let good = encode_frame_header(&h);
        for byte in 0..FRAME_HEADER_LEN {
            for bit in 0..8 {
                let mut bad = good;
                bad[byte] ^= 1 << bit;
                assert!(
                    parse_frame_header(&bad).is_err(),
                    "flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn frame_header_caps_payload_len() {
        let h = FrameHeader {
            from: 0,
            to: 1,
            kind: 0,
            chunk: 0,
            n_chunks: 1,
            payload_len: MAX_FRAME_PAYLOAD + 1,
        };
        // Re-encode so the checksum is valid and only the cap can reject.
        let bytes = encode_frame_header(&h);
        assert!(matches!(
            parse_frame_header(&bytes),
            Err(ExchangeError::Frame(_))
        ));
    }

    #[test]
    fn ship_sets_dedupe_per_vertex_and_part() {
        // Star: vertex 0 points at 1..=4; 0 owned by part 0, the rest by
        // part 1. Orientation is explicit via from_adjacency on the DAG's
        // underlying graph — use a tiny handmade DAG instead.
        let g =
            pg_graph::CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]);
        let dag = pg_graph::orient_by_degree(&g);
        let parts = vec![0u32, 1, 1, 1, 1];
        let s = ship_sets(&dag, &parts, 2);
        // Whatever the orientation, a vertex owned by q that appears in
        // several of r's rows must be listed exactly once.
        for (q, row) in s.iter().enumerate() {
            for (r, set) in row.iter().enumerate() {
                let mut dd = set.clone();
                dd.dedup();
                assert_eq!(&dd, set, "ship set not deduplicated");
                assert!(set.windows(2).all(|w| w[0] < w[1]), "ship set not sorted");
                if q == r {
                    assert!(set.is_empty());
                }
                for &u in set {
                    assert_eq!(parts[u as usize] as usize, q);
                }
            }
        }
    }
}
