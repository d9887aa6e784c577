//! Durable, checksummed on-disk snapshots of a [`ProbGraph`].
//!
//! A snapshot is the flat sketch arrays a [`crate::SketchStore`] already
//! holds, written verbatim behind a fixed self-describing header — saving
//! is `O(bytes)` with no re-encoding, and loading a validated snapshot is
//! allocation + checksum, orders of magnitude cheaper than rebuilding the
//! sketches from the edge list (the `snapshot` section of the bench suite
//! measures the ratio). The format is deliberately simple enough to serve
//! as the wire format for multi-process sketch exchange later.
//!
//! ## Format (version 3, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  89 50 47 53 4E 41 50 0A  ("\x89PGSNAP\n")
//!      8     4  format version (= 3)
//!     12     4  representation tag (0 Bloom, 1 CountingBloom, 2 KHash,
//!                                   3 OneHash, 4 Kmv, 5 Hll;
//!                                   bit 3 set = degree-stratified store)
//!     16     4  Bloom estimator tag (0 And, 1 Limit, 2 Or)
//!     20     4  section count
//!     24     8  master hash seed
//!     32     8  number of sets
//!     40     8  param A (bits_per_set | k | precision)
//!     48     8  param B (b | strided flag | 0)
//!     56     8  header checksum: xxh64 over bytes 0..56
//!     64     —  section table: per section 24 bytes
//!               (kind u32, reserved u32 = 0, payload len u64,
//!                payload checksum u64), then 8 bytes table checksum
//!      …     —  section payloads, concatenated, no padding
//! ```
//!
//! A **stratified** store (representation tag with bit 3 set) carries the
//! base representation's sections bracketed by two extras: a leading
//! [`SectionKind::StratumParams`] table — per stratum, the same
//! `(param A, param B)` pair the header holds, 16 bytes each — and a
//! trailing [`SectionKind::StratumAssign`] byte array mapping each set to
//! its stratum. The header's own params always equal stratum 0 (the
//! widest), so a v3 reader that only understands uniform stores still
//! sees sane header parameters. Every per-set array length is re-derived
//! from the stratum table + assignment at load and must match exactly.
//!
//! Version 3 orders each representation's sections coarsest-element-first
//! (`u64`/`f64` arrays before `u32` arrays before bytes). The payload base
//! (`64 + 24·sections + 8`) is a multiple of 8, so with that ordering
//! every section is naturally aligned for its element type whenever the
//! whole buffer is 8-aligned — which is what lets
//! [`ProbGraph::from_snapshot_bytes_borrowed`] and [`load_snapshot_mmap`]
//! serve validated sketch arrays **in place**, zero-copy, instead of
//! decoding them into fresh allocations. (Unaligned buffers and
//! big-endian hosts transparently fall back to copying.)
//!
//! Every region is covered by exactly one checksum (header, table, each
//! payload), so [`ProbGraph::from_snapshot_bytes`] can attribute any
//! corruption to the region it hit and return the matching typed
//! [`SnapshotError`] — it never panics and never constructs a store from
//! unvalidated bytes. Beyond checksums, the loader re-derives every
//! redundant structure (Bloom popcount caches, the counting-Bloom read
//! view, bottom-k layout and hash integrity, KMV order/range, HLL rank
//! bounds) and rejects files whose sections are individually intact but
//! mutually inconsistent.
//!
//! [`ProbGraph::save_snapshot`] is atomic: bytes go to a temp file in the
//! destination directory, are fsynced, and rename into place, so a crash
//! mid-save leaves either the old snapshot or the new one — never a torn
//! file. [`inspect`] gives a best-effort per-section damage report for
//! files that fail to load.
//!
//! ## Version policy
//!
//! The version field gates the whole layout: readers reject any version
//! they do not know ([`SnapshotError::UnsupportedVersion`]) rather than
//! guessing. Layout changes bump the version; the magic never changes.

use std::borrow::Cow;
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::Path;

use crate::pg::{BfEstimator, ProbGraph, ProbGraphIn, SketchStoreIn};
use pg_hash::{xxh64, HashFamily};
use pg_sketch::{
    BloomCollectionIn, BottomKCollectionIn, CountingBloomCollectionIn, HyperLogLogCollectionIn,
    KmvCollectionIn, KmvSketchIn, MinHashCollectionIn, SetGeometry, SketchParams, StratifiedParams,
    MAX_BLOOM_HASHES, MAX_STRATA,
};

/// The eight magic bytes opening every snapshot. PNG-style framing: the
/// high bit catches 7-bit transport, the trailing `\n` catches newline
/// translation.
pub const SNAPSHOT_MAGIC: [u8; 8] = [0x89, b'P', b'G', b'S', b'N', b'A', b'P', 0x0A];

/// The format version this build writes and the only one it reads.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Representation-tag bit marking a degree-stratified store; the low bits
/// keep the base representation's tag.
pub const REP_STRATIFIED: u32 = 8;

/// Fixed header size in bytes (including its trailing checksum).
pub const HEADER_LEN: usize = 64;
/// Size of one section-table entry in bytes.
pub const ENTRY_LEN: usize = 24;
/// Seed for every xxh64 checksum in the file (header, table, payloads).
/// Public so external recovery / fuzzing tooling can recompute them.
pub const CHECKSUM_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Sanity bound on the section count honored by [`inspect`] (loads use
/// the exact per-representation layout instead).
const MAX_SECTIONS: u32 = 16;

/// Identifies what a snapshot section stores. Tags are part of the wire
/// format and never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionKind {
    /// Exact per-set sizes (`u32` each) — every representation.
    Sizes = 1,
    /// Flat Bloom filter words (`u64` each).
    BloomWords = 2,
    /// Per-filter popcount cache (`u32` each).
    BloomOnes = 3,
    /// Packed 4-bit counting-Bloom counters (`u64` words).
    CbfCounters = 4,
    /// The derived counting-Bloom read view (`u64` words).
    CbfView = 5,
    /// Flat k-hash MinHash signatures (`u32` each).
    MinHashSigs = 6,
    /// Bottom-k sample elements (`u32` each).
    BkElems = 7,
    /// Bottom-k sample hashes, same order as the elements (`u32` each).
    BkHashes = 8,
    /// Bottom-k per-set region offsets (`n + 1` × `u32`).
    BkOffsets = 9,
    /// Bottom-k live sample lengths (`u32` each).
    BkLens = 10,
    /// Bottom-k recorded exact set sizes (`u32` each).
    BkSetSizes = 11,
    /// KMV per-sketch hash counts (`u32` each).
    KmvLens = 12,
    /// KMV per-sketch recorded exact set sizes (`u64` each).
    KmvSetSizes = 13,
    /// KMV unit-interval hashes, concatenated per sketch (`f64` each).
    KmvHashes = 14,
    /// HyperLogLog registers (`2^precision` bytes per set).
    HllRegisters = 15,
    /// Per-stratum `(param A, param B)` pairs (2 × `u64` per stratum) —
    /// stratified stores only, always the first section.
    StratumParams = 16,
    /// Per-set stratum index (one byte per set) — stratified stores only,
    /// always the last section.
    StratumAssign = 17,
}

impl SectionKind {
    /// Decodes a wire tag; `None` for tags this build does not know.
    pub fn from_tag(tag: u32) -> Option<SectionKind> {
        use SectionKind::*;
        Some(match tag {
            1 => Sizes,
            2 => BloomWords,
            3 => BloomOnes,
            4 => CbfCounters,
            5 => CbfView,
            6 => MinHashSigs,
            7 => BkElems,
            8 => BkHashes,
            9 => BkOffsets,
            10 => BkLens,
            11 => BkSetSizes,
            12 => KmvLens,
            13 => KmvSetSizes,
            14 => KmvHashes,
            15 => HllRegisters,
            16 => StratumParams,
            17 => StratumAssign,
            _ => return None,
        })
    }
}

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Everything that can be wrong with a snapshot, attributed to the region
/// the damage hit. Loading never panics: every malformed, truncated, or
/// bit-flipped input maps to one of these.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// Fewer bytes than the fixed header + section table need.
    TooShort {
        /// Minimum byte count the structure requires.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The magic bytes are wrong — not a snapshot (or mangled transport).
    BadMagic,
    /// A format version this build does not read.
    UnsupportedVersion {
        /// The version the file claims.
        found: u32,
    },
    /// The header checksum does not match — header bytes were corrupted.
    HeaderCorrupt,
    /// The representation tag is not one of the six known stores.
    BadRepresentation {
        /// The unknown tag.
        tag: u32,
    },
    /// The Bloom estimator tag is not And/Limit/Or.
    BadEstimator {
        /// The unknown tag.
        tag: u32,
    },
    /// Header parameters are impossible for the claimed representation
    /// (zero `k`, non-word Bloom width, out-of-range precision, …).
    BadParams {
        /// What was wrong.
        detail: String,
    },
    /// The header's section count disagrees with the representation's
    /// fixed layout.
    SectionCount {
        /// Sections the representation's layout defines.
        expected: usize,
        /// Sections the header declares.
        found: usize,
    },
    /// The section table checksum does not match — table bytes were
    /// corrupted.
    SectionTableCorrupt,
    /// A table entry names a different section than the layout expects
    /// at that position.
    WrongSection {
        /// Zero-based table position.
        index: usize,
        /// The section the layout expects there.
        expected: SectionKind,
        /// The tag actually found.
        found_tag: u32,
    },
    /// The file ends before the declared payloads do.
    Truncated {
        /// Total bytes the header + table promise.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The file continues past the declared payloads.
    TrailingBytes {
        /// Total bytes the header + table promise.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// A payload checksum does not match — that section was corrupted.
    ChecksumMismatch {
        /// The damaged section.
        section: SectionKind,
    },
    /// A section's declared length is impossible for the header's set
    /// count and parameters.
    SectionLength {
        /// The inconsistent section.
        section: SectionKind,
        /// Bytes the parameters require.
        expected_bytes: u64,
        /// Bytes the table declares.
        got_bytes: u64,
    },
    /// Sections are individually intact but mutually inconsistent — a
    /// derived invariant (popcount cache, counter/view agreement, sample
    /// ordering, hash integrity, register range, …) does not hold.
    InvariantViolation {
        /// The section the violated invariant lives in.
        section: SectionKind,
        /// Which invariant failed.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use SnapshotError::*;
        match self {
            Io(e) => write!(f, "snapshot I/O failed: {e}"),
            TooShort { needed, got } => {
                write!(f, "snapshot too short: need {needed} bytes, got {got}")
            }
            BadMagic => write!(f, "not a ProbGraph snapshot (bad magic)"),
            UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
            ),
            HeaderCorrupt => write!(f, "snapshot header failed its checksum"),
            BadRepresentation { tag } => write!(f, "unknown representation tag {tag}"),
            BadEstimator { tag } => write!(f, "unknown Bloom estimator tag {tag}"),
            BadParams { detail } => write!(f, "invalid sketch parameters: {detail}"),
            SectionCount { expected, found } => write!(
                f,
                "section count {found} does not match the representation's layout ({expected})"
            ),
            SectionTableCorrupt => write!(f, "snapshot section table failed its checksum"),
            WrongSection {
                index,
                expected,
                found_tag,
            } => write!(
                f,
                "section {index} should be {expected} but the table says tag {found_tag}"
            ),
            Truncated { expected, got } => {
                write!(f, "snapshot truncated: {expected} bytes declared, {got} present")
            }
            TrailingBytes { expected, got } => write!(
                f,
                "snapshot has trailing bytes: {expected} declared, {got} present"
            ),
            ChecksumMismatch { section } => {
                write!(f, "section {section} failed its checksum")
            }
            SectionLength {
                section,
                expected_bytes,
                got_bytes,
            } => write!(
                f,
                "section {section} should be {expected_bytes} bytes for these parameters, table declares {got_bytes}"
            ),
            InvariantViolation { section, detail } => {
                write!(f, "section {section} violates a derived invariant: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Little-endian (de)serialization helpers
// ---------------------------------------------------------------------------

fn le_u32s(v: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn le_u64s(v: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn le_f64s(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn decode_u32s(b: &[u8]) -> Vec<u32> {
    debug_assert_eq!(b.len() % 4, 0);
    b.chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn decode_u64s(b: &[u8]) -> Vec<u64> {
    debug_assert_eq!(b.len() % 8, 0);
    b.chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

fn decode_f64s(b: &[u8]) -> Vec<f64> {
    debug_assert_eq!(b.len() % 8, 0);
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

/// Reads a `u32` at `off`; callers bounds-check before calling.
fn u32le(b: &[u8], off: usize) -> u32 {
    let mut x = [0u8; 4];
    x.copy_from_slice(&b[off..off + 4]);
    u32::from_le_bytes(x)
}

/// Reads a `u64` at `off`; callers bounds-check before calling.
fn u64le(b: &[u8], off: usize) -> u64 {
    let mut x = [0u8; 8];
    x.copy_from_slice(&b[off..off + 8]);
    u64::from_le_bytes(x)
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

/// The fixed section sequence each representation writes and expects —
/// coarsest element type first (see the module docs' alignment note), so
/// every section is naturally aligned when the buffer base is.
fn layout_for(rep_tag: u32) -> Result<Vec<SectionKind>, SnapshotError> {
    use SectionKind::*;
    let base: &[SectionKind] = match rep_tag & !REP_STRATIFIED {
        0 => &[BloomWords, Sizes, BloomOnes],
        1 => &[CbfCounters, CbfView, Sizes],
        2 => &[Sizes, MinHashSigs],
        3 => &[Sizes, BkElems, BkHashes, BkOffsets, BkLens, BkSetSizes],
        4 => &[KmvHashes, KmvSetSizes, KmvLens, Sizes],
        5 => &[Sizes, HllRegisters],
        _ => return Err(SnapshotError::BadRepresentation { tag: rep_tag }),
    };
    if rep_tag & REP_STRATIFIED == 0 {
        return Ok(base.to_vec());
    }
    // Stratified stores bracket the base layout with the stratum
    // parameter table (u64 pairs, so it leads for alignment) and the
    // per-set assignment bytes (which trail for the same reason).
    Ok([&[StratumParams][..], base, &[StratumAssign]].concat())
}

/// The wire `(param A, param B)` pair of one stratum's parameters, with
/// the same per-representation meaning as the header's fields. (The
/// bottom-k strided flag is a property of the whole store, not a stratum,
/// so `OneHash` strata carry 0 there.)
fn stratum_pair(p: &SketchParams) -> (u64, u64) {
    match *p {
        SketchParams::Bloom { bits_per_set, b } => (bits_per_set as u64, b as u64),
        SketchParams::CountingBloom { bits_per_set, b } => (bits_per_set as u64, b as u64),
        SketchParams::KHash { k } => (k as u64, 0),
        SketchParams::OneHash { k } => (k as u64, 0),
        SketchParams::Kmv { k } => (k as u64, 0),
        SketchParams::Hll { precision } => (precision as u64, 0),
    }
}

/// Flattens a ProbGraph into `(rep tag, param A, param B, sections)` —
/// the payloads are the collections' own flat arrays, byte for byte, in
/// the coarsest-first order `layout_for` declares.
fn sections_of(pg: &ProbGraphIn<'_>) -> (u32, u64, u64, Vec<(SectionKind, Vec<u8>)>) {
    use SectionKind::*;
    let sizes = (Sizes, le_u32s(pg.sizes()));
    let (rep_tag, param_a, param_b, mut sections) = match (pg.store(), pg.params()) {
        (SketchStoreIn::Bloom(c), SketchParams::Bloom { bits_per_set, b }) => (
            0,
            bits_per_set as u64,
            b as u64,
            vec![
                (BloomWords, le_u64s(c.raw_words())),
                sizes,
                (BloomOnes, le_u32s(c.raw_ones())),
            ],
        ),
        (SketchStoreIn::CountingBloom(c), SketchParams::CountingBloom { bits_per_set, b }) => (
            1,
            bits_per_set as u64,
            b as u64,
            vec![
                (CbfCounters, le_u64s(c.raw_counters())),
                (CbfView, le_u64s(c.read_view().raw_words())),
                sizes,
            ],
        ),
        (SketchStoreIn::KHash(c), SketchParams::KHash { k }) => (
            2,
            k as u64,
            0,
            vec![sizes, (MinHashSigs, le_u32s(c.raw_sigs()))],
        ),
        (SketchStoreIn::OneHash(c), SketchParams::OneHash { k }) => (
            3,
            k as u64,
            c.is_strided() as u64,
            vec![
                sizes,
                (BkElems, le_u32s(c.raw_elems())),
                (BkHashes, le_u32s(c.raw_hashes())),
                (BkOffsets, le_u32s(c.raw_offsets())),
                (BkLens, le_u32s(c.raw_lens())),
                (BkSetSizes, le_u32s(c.raw_set_sizes())),
            ],
        ),
        (SketchStoreIn::Kmv(c), SketchParams::Kmv { k }) => {
            let n = c.len();
            let mut lens = Vec::with_capacity(n);
            let mut set_sizes = Vec::with_capacity(n);
            let mut hashes = Vec::new();
            for i in 0..n {
                let s = c.sketch(i);
                lens.push(s.hashes().len() as u32);
                set_sizes.push(s.set_size() as u64);
                hashes.extend_from_slice(s.hashes());
            }
            (
                4,
                k as u64,
                0,
                vec![
                    (KmvHashes, le_f64s(&hashes)),
                    (KmvSetSizes, le_u64s(&set_sizes)),
                    (KmvLens, le_u32s(&lens)),
                    sizes,
                ],
            )
        }
        (SketchStoreIn::Hll(c), SketchParams::Hll { precision }) => (
            5,
            precision as u64,
            0,
            vec![sizes, (HllRegisters, c.raw_registers().to_vec())],
        ),
        // `build_over` resolves store and params from the same
        // representation; no constructor can mix them.
        _ => unreachable!("SketchStore and SketchParams variants disagree"),
    };
    if let Some(sp) = pg.stratified_params() {
        // The header's params are stratum 0 by construction; the stratum
        // table restates them so a reader validates the two against each
        // other.
        debug_assert_eq!(sp.strata()[0], pg.params());
        let mut table = Vec::with_capacity(sp.n_strata() * 16);
        for p in sp.strata() {
            let (a, b) = stratum_pair(p);
            table.extend_from_slice(&a.to_le_bytes());
            table.extend_from_slice(&b.to_le_bytes());
        }
        sections.insert(0, (StratumParams, table));
        sections.push((StratumAssign, sp.assign().to_vec()));
        return (rep_tag | REP_STRATIFIED, param_a, param_b, sections);
    }
    (rep_tag, param_a, param_b, sections)
}

fn encode(pg: &ProbGraphIn<'_>) -> Vec<u8> {
    let (rep_tag, param_a, param_b, sections) = sections_of(pg);
    let est_tag: u32 = match pg.bf_estimator() {
        BfEstimator::And => 0,
        BfEstimator::Limit => 1,
        BfEstimator::Or => 2,
    };
    let payload_total: usize = sections.iter().map(|(_, p)| p.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + sections.len() * ENTRY_LEN + 8 + payload_total);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&rep_tag.to_le_bytes());
    out.extend_from_slice(&est_tag.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&pg.seed().to_le_bytes());
    out.extend_from_slice(&(pg.len() as u64).to_le_bytes());
    out.extend_from_slice(&param_a.to_le_bytes());
    out.extend_from_slice(&param_b.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN - 8);
    let header_sum = xxh64(&out, CHECKSUM_SEED);
    out.extend_from_slice(&header_sum.to_le_bytes());
    let table_start = out.len();
    for (kind, payload) in &sections {
        out.extend_from_slice(&(*kind as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&xxh64(payload, CHECKSUM_SEED).to_le_bytes());
    }
    let table_sum = xxh64(&out[table_start..], CHECKSUM_SEED);
    out.extend_from_slice(&table_sum.to_le_bytes());
    for (_, payload) in &sections {
        out.extend_from_slice(payload);
    }
    out
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

struct Header {
    rep_tag: u32,
    est_tag: u32,
    section_count: u32,
    seed: u64,
    n_sets: u64,
    param_a: u64,
    param_b: u64,
}

/// Validates magic, version, and the header checksum, in that order — a
/// flip in the magic reports [`SnapshotError::BadMagic`], in the version
/// [`SnapshotError::UnsupportedVersion`], anywhere else in the header
/// [`SnapshotError::HeaderCorrupt`].
fn parse_header(bytes: &[u8]) -> Result<Header, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::TooShort {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32le(bytes, 8);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    if xxh64(&bytes[..HEADER_LEN - 8], CHECKSUM_SEED) != u64le(bytes, HEADER_LEN - 8) {
        return Err(SnapshotError::HeaderCorrupt);
    }
    Ok(Header {
        rep_tag: u32le(bytes, 12),
        est_tag: u32le(bytes, 16),
        section_count: u32le(bytes, 20),
        seed: u64le(bytes, 24),
        n_sets: u64le(bytes, 32),
        param_a: u64le(bytes, 40),
        param_b: u64le(bytes, 48),
    })
}

fn bad_params(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::BadParams {
        detail: detail.into(),
    }
}

fn invariant(section: SectionKind, detail: impl Into<String>) -> SnapshotError {
    SnapshotError::InvariantViolation {
        section,
        detail: detail.into(),
    }
}

/// `count × size` with overflow mapped to [`SnapshotError::BadParams`]
/// (only absurd headers overflow 64-bit byte counts).
fn expected_bytes(count: u64, size: u64) -> Result<u64, SnapshotError> {
    count
        .checked_mul(size)
        .ok_or_else(|| bad_params("section size overflows"))
}

/// Enforces a section's declared length against what the header's
/// parameters require.
fn check_len(section: SectionKind, got: u64, expected: u64) -> Result<(), SnapshotError> {
    if got != expected {
        return Err(SnapshotError::SectionLength {
            section,
            expected_bytes: expected,
            got_bytes: got,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Zero-copy payload views
// ---------------------------------------------------------------------------
//
// On little-endian hosts a validated payload IS the flat sketch array —
// same element order, same byte order — so when the slice happens to be
// correctly aligned for its element type we hand the collection a
// `Cow::Borrowed` view of the wire bytes instead of decoding a copy. The
// v2 section ordering makes that the common case for any 8-aligned
// buffer (a mapped file or [`AlignedBytes`]); everything else falls back
// to the copying decoder, bit-for-bit identical.

fn cow_u32s(bytes: &[u8]) -> Cow<'_, [u32]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: any initialized bytes are a valid [u32]; `align_to`
        // only yields an aligned, in-bounds middle slice.
        let (head, mid, tail) = unsafe { bytes.align_to::<u32>() };
        if head.is_empty() && tail.is_empty() {
            return Cow::Borrowed(mid);
        }
    }
    Cow::Owned(decode_u32s(bytes))
}

fn cow_u64s(bytes: &[u8]) -> Cow<'_, [u64]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: as in `cow_u32s`.
        let (head, mid, tail) = unsafe { bytes.align_to::<u64>() };
        if head.is_empty() && tail.is_empty() {
            return Cow::Borrowed(mid);
        }
    }
    Cow::Owned(decode_u64s(bytes))
}

fn cow_f64s(bytes: &[u8]) -> Cow<'_, [f64]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: every bit pattern is a valid f64 (the loader's range
        // checks reject NaN payloads afterwards, exactly as when copying).
        let (head, mid, tail) = unsafe { bytes.align_to::<f64>() };
        if head.is_empty() && tail.is_empty() {
            return Cow::Borrowed(mid);
        }
    }
    Cow::Owned(decode_f64s(bytes))
}

fn decode_in(bytes: &[u8]) -> Result<ProbGraphIn<'_>, SnapshotError> {
    let h = parse_header(bytes)?;
    let layout = layout_for(h.rep_tag)?;
    let est = match h.est_tag {
        0 => BfEstimator::And,
        1 => BfEstimator::Limit,
        2 => BfEstimator::Or,
        tag => return Err(SnapshotError::BadEstimator { tag }),
    };
    if h.section_count as usize != layout.len() {
        return Err(SnapshotError::SectionCount {
            expected: layout.len(),
            found: h.section_count as usize,
        });
    }
    let table_end = HEADER_LEN + layout.len() * ENTRY_LEN + 8;
    if bytes.len() < table_end {
        return Err(SnapshotError::TooShort {
            needed: table_end,
            got: bytes.len(),
        });
    }
    if xxh64(&bytes[HEADER_LEN..table_end - 8], CHECKSUM_SEED) != u64le(bytes, table_end - 8) {
        return Err(SnapshotError::SectionTableCorrupt);
    }
    let mut entries: Vec<(SectionKind, u64, u64)> = Vec::with_capacity(layout.len());
    for (i, kind) in layout.iter().enumerate() {
        let off = HEADER_LEN + i * ENTRY_LEN;
        let tag = u32le(bytes, off);
        if tag != *kind as u32 {
            return Err(SnapshotError::WrongSection {
                index: i,
                expected: *kind,
                found_tag: tag,
            });
        }
        entries.push((*kind, u64le(bytes, off + 8), u64le(bytes, off + 16)));
    }
    let mut total = table_end as u64;
    for &(_, len, _) in &entries {
        total = total
            .checked_add(len)
            .ok_or_else(|| bad_params("section lengths overflow"))?;
    }
    let got = bytes.len() as u64;
    if got < total {
        return Err(SnapshotError::Truncated {
            expected: total as usize,
            got: bytes.len(),
        });
    }
    if got > total {
        return Err(SnapshotError::TrailingBytes {
            expected: total as usize,
            got: bytes.len(),
        });
    }
    // All declared lengths fit the file, so payload slicing cannot go out
    // of bounds. Verify each section's checksum before decoding anything.
    let mut payloads: Vec<&[u8]> = Vec::with_capacity(entries.len());
    let mut off = table_end;
    for &(kind, len, sum) in &entries {
        let payload = &bytes[off..off + len as usize];
        if xxh64(payload, CHECKSUM_SEED) != sum {
            return Err(SnapshotError::ChecksumMismatch { section: kind });
        }
        payloads.push(payload);
        off += len as usize;
    }
    decode_store(&h, est, &entries, &payloads)
}

/// The decoded stratified bracket sections: per-stratum wire parameter
/// pairs plus the per-set assignment, borrowed from the payload.
struct StratumTable<'a> {
    pairs: Vec<(u64, u64)>,
    assign: &'a [u8],
}

/// Validates and decodes the stratified bracket sections (the first and
/// last table entries): table shape, stratum count, assignment range, and
/// header agreement (the header's params must restate stratum 0's).
fn parse_stratum_table<'a>(
    h: &Header,
    entries: &[(SectionKind, u64, u64)],
    payloads: &[&'a [u8]],
) -> Result<StratumTable<'a>, SnapshotError> {
    use SectionKind::*;
    let sp_bytes = entries[0].1;
    if sp_bytes == 0 || !sp_bytes.is_multiple_of(16) {
        return Err(bad_params(format!(
            "stratum table length {sp_bytes} is not a positive multiple of 16"
        )));
    }
    let n_strata = (sp_bytes / 16) as usize;
    if !(2..=MAX_STRATA).contains(&n_strata) {
        return Err(bad_params(format!(
            "stratified store declares {n_strata} strata, outside 2..={MAX_STRATA} \
             (a one-stratum store must use the uniform representation tag)"
        )));
    }
    let pairs: Vec<(u64, u64)> = payloads[0]
        .chunks_exact(16)
        .map(|c| (u64le(c, 0), u64le(c, 8)))
        .collect();
    let a_at = entries.len() - 1;
    check_len(StratumAssign, entries[a_at].1, h.n_sets)?;
    let assign = payloads[a_at];
    if let Some(i) = assign.iter().position(|&a| a as usize >= n_strata) {
        return Err(invariant(
            StratumAssign,
            format!(
                "set {i} is assigned to stratum {} past the {n_strata}-stratum table",
                assign[i]
            ),
        ));
    }
    if pairs[0].0 != h.param_a {
        return Err(bad_params(format!(
            "stratum 0 param A {} disagrees with the header's {}",
            pairs[0].0, h.param_a
        )));
    }
    Ok(StratumTable { pairs, assign })
}

/// A window width read off the wire, as an in-memory slot count.
fn slots(w: u64) -> Result<usize, SnapshotError> {
    usize::try_from(w).map_err(|_| bad_params(format!("width {w} exceeds the address space")))
}

/// Mirrors the Bloom width rules so hostile tables surface as typed
/// errors instead of constructor panics: every width a positive whole-word
/// count, every pair of widths related by a power-of-two factor of at most
/// 64 (the fold kernels' requirement), and one hash count shared by all
/// strata. Returns the per-stratum widths in words.
fn validate_bloom_strata(pairs: &[(u64, u64)], header_b: u64) -> Result<Vec<usize>, SnapshotError> {
    let mut words = Vec::with_capacity(pairs.len());
    for (s, &(w, b)) in pairs.iter().enumerate() {
        if w == 0 || w % 64 != 0 {
            return Err(bad_params(format!(
                "stratum {s} Bloom width {w} is not a positive multiple of 64"
            )));
        }
        if b != header_b {
            return Err(bad_params(format!(
                "stratum {s} hash count {b} disagrees with the header's {header_b}"
            )));
        }
        words.push(slots(w / 64)?);
    }
    let min_w = *words.iter().min().expect("≥ 1 stratum");
    for (s, &w) in words.iter().enumerate() {
        let r = w / min_w;
        if !w.is_multiple_of(min_w) || !r.is_power_of_two() || r > 64 {
            return Err(bad_params(format!(
                "stratum {s} width {} is not a power-of-two multiple (≤ 64×) of the \
                 narrowest stratum's {}",
                w * 64,
                min_w * 64
            )));
        }
    }
    Ok(words)
}

/// Per-stratum `k`-style parameters: `k ≥ 1`, param B zero. Returns the
/// per-stratum `k`s.
fn validate_k_strata(pairs: &[(u64, u64)], what: &str) -> Result<Vec<usize>, SnapshotError> {
    let mut ks = Vec::with_capacity(pairs.len());
    for (s, &(k, b)) in pairs.iter().enumerate() {
        if k == 0 {
            return Err(bad_params(format!("stratum {s} {what} k must be ≥ 1")));
        }
        if b != 0 {
            return Err(bad_params(format!(
                "stratum {s} param B must be 0 for {what}"
            )));
        }
        ks.push(slots(k)?);
    }
    Ok(ks)
}

/// Per-stratum HLL precisions in `4..=16`, param B zero. Returns the
/// per-stratum register counts.
fn validate_hll_strata(pairs: &[(u64, u64)]) -> Result<Vec<usize>, SnapshotError> {
    let mut widths = Vec::with_capacity(pairs.len());
    for (s, &(p, b)) in pairs.iter().enumerate() {
        if !(4..=16).contains(&p) {
            return Err(bad_params(format!(
                "stratum {s} HLL precision {p} outside 4..=16"
            )));
        }
        if b != 0 {
            return Err(bad_params(format!("stratum {s} param B must be 0 for HLL")));
        }
        widths.push(1usize << p);
    }
    Ok(widths)
}

/// Validates the header's own parameter pair and returns it as the store's
/// stratum-0 [`SketchParams`].
fn header_params(h: &Header, base_tag: u32) -> Result<SketchParams, SnapshotError> {
    let (a, b) = (h.param_a, h.param_b);
    match base_tag {
        0 | 1 => {
            if a == 0 || a % 64 != 0 {
                return Err(bad_params(format!(
                    "Bloom width {a} is not a positive multiple of 64"
                )));
            }
            if b == 0 || b > MAX_BLOOM_HASHES as u64 {
                return Err(bad_params(format!(
                    "Bloom hash count {b} outside 1..={MAX_BLOOM_HASHES}"
                )));
            }
        }
        2 => {
            if a == 0 {
                return Err(bad_params("MinHash k must be ≥ 1"));
            }
            if b != 0 {
                return Err(bad_params("param B must be 0 for k-hash MinHash"));
            }
        }
        3 => {
            if a == 0 {
                return Err(bad_params("bottom-k k must be ≥ 1"));
            }
            if b > 1 {
                return Err(bad_params(format!("bottom-k strided flag {b} not 0/1")));
            }
        }
        4 => {
            if a == 0 {
                return Err(bad_params("KMV k must be ≥ 1"));
            }
            if b != 0 {
                return Err(bad_params("param B must be 0 for KMV"));
            }
        }
        5 => {
            if !(4..=16).contains(&a) {
                return Err(bad_params(format!("HLL precision {a} outside 4..=16")));
            }
            if b != 0 {
                return Err(bad_params("param B must be 0 for HLL"));
            }
        }
        // `layout_for` already rejected unknown tags.
        tag => return Err(SnapshotError::BadRepresentation { tag }),
    }
    Ok(stratum_sketch_params(base_tag, a, b))
}

/// Rebuilds one stratum's [`SketchParams`] from its validated wire pair.
fn stratum_sketch_params(base_tag: u32, a: u64, b: u64) -> SketchParams {
    match base_tag {
        0 => SketchParams::Bloom {
            bits_per_set: a as usize,
            b: b as usize,
        },
        1 => SketchParams::CountingBloom {
            bits_per_set: a as usize,
            b: b as usize,
        },
        2 => SketchParams::KHash { k: a as usize },
        3 => SketchParams::OneHash { k: a as usize },
        4 => SketchParams::Kmv { k: a as usize },
        5 => SketchParams::Hll { precision: a as u8 },
        _ => unreachable!("layout_for rejected unknown base tags"),
    }
}

/// Decodes the checksummed payloads into a live store, re-deriving every
/// redundant structure and rejecting any cross-section inconsistency.
/// The store borrows any payload it can serve in place (see the zero-copy
/// helpers above); the caller decides whether to keep the borrow or
/// `into_owned()` it.
fn decode_store<'a>(
    h: &Header,
    est: BfEstimator,
    entries: &[(SectionKind, u64, u64)],
    payloads: &[&'a [u8]],
) -> Result<ProbGraphIn<'a>, SnapshotError> {
    use SectionKind::*;
    let n = h.n_sets;
    let n_us = usize::try_from(n).map_err(|_| bad_params("set count exceeds address space"))?;
    // `decode_in` already matched every entry against the layout, so each
    // kind occurs exactly once.
    let idx = |kind: SectionKind| {
        entries
            .iter()
            .position(|&(k, _, _)| k == kind)
            .expect("entry kinds match the representation layout")
    };
    let sizes_at = idx(Sizes);
    check_len(Sizes, entries[sizes_at].1, expected_bytes(n, 4)?)?;
    let sizes = cow_u32s(payloads[sizes_at]);
    let base_tag = h.rep_tag & !REP_STRATIFIED;
    let strat = if h.rep_tag & REP_STRATIFIED != 0 {
        Some(parse_stratum_table(h, entries, payloads)?)
    } else {
        None
    };
    let header = header_params(h, base_tag)?;
    // The per-stratum wire pairs: the validated table, or the header's own
    // pair for a uniform store. Each representation validates its width
    // rules over them once.
    let pairs = strat
        .as_ref()
        .map_or_else(|| vec![stratum_pair(&header)], |st| st.pairs.clone());
    let widths = match base_tag {
        0 | 1 => validate_bloom_strata(&pairs, h.param_b)?,
        2 => validate_k_strata(&pairs, "MinHash")?,
        3 => validate_k_strata(&pairs, "bottom-k")?,
        4 => validate_k_strata(&pairs, "KMV")?,
        _ => validate_hll_strata(&pairs)?,
    };
    // The one window layout every section is checked against.
    let geom = match &strat {
        Some(st) => SetGeometry::stratified(widths, st.assign),
        None => SetGeometry::uniform(n_us, widths[0]),
    };
    let total = geom.total() as u64;
    let (b, seed) = (h.param_b as usize, h.seed);
    let store = match base_tag {
        0 => {
            let (w_at, o_at) = (idx(BloomWords), idx(BloomOnes));
            check_len(BloomWords, entries[w_at].1, expected_bytes(total, 8)?)?;
            check_len(BloomOnes, entries[o_at].1, expected_bytes(n, 4)?)?;
            let words = cow_u64s(payloads[w_at]);
            let ones = cow_u32s(payloads[o_at]);
            let col = BloomCollectionIn::from_raw_words(words, geom, b, seed);
            // The constructor recounts every filter; the persisted cache
            // must agree bit for bit.
            if col.raw_ones() != &ones[..] {
                return Err(invariant(
                    BloomOnes,
                    "persisted popcount cache disagrees with the recounted filter words",
                ));
            }
            SketchStoreIn::Bloom(col)
        }
        1 => {
            // 4-bit counters, 16 per word — 4× the read view's bytes.
            let (c_at, v_at) = (idx(CbfCounters), idx(CbfView));
            check_len(CbfCounters, entries[c_at].1, expected_bytes(total, 32)?)?;
            check_len(CbfView, entries[v_at].1, expected_bytes(total, 8)?)?;
            let counters = cow_u64s(payloads[c_at]);
            let view = cow_u64s(payloads[v_at]);
            let col = CountingBloomCollectionIn::from_counter_words(counters, geom, b, seed);
            // The read view is fully determined by the counters
            // (counter > 0 ⇔ bit set); a mismatch means one of the two
            // sections is stale or forged.
            if col.read_view().raw_words() != &view[..] {
                return Err(invariant(
                    CbfView,
                    "persisted read view disagrees with the view derived from the \
                     counters (counter > 0 ⇔ bit set)",
                ));
            }
            SketchStoreIn::CountingBloom(col)
        }
        2 => {
            let s_at = idx(MinHashSigs);
            check_len(MinHashSigs, entries[s_at].1, expected_bytes(total, 4)?)?;
            let sigs = cow_u32s(payloads[s_at]);
            // An empty set's signature must be all empty-slot sentinels —
            // nothing ever wrote to it.
            for (i, &size) in sizes.iter().enumerate() {
                if size == 0 && sigs[geom.range(i)].iter().any(|&s| s != u32::MAX) {
                    return Err(invariant(
                        MinHashSigs,
                        format!("set {i} is empty but its signature has occupied slots"),
                    ));
                }
            }
            SketchStoreIn::KHash(MinHashCollectionIn::from_raw_sigs(sigs, geom, seed))
        }
        // The positional decoders index the *base* layout, so a stratified
        // store hands them the entries between the two bracket sections.
        3 | 4 => {
            #[allow(clippy::type_complexity)]
            let (e, p): (&[(SectionKind, u64, u64)], &[&[u8]]) = if strat.is_some() {
                (
                    &entries[1..entries.len() - 1],
                    &payloads[1..payloads.len() - 1],
                )
            } else {
                (entries, payloads)
            };
            if base_tag == 3 {
                SketchStoreIn::OneHash(decode_onehash(h, e, p, &sizes, geom)?)
            } else {
                SketchStoreIn::Kmv(decode_kmv(h, e, p, &sizes, geom)?)
            }
        }
        _ => {
            let r_at = idx(HllRegisters);
            check_len(HllRegisters, entries[r_at].1, total)?;
            // Raw bytes need neither endianness nor alignment — always
            // served in place.
            let registers = payloads[r_at];
            // A register holds the max rank seen; rank caps at
            // 64 − p + 1 leading-zero bits + 1, under the set's own
            // precision.
            for i in 0..n_us {
                let r = geom.range(i);
                let p_i = r.len().trailing_zeros() as u8;
                let max_rank = 64 - p_i + 1;
                if let Some(pos) = registers[r.clone()].iter().position(|&x| x > max_rank) {
                    return Err(invariant(
                        HllRegisters,
                        format!(
                            "set {i} register {pos} holds rank {} above the precision-{p_i} \
                             maximum {max_rank}",
                            registers[r.start + pos]
                        ),
                    ));
                }
            }
            SketchStoreIn::Hll(HyperLogLogCollectionIn::from_raw_registers(
                registers, geom, seed,
            ))
        }
    };
    debug_assert_eq!(sizes.len(), n_us);
    let params = StratifiedParams::new(
        pairs
            .iter()
            .map(|&(a, b)| stratum_sketch_params(base_tag, a, b))
            .collect(),
        strat.map_or_else(Vec::new, |st| st.assign.to_vec()),
    );
    Ok(ProbGraphIn::from_parts(store, sizes, est, params, h.seed))
}

/// Bottom-k reconstruction: the layout has the most redundant structure
/// of any store, and all of it is validated against the per-set caps of
/// `geom` — offsets shape, region capacities, live lengths, ascending
/// packed `(hash, element)` order, and per-element hash integrity under
/// the persisted seed.
fn decode_onehash<'a>(
    h: &Header,
    entries: &[(SectionKind, u64, u64)],
    payloads: &[&'a [u8]],
    sizes: &[u32],
    geom: SetGeometry<'a>,
) -> Result<BottomKCollectionIn<'a>, SnapshotError> {
    use SectionKind::*;
    let n = h.n_sets;
    // `header_params` admitted only 0 / 1 here.
    let strided = h.param_b == 1;
    check_len(BkOffsets, entries[3].1, expected_bytes(n + 1, 4)?)?;
    check_len(BkLens, entries[4].1, expected_bytes(n, 4)?)?;
    check_len(BkSetSizes, entries[5].1, expected_bytes(n, 4)?)?;
    if entries[1].1 != entries[2].1 {
        return Err(SnapshotError::SectionLength {
            section: BkHashes,
            expected_bytes: entries[1].1,
            got_bytes: entries[2].1,
        });
    }
    if !entries[1].1.is_multiple_of(4) {
        return Err(SnapshotError::SectionLength {
            section: BkElems,
            expected_bytes: entries[1].1 / 4 * 4,
            got_bytes: entries[1].1,
        });
    }
    if strided {
        check_len(
            BkElems,
            entries[1].1,
            expected_bytes(geom.total() as u64, 4)?,
        )?;
    }
    let elems = cow_u32s(payloads[1]);
    let hashes = cow_u32s(payloads[2]);
    let offsets = cow_u32s(payloads[3]);
    let lens = cow_u32s(payloads[4]);
    let set_sizes = cow_u32s(payloads[5]);
    if offsets[0] != 0 {
        return Err(invariant(BkOffsets, "offsets must start at 0"));
    }
    if *offsets.last().unwrap_or(&0) as usize != elems.len() {
        return Err(invariant(
            BkOffsets,
            "final offset disagrees with the element array length",
        ));
    }
    let family = HashFamily::new(1, h.seed);
    for i in 0..n as usize {
        let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
        if end < start {
            return Err(invariant(BkOffsets, format!("offsets decrease at set {i}")));
        }
        let cap = end - start;
        let k_i = geom.width_of(i);
        if cap > k_i {
            return Err(invariant(
                BkOffsets,
                format!("set {i} region capacity {cap} exceeds its cap k = {k_i}"),
            ));
        }
        // Strided offsets are the cumulative per-set caps.
        if strided && start != geom.range(i).start {
            return Err(invariant(
                BkOffsets,
                format!("strided layout requires offset {i} = the cumulative caps"),
            ));
        }
        let len = lens[i] as usize;
        if len > cap {
            return Err(invariant(
                BkLens,
                format!("set {i} live length {len} exceeds region capacity {cap}"),
            ));
        }
        if !strided && len != cap {
            return Err(invariant(
                BkLens,
                format!("tight-packed layout requires set {i} length {len} to fill its region"),
            ));
        }
        if set_sizes[i] != sizes[i] {
            return Err(invariant(
                BkSetSizes,
                format!("set {i} recorded size disagrees with the Sizes section"),
            ));
        }
        if (len as u32) > set_sizes[i] {
            return Err(invariant(
                BkLens,
                format!("set {i} holds more samples than its recorded size"),
            ));
        }
        let mut prev_key: Option<u64> = None;
        for t in start..start + len {
            let key = (hashes[t] as u64) << 32 | elems[t] as u64;
            if prev_key.is_some_and(|p| p >= key) {
                return Err(invariant(
                    BkElems,
                    format!("set {i} sample not in strictly ascending (hash, element) order"),
                ));
            }
            prev_key = Some(key);
            if family.hash32(0, elems[t] as u64) != hashes[t] {
                return Err(invariant(
                    BkHashes,
                    format!("set {i} stored hash disagrees with hashing its element"),
                ));
            }
        }
    }
    Ok(BottomKCollectionIn::from_raw_parts(
        elems, hashes, offsets, lens, set_sizes, geom, h.seed, strided,
    ))
}

/// KMV reconstruction: per-sketch lengths bounded by the set's `k` in
/// `geom`, hashes finite, strictly ascending, and inside the unit interval
/// `(0, 1]` (which also rejects NaN), recorded sizes consistent with the
/// Sizes section.
fn decode_kmv<'a>(
    h: &Header,
    entries: &[(SectionKind, u64, u64)],
    payloads: &[&'a [u8]],
    sizes: &[u32],
    geom: SetGeometry<'a>,
) -> Result<KmvCollectionIn<'a>, SnapshotError> {
    use SectionKind::*;
    let n = h.n_sets;
    check_len(KmvLens, entries[2].1, expected_bytes(n, 4)?)?;
    check_len(KmvSetSizes, entries[1].1, expected_bytes(n, 8)?)?;
    let lens = cow_u32s(payloads[2]);
    let set_sizes = cow_u64s(payloads[1]);
    let mut total: u64 = 0;
    for (i, &len) in lens.iter().enumerate() {
        let k_i = geom.width_of(i);
        if len as usize > k_i {
            return Err(invariant(
                KmvLens,
                format!("sketch {i} holds {len} hashes, above its k = {k_i}"),
            ));
        }
        total = total
            .checked_add(len as u64)
            .ok_or_else(|| bad_params("KMV hash counts overflow"))?;
    }
    check_len(KmvHashes, entries[0].1, expected_bytes(total, 8)?)?;
    let hashes = cow_f64s(payloads[0]);
    let mut sketches: Vec<KmvSketchIn<'a>> = Vec::with_capacity(n as usize);
    let mut off = 0usize;
    for i in 0..n as usize {
        if set_sizes[i] != sizes[i] as u64 {
            return Err(invariant(
                KmvSetSizes,
                format!("sketch {i} recorded size disagrees with the Sizes section"),
            ));
        }
        let (start, end) = (off, off + lens[i] as usize);
        off = end;
        let mut prev = 0.0f64;
        for &x in &hashes[start..end] {
            // `unit()` maps into (0, 1]; NaN fails the comparison too.
            if !(x > prev && x <= 1.0) {
                return Err(invariant(
                    KmvHashes,
                    format!("sketch {i} hashes must be strictly ascending inside (0, 1]"),
                ));
            }
            prev = x;
        }
        // Per-sketch views stay zero-copy only when the flat array
        // borrows the wire bytes; an owned decode is re-sliced per sketch.
        let (k_i, size) = (geom.width_of(i), set_sizes[i] as usize);
        sketches.push(match &hashes {
            Cow::Borrowed(all) => KmvSketchIn::from_raw_parts(&all[start..end], k_i, size),
            Cow::Owned(all) => KmvSketchIn::from_raw_parts(all[start..end].to_vec(), k_i, size),
        });
    }
    Ok(KmvCollectionIn::from_sketches(sketches, geom, h.seed))
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

/// Per-section damage status from [`inspect`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionStatus {
    /// Present in full with a matching checksum.
    Ok,
    /// The file ends before the declared payload does.
    Truncated {
        /// Payload bytes actually present.
        available: u64,
    },
    /// Present in full but the checksum does not match.
    ChecksumMismatch,
}

/// One section-table row as seen by [`inspect`].
#[derive(Clone, Debug)]
pub struct SectionReport {
    /// The decoded kind, if the tag is known.
    pub kind: Option<SectionKind>,
    /// The raw tag from the table.
    pub kind_tag: u32,
    /// The payload length the table declares.
    pub declared_len: u64,
    /// Whether the payload survived.
    pub status: SectionStatus,
}

/// Best-effort structural damage report from [`inspect`]. Field-level so
/// recovery tooling can decide what is salvageable; [`SnapshotReport::ok`]
/// collapses it to "would the structural checks pass".
#[derive(Clone, Debug)]
pub struct SnapshotReport {
    /// Total bytes inspected.
    pub len: usize,
    /// Magic bytes matched.
    pub magic_ok: bool,
    /// The version field, when enough bytes exist to read it.
    pub version: Option<u32>,
    /// Magic, version, and header checksum all valid.
    pub header_ok: bool,
    /// The representation tag, when readable.
    pub representation_tag: Option<u32>,
    /// The set count, when readable.
    pub n_sets: Option<u64>,
    /// Section table checksum valid.
    pub table_ok: bool,
    /// One entry per table row that could be read.
    pub sections: Vec<SectionReport>,
}

impl SnapshotReport {
    /// True when every structural check (header, table, each payload
    /// checksum) passed — semantic invariants still run at load.
    pub fn ok(&self) -> bool {
        self.header_ok
            && self.table_ok
            && self.sections.iter().all(|s| s.status == SectionStatus::Ok)
    }
}

/// Surveys a snapshot without constructing anything: which regions are
/// intact, which are damaged, and what the header claims. Never fails —
/// arbitrary bytes yield a report, not an error — so it is safe to run on
/// exactly the files [`ProbGraph::from_snapshot_bytes`] rejects.
pub fn inspect(bytes: &[u8]) -> SnapshotReport {
    let mut r = SnapshotReport {
        len: bytes.len(),
        magic_ok: false,
        version: None,
        header_ok: false,
        representation_tag: None,
        n_sets: None,
        table_ok: false,
        sections: Vec::new(),
    };
    if bytes.len() < HEADER_LEN {
        return r;
    }
    r.magic_ok = bytes[..8] == SNAPSHOT_MAGIC;
    r.version = Some(u32le(bytes, 8));
    r.representation_tag = Some(u32le(bytes, 12));
    r.n_sets = Some(u64le(bytes, 32));
    r.header_ok = r.magic_ok
        && r.version == Some(SNAPSHOT_VERSION)
        && xxh64(&bytes[..HEADER_LEN - 8], CHECKSUM_SEED) == u64le(bytes, HEADER_LEN - 8);
    let count = u32le(bytes, 20).min(MAX_SECTIONS) as usize;
    let table_end = HEADER_LEN + count * ENTRY_LEN + 8;
    if bytes.len() < table_end {
        return r;
    }
    r.table_ok =
        xxh64(&bytes[HEADER_LEN..table_end - 8], CHECKSUM_SEED) == u64le(bytes, table_end - 8);
    let mut off = table_end as u64;
    for i in 0..count {
        let e = HEADER_LEN + i * ENTRY_LEN;
        let tag = u32le(bytes, e);
        let len = u64le(bytes, e + 8);
        let sum = u64le(bytes, e + 16);
        let available = (bytes.len() as u64).saturating_sub(off);
        let status = if available < len {
            SectionStatus::Truncated { available }
        } else if xxh64(&bytes[off as usize..(off + len) as usize], CHECKSUM_SEED) == sum {
            SectionStatus::Ok
        } else {
            SectionStatus::ChecksumMismatch
        };
        r.sections.push(SectionReport {
            kind: SectionKind::from_tag(tag),
            kind_tag: tag,
            declared_len: len,
            status,
        });
        off = off.saturating_add(len);
    }
    r
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

impl<'a> ProbGraphIn<'a> {
    /// Serializes this ProbGraph into the version-3 snapshot format — a
    /// pure in-memory flatten (no I/O). Deterministic: the same store
    /// yields the same bytes, and a loaded snapshot re-serializes to the
    /// identical byte string, whether it was loaded copying or borrowed.
    pub fn snapshot_to_bytes(&self) -> Vec<u8> {
        encode(self)
    }

    /// Reconstructs a graph view that borrows `bytes` wherever alignment
    /// and host endianness allow — the validated wire payloads double as
    /// the live sketch arrays, so an 8-aligned buffer (a mapped file, an
    /// [`AlignedBytes`] receive buffer) is served with no per-array
    /// allocation or copy. Validation is identical to
    /// [`ProbGraph::from_snapshot_bytes`]: the two constructors accept
    /// and reject exactly the same byte strings, and their stores
    /// estimate bit-identically.
    pub fn from_snapshot_bytes_borrowed(bytes: &'a [u8]) -> Result<ProbGraphIn<'a>, SnapshotError> {
        decode_in(bytes)
    }
}

impl ProbGraph {
    /// Reconstructs a ProbGraph from snapshot bytes, validating
    /// everything — framing, checksums, parameter sanity, and the derived
    /// invariants of each store — before any collection is built. Never
    /// panics on malformed input; every failure is a typed
    /// [`SnapshotError`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<ProbGraph, SnapshotError> {
        decode_in(bytes).map(ProbGraphIn::into_owned)
    }

    /// Atomically writes a snapshot to `path`: the bytes go to a fresh
    /// temp file in the same directory, are fsynced, and rename over the
    /// destination (followed by a best-effort directory fsync), so a
    /// crash at any point leaves either the previous file or the complete
    /// new one.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let bytes = self.snapshot_to_bytes();
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => Path::new(".").to_path_buf(),
        };
        let stem = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "snapshot".to_string());
        let tmp = dir.join(format!(".{stem}.tmp.{}", std::process::id()));
        let write_tmp = (|| -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()
        })();
        if let Err(e) = write_tmp.and_then(|()| fs::rename(&tmp, path)) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        // Durability of the rename itself; failures here do not make the
        // snapshot unreadable, so they are not surfaced.
        if let Ok(d) = File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Reads and validates a snapshot file —
    /// [`ProbGraph::from_snapshot_bytes`] over [`std::fs::read`].
    pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<ProbGraph, SnapshotError> {
        ProbGraph::from_snapshot_bytes(&fs::read(path)?)
    }
}

// ---------------------------------------------------------------------------
// Zero-copy loading: mmap and aligned receive buffers
// ---------------------------------------------------------------------------

/// A byte buffer whose base is 8-aligned, so a snapshot received into it
/// (e.g. off a socket during sketch exchange) decodes zero-copy through
/// [`ProbGraphIn::from_snapshot_bytes_borrowed`] exactly like a mapped
/// file. `Vec<u8>` makes no alignment promise; this wraps a `Vec<u64>`.
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl std::fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBytes")
            .field("len", &self.len)
            .finish()
    }
}

impl AlignedBytes {
    /// A zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> AlignedBytes {
        AlignedBytes {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// Copies `bytes` into a fresh aligned buffer.
    pub fn copy_from(bytes: &[u8]) -> AlignedBytes {
        let mut buf = AlignedBytes::zeroed(bytes.len());
        buf.copy_from_slice(bytes);
        buf
    }
}

impl std::ops::Deref for AlignedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `words` owns ≥ `len` initialized bytes at its base.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

impl std::ops::DerefMut for AlignedBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `Deref`, and `&mut self` guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }
}

/// Minimal read-only `mmap(2)` binding — the workspace takes no external
/// dependencies, and only snapshot loading needs the syscall.
#[cfg(unix)]
mod mmap_raw {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

#[cfg(unix)]
struct MmapBuf {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is private and read-only (PROT_READ | MAP_PRIVATE),
// exclusively owned by this buffer until `munmap` runs in Drop.
#[cfg(unix)]
unsafe impl Send for MmapBuf {}
#[cfg(unix)]
unsafe impl Sync for MmapBuf {}

#[cfg(unix)]
impl MmapBuf {
    fn map(file: &File, len: usize) -> std::io::Result<MmapBuf> {
        use std::os::fd::AsRawFd;
        if len == 0 {
            // mmap rejects zero-length mappings; an empty snapshot file
            // still deserves the same typed TooShort error as empty bytes.
            return Ok(MmapBuf {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        let ptr = unsafe {
            mmap_raw::mmap(
                std::ptr::null_mut(),
                len,
                mmap_raw::PROT_READ,
                mmap_raw::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(MmapBuf { ptr, len })
    }

    fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: the mapping spans exactly `len` readable bytes and
        // outlives this borrow (munmap only runs in Drop).
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
    }
}

#[cfg(unix)]
impl Drop for MmapBuf {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: `ptr`/`len` are the exact values mmap returned.
            unsafe { mmap_raw::munmap(self.ptr, self.len) };
        }
    }
}

/// A snapshot file mapped read-only and validated in place — the mapping
/// guard returned by [`load_snapshot_mmap`].
///
/// Page-aligned mapping base + the v2 coarsest-first section order means
/// [`SnapshotMapping::graph`] serves the sketch arrays straight out of
/// the page cache with no per-array copy. The graph view borrows the
/// mapping, so the guard must outlive it; decoding runs per call (its
/// cost is checksumming, which the eager validation in
/// [`load_snapshot_mmap`] has already proven will succeed).
#[cfg(unix)]
pub struct SnapshotMapping {
    buf: MmapBuf,
}

#[cfg(unix)]
impl SnapshotMapping {
    /// The raw mapped snapshot bytes.
    pub fn bytes(&self) -> &[u8] {
        self.buf.bytes()
    }

    /// Decodes a graph view borrowing the mapped bytes — zero-copy on
    /// little-endian hosts. Validation is identical to
    /// [`ProbGraph::from_snapshot_bytes`].
    pub fn graph(&self) -> Result<ProbGraphIn<'_>, SnapshotError> {
        decode_in(self.buf.bytes())
    }
}

/// Maps a snapshot file read-only and validates it in place, without
/// reading it into an allocation. Corruption surfaces here, eagerly, with
/// the same typed [`SnapshotError`]s as [`ProbGraph::load_snapshot`];
/// the returned guard's [`SnapshotMapping::graph`] then cannot fail for
/// reasons other than the file changing underneath the mapping.
#[cfg(unix)]
pub fn load_snapshot_mmap<P: AsRef<Path>>(path: P) -> Result<SnapshotMapping, SnapshotError> {
    let file = File::open(path)?;
    let len = usize::try_from(file.metadata()?.len())
        .map_err(|_| bad_params("snapshot exceeds address space"))?;
    let mapping = SnapshotMapping {
        buf: MmapBuf::map(&file, len)?,
    };
    mapping.graph()?;
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pg::{PgConfig, Representation};
    use pg_graph::gen;

    fn sample(rep: Representation) -> ProbGraph {
        let g = gen::erdos_renyi_gnm(60, 400, 3);
        ProbGraph::build(&g, &PgConfig::new(rep, 0.3))
    }

    #[test]
    fn header_layout_is_64_bytes() {
        let bytes = sample(Representation::Hll).snapshot_to_bytes();
        assert_eq!(&bytes[..8], &SNAPSHOT_MAGIC);
        assert_eq!(u32le(&bytes, 8), SNAPSHOT_VERSION);
        assert_eq!(u32le(&bytes, 12), 5); // Hll tag
        assert_eq!(u64le(&bytes, 32), 60); // n_sets
        assert_eq!(
            u64le(&bytes, 56),
            xxh64(&bytes[..56], CHECKSUM_SEED),
            "header checksum covers the first 56 bytes"
        );
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        for rep in [
            Representation::Bloom { b: 2 },
            Representation::CountingBloom { b: 2 },
            Representation::KHash,
            Representation::OneHash,
            Representation::Kmv,
            Representation::Hll,
        ] {
            let pg = sample(rep);
            let bytes = pg.snapshot_to_bytes();
            let back =
                ProbGraph::from_snapshot_bytes(&bytes).unwrap_or_else(|e| panic!("{rep:?}: {e}"));
            assert_eq!(back.snapshot_to_bytes(), bytes, "{rep:?}");
            assert_eq!(back.params(), pg.params(), "{rep:?}");
            assert_eq!(back.seed(), pg.seed(), "{rep:?}");
            assert_eq!(back.sizes(), pg.sizes(), "{rep:?}");
        }
    }

    #[test]
    fn empty_probgraph_roundtrips() {
        let g = pg_graph::CsrGraph::from_edges(0, &[]);
        for rep in [Representation::Bloom { b: 1 }, Representation::OneHash] {
            let pg = ProbGraph::build(&g, &PgConfig::new(rep, 0.2));
            let bytes = pg.snapshot_to_bytes();
            let back = ProbGraph::from_snapshot_bytes(&bytes).expect("empty snapshot loads");
            assert!(back.is_empty());
            assert_eq!(back.snapshot_to_bytes(), bytes);
        }
    }

    /// Recomputes every checksum (payloads, table, header) after a test
    /// mutates payload bytes in place — so semantic validation is what
    /// rejects the file, not the checksums.
    fn reseal(bytes: &mut [u8]) {
        let count = u32le(bytes, 20) as usize;
        let table_end = HEADER_LEN + count * ENTRY_LEN + 8;
        let mut off = table_end;
        for i in 0..count {
            let e = HEADER_LEN + i * ENTRY_LEN;
            let len = u64le(bytes, e + 8) as usize;
            let sum = xxh64(&bytes[off..off + len], CHECKSUM_SEED);
            bytes[e + 16..e + 24].copy_from_slice(&sum.to_le_bytes());
            off += len;
        }
        let tsum = xxh64(&bytes[HEADER_LEN..table_end - 8], CHECKSUM_SEED);
        bytes[table_end - 8..table_end].copy_from_slice(&tsum.to_le_bytes());
        let hsum = xxh64(&bytes[..HEADER_LEN - 8], CHECKSUM_SEED);
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&hsum.to_le_bytes());
    }

    fn stratified_sample(rep: Representation) -> ProbGraph {
        // Dense enough that every stratum's byte share clears the floors,
        // so the build genuinely resolves multiple strata.
        let g = gen::erdos_renyi_gnm(800, 24_000, 3);
        ProbGraph::build(
            &g,
            &PgConfig::stratified(rep, 0.3, pg_sketch::StrataSpec::skewed_default()),
        )
    }

    #[test]
    fn stratified_roundtrip_is_bit_identical() {
        let g = gen::erdos_renyi_gnm(800, 24_000, 3);
        for rep in [
            Representation::Bloom { b: 2 },
            Representation::CountingBloom { b: 2 },
            Representation::KHash,
            Representation::OneHash,
            Representation::Kmv,
            Representation::Hll,
        ] {
            let pg = stratified_sample(rep);
            let sp = pg
                .stratified_params()
                .unwrap_or_else(|| panic!("{rep:?}: expected a stratified build"))
                .clone();
            assert!(sp.n_strata() > 1, "{rep:?}");
            let bytes = pg.snapshot_to_bytes();
            assert_eq!(
                u32le(&bytes, 12) & REP_STRATIFIED,
                REP_STRATIFIED,
                "{rep:?}: stratified flag set on the wire"
            );
            let back =
                ProbGraph::from_snapshot_bytes(&bytes).unwrap_or_else(|e| panic!("{rep:?}: {e}"));
            assert_eq!(back.snapshot_to_bytes(), bytes, "{rep:?}");
            assert_eq!(back.params(), pg.params(), "{rep:?}");
            assert_eq!(back.stratified_params(), Some(&sp), "{rep:?}");
            assert_eq!(back.sizes(), pg.sizes(), "{rep:?}");
            for (u, v) in g.edges().take(200) {
                assert_eq!(
                    back.estimate_intersection(u, v),
                    pg.estimate_intersection(u, v),
                    "{rep:?} ({u},{v})"
                );
            }
            // The borrowed (zero-copy) load agrees too.
            let aligned = AlignedBytes::copy_from(&bytes);
            let borrowed = ProbGraphIn::from_snapshot_bytes_borrowed(&aligned)
                .unwrap_or_else(|e| panic!("{rep:?}: {e}"));
            assert_eq!(borrowed.snapshot_to_bytes(), bytes, "{rep:?}");
            assert_eq!(borrowed.stratified_params(), Some(&sp), "{rep:?}");
        }
    }

    #[test]
    fn stratified_hostile_bytes_are_typed_not_panicked() {
        let pg = stratified_sample(Representation::Bloom { b: 2 });
        let bytes = pg.snapshot_to_bytes();
        let payload_base = {
            let count = u32le(&bytes, 20) as usize;
            HEADER_LEN + count * ENTRY_LEN + 8
        };
        // The StratumParams table leads the payloads: 16 bytes per stratum.
        // Corrupt stratum 1's width to a non-power-of-two multiple.
        {
            let mut b = bytes.clone();
            b[payload_base + 16..payload_base + 24].copy_from_slice(&(64u64 * 3).to_le_bytes());
            reseal(&mut b);
            assert!(matches!(
                ProbGraph::from_snapshot_bytes(&b),
                Err(SnapshotError::BadParams { .. } | SnapshotError::SectionLength { .. })
            ));
        }
        // Zero stratum 1's width.
        {
            let mut b = bytes.clone();
            b[payload_base + 16..payload_base + 24].copy_from_slice(&0u64.to_le_bytes());
            reseal(&mut b);
            assert!(matches!(
                ProbGraph::from_snapshot_bytes(&b),
                Err(SnapshotError::BadParams { .. })
            ));
        }
        // Stratum 0 disagreeing with the header's param A.
        {
            let mut b = bytes.clone();
            let w0 = u64le(&b, payload_base);
            b[payload_base..payload_base + 8].copy_from_slice(&(w0 * 2).to_le_bytes());
            reseal(&mut b);
            assert!(matches!(
                ProbGraph::from_snapshot_bytes(&b),
                Err(SnapshotError::BadParams { .. })
            ));
        }
        // Stratum 1's hash count diverging from the header's b.
        {
            let mut b = bytes.clone();
            b[payload_base + 24..payload_base + 32].copy_from_slice(&7u64.to_le_bytes());
            reseal(&mut b);
            assert!(matches!(
                ProbGraph::from_snapshot_bytes(&b),
                Err(SnapshotError::BadParams { .. })
            ));
        }
        // An assignment byte pointing past the stratum table. The assign
        // section is the last payload.
        {
            let mut b = bytes.clone();
            let last = b.len() - 1;
            b[last] = 200;
            reseal(&mut b);
            assert!(matches!(
                ProbGraph::from_snapshot_bytes(&b),
                Err(SnapshotError::InvariantViolation { .. })
            ));
        }
        // Flipping an assignment byte to another *valid* stratum breaks
        // the derived section lengths — the file is internally
        // inconsistent, not silently misloaded.
        {
            let mut b = bytes.clone();
            let last = b.len() - 1;
            b[last] = if b[last] == 0 { 1 } else { 0 };
            reseal(&mut b);
            assert!(ProbGraph::from_snapshot_bytes(&b).is_err());
        }
        // A uniform representation tag carrying stratified sections — the
        // section count no longer matches the uniform layout.
        {
            let mut b = bytes.clone();
            let tag = u32le(&b, 12) & !REP_STRATIFIED;
            b[12..16].copy_from_slice(&tag.to_le_bytes());
            reseal(&mut b);
            assert!(matches!(
                ProbGraph::from_snapshot_bytes(&b),
                Err(SnapshotError::SectionCount { .. })
            ));
        }
    }

    #[test]
    fn obvious_garbage_is_typed_not_panicked() {
        assert!(matches!(
            ProbGraph::from_snapshot_bytes(&[]),
            Err(SnapshotError::TooShort { .. })
        ));
        assert!(matches!(
            ProbGraph::from_snapshot_bytes(&[0u8; 64]),
            Err(SnapshotError::BadMagic)
        ));
        let mut bytes = sample(Representation::KHash).snapshot_to_bytes();
        bytes[9] ^= 1; // version field
        assert!(matches!(
            ProbGraph::from_snapshot_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn inspect_reports_damage_without_failing() {
        let pg = sample(Representation::Bloom { b: 2 });
        let mut bytes = pg.snapshot_to_bytes();
        assert!(inspect(&bytes).ok());
        // Flip one bit inside the BloomWords payload (the first section in
        // the v2 Bloom layout, at the payload base) and inspect again.
        let words_start = HEADER_LEN + 3 * ENTRY_LEN + 8;
        bytes[words_start + 5] ^= 0x10;
        let report = inspect(&bytes);
        assert!(!report.ok());
        assert!(report.header_ok && report.table_ok);
        assert_eq!(report.sections[0].status, SectionStatus::ChecksumMismatch);
        assert_eq!(report.sections[0].kind, Some(SectionKind::BloomWords));
        assert_eq!(report.sections[1].status, SectionStatus::Ok);
        assert_eq!(report.sections[1].kind, Some(SectionKind::Sizes));
        assert_eq!(report.sections[2].status, SectionStatus::Ok);
        // Arbitrary garbage still yields a report.
        assert!(!inspect(&[0xAB; 200]).ok());
        assert!(!inspect(b"tiny").ok());
    }

    #[test]
    fn borrowed_load_matches_copying_load() {
        for rep in [
            Representation::Bloom { b: 2 },
            Representation::CountingBloom { b: 2 },
            Representation::KHash,
            Representation::OneHash,
            Representation::Kmv,
            Representation::Hll,
        ] {
            let pg = sample(rep);
            let bytes = AlignedBytes::copy_from(&pg.snapshot_to_bytes());
            let borrowed = ProbGraphIn::from_snapshot_bytes_borrowed(&bytes)
                .unwrap_or_else(|e| panic!("{rep:?}: {e}"));
            assert_eq!(borrowed.snapshot_to_bytes(), &bytes[..], "{rep:?}");
            assert_eq!(borrowed.sizes(), pg.sizes(), "{rep:?}");
            assert_eq!(borrowed.params(), pg.params(), "{rep:?}");
        }
    }

    #[test]
    fn unaligned_bytes_still_load_borrowed() {
        // Shift the snapshot off 8-alignment: the borrow fast path cannot
        // apply, and the copying fallback must decode identically.
        let pg = sample(Representation::Kmv);
        let bytes = pg.snapshot_to_bytes();
        let mut shifted = AlignedBytes::zeroed(bytes.len() + 1);
        shifted[1..].copy_from_slice(&bytes);
        let back = ProbGraphIn::from_snapshot_bytes_borrowed(&shifted[1..]).expect("loads");
        assert_eq!(back.snapshot_to_bytes(), bytes);
    }

    #[cfg(unix)]
    #[test]
    fn mmap_load_matches_copying_load() {
        let dir = std::env::temp_dir().join(format!("pg-snap-mmap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bloom.pgsnap");
        let pg = sample(Representation::Bloom { b: 2 });
        pg.save_snapshot(&path).unwrap();
        let mapping = load_snapshot_mmap(&path).expect("mmap load");
        let view = mapping.graph().expect("validated at load");
        assert_eq!(view.snapshot_to_bytes(), pg.snapshot_to_bytes());
        assert_eq!(view.sizes(), pg.sizes());
        drop(view);
        drop(mapping);
        // Corruption surfaces at load time, typed.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot_mmap(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
