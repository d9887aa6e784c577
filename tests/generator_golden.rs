//! Golden generator digests: the edge lists the random generators produce,
//! pinned as constants.
//!
//! `gen::chung_lu`, `gen::erdos_renyi_gnm` and `gen::kronecker` feed every
//! benchmark and most tests; a faster endpoint draw, dedup or CSR build
//! must leave each of their graphs unchanged for every seed. This suite
//! pins `(num_edges, xxh64 of edge_list())` for each generator at three
//! seeds and two sizes, plus one Chung–Lu case that runs out of its
//! `50 × m_target` attempt cap before reaching `m_target` distinct edges.
//! The edge list is hashed as little-endian `u32` pairs in `edges()` order.
//! The constants are recorded once and must never be edited to make a
//! change pass.

use pg_graph::{gen, CsrGraph};
use pg_hash::xxh64;

fn digest(g: &CsrGraph) -> (usize, u64) {
    let bytes: Vec<u8> = g
        .edges()
        .flat_map(|(u, v)| u.to_le_bytes().into_iter().chain(v.to_le_bytes()))
        .collect();
    (g.num_edges(), xxh64(&bytes, 0))
}

/// `(case, seed, num_edges, digest)`.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, usize, u64); 19] = [
    ("chung_lu(600, 6000, 2.1)", 1, 6000, 17367862361841947198),
    ("chung_lu(600, 6000, 2.1)", 2, 6000, 5027664215707078646),
    ("chung_lu(600, 6000, 2.1)", 3, 6000, 14512756441730360211),
    ("chung_lu(4096, 65536, 2.5)", 1, 65536, 8563943463768063901),
    ("chung_lu(4096, 65536, 2.5)", 2, 65536, 13744987594304602668),
    ("chung_lu(4096, 65536, 2.5)", 3, 65536, 4178993949322910929),
    ("erdos_renyi_gnm(300, 20000)", 1, 20000, 10071464428903153280),
    ("erdos_renyi_gnm(300, 20000)", 2, 20000, 15216858345780667386),
    ("erdos_renyi_gnm(300, 20000)", 3, 20000, 2739986385225975230),
    ("erdos_renyi_gnm(4096, 65536)", 1, 65536, 13447438814254951128),
    ("erdos_renyi_gnm(4096, 65536)", 2, 65536, 11977054477538102769),
    ("erdos_renyi_gnm(4096, 65536)", 3, 65536, 9772454722847209598),
    ("kronecker(10, 8)", 1, 6062, 14462270974089643691),
    ("kronecker(10, 8)", 2, 6101, 15502017300197314352),
    ("kronecker(10, 8)", 3, 6047, 6774439577295884195),
    ("kronecker(13, 16)", 1, 102146, 143299422010552567),
    ("kronecker(13, 16)", 2, 102002, 5855430125977472726),
    ("kronecker(13, 16)", 3, 101998, 11516303215402264442),
    ("chung_lu(1000, 5000, 1.5) capped", 4, 2434, 7657767471627635540),
];

fn generate(case: &str, seed: u64) -> CsrGraph {
    match case {
        "chung_lu(600, 6000, 2.1)" => gen::chung_lu(600, 6_000, 2.1, seed),
        "chung_lu(4096, 65536, 2.5)" => gen::chung_lu(1 << 12, 1 << 16, 2.5, seed),
        "erdos_renyi_gnm(300, 20000)" => gen::erdos_renyi_gnm(300, 20_000, seed),
        "erdos_renyi_gnm(4096, 65536)" => gen::erdos_renyi_gnm(1 << 12, 1 << 16, seed),
        "kronecker(10, 8)" => gen::kronecker(10, 8, seed),
        "kronecker(13, 16)" => gen::kronecker(13, 16, seed),
        "chung_lu(1000, 5000, 1.5) capped" => gen::chung_lu(1000, 5_000, 1.5, seed),
        other => unreachable!("unknown case {other}"),
    }
}

#[test]
fn generator_edge_lists_match_golden_digests() {
    let got: Vec<_> = GOLDEN
        .iter()
        .map(|&(case, seed, ..)| {
            let (m, d) = digest(&generate(case, seed));
            (case, seed, m, d)
        })
        .collect();
    let mismatched: Vec<String> = GOLDEN
        .iter()
        .zip(&got)
        .filter(|(want, have)| want != have)
        .map(|(want, have)| format!("want {want:?}\n  got {have:?}"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} of {} golden edge lists changed:\n{}",
        mismatched.len(),
        GOLDEN.len(),
        mismatched.join("\n")
    );
}

#[test]
fn capped_case_runs_out_of_attempts() {
    // The attempt cap, not `m_target`, must end this draw: fewer than
    // 5000 edges, and fewer than all of the 1000·999/2 pairs.
    let g = gen::chung_lu(1000, 5_000, 1.5, 4);
    assert!(g.num_edges() < 5_000, "m = {}", g.num_edges());
}
