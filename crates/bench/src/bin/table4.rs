//! Table IV: work of the `|N_u ∩ N_v|` kernels — measured operation counts
//! against the paper's formulas `O(d_u + d_v)` (merge), `O(d_u log d_v)`
//! (galloping), `O(B/W)` (BF), `O(k)` (MinHash), plus measured runtimes of
//! each kernel on equal-budget sketches.

use pg_bench::harness::{print_header, print_row, time_median};
use pg_bench::outln;
use pg_graph::gen;
use pg_sketch::{BloomCollection, BottomKCollection};
use probgraph::intersect::{gallop_count, merge_count};
use probgraph::workdepth;

fn main() {
    outln!("# Table IV — |N_u ∩ N_v| kernel work");
    outln!();
    print_header(&[
        "d_u",
        "d_v",
        "merge ops (≤ d_u+d_v)",
        "gallop ops (≈ d_u·log d_v)",
        "BF ops (B/W, B=2048)",
        "MH ops (k=64)",
    ]);
    let g = gen::erdos_renyi_gnm(4000, 4000 * 64, 3);
    let pairs = [(0u32, 1u32), (10, 2000), (42, 3999)];
    for (u, v) in pairs {
        let (nu, nv) = (g.neighbors(u), g.neighbors(v));
        let (s, l) = if nu.len() <= nv.len() {
            (nu, nv)
        } else {
            (nv, nu)
        };
        print_row(&[
            nu.len().to_string(),
            nv.len().to_string(),
            format!(
                "{} (bound {})",
                workdepth::merge_ops(nu, nv),
                nu.len() + nv.len()
            ),
            format!("{}", workdepth::gallop_ops(s, l)),
            format!("{}", workdepth::bf_intersect_ops(2048)),
            format!("{}", workdepth::mh_intersect_ops(64)),
        ]);
    }

    outln!();
    outln!("## Measured kernel latency (same pair, ns/op; sketches at B=2048 bits / k=64)");
    print_header(&["kernel", "ns per intersection"]);
    let n = g.num_vertices();
    let bloom = BloomCollection::build(n, 2048, 2, 7, |i| g.neighbors(i as u32));
    let bk = BottomKCollection::build(n, 64, 7, |i| g.neighbors(i as u32));
    let reps = 20_000usize;
    let t = time_median(3, || {
        let mut acc = 0usize;
        for i in 0..reps {
            let u = (i * 7919) % n;
            let v = (i * 104_729) % n;
            acc += merge_count(g.neighbors(u as u32), g.neighbors(v as u32));
        }
        acc
    });
    print_row(&[
        "CSR merge".into(),
        format!("{:.1}", t.seconds / reps as f64 * 1e9),
    ]);
    let t = time_median(3, || {
        let mut acc = 0usize;
        for i in 0..reps {
            let u = (i * 7919) % n;
            let v = (i * 104_729) % n;
            let (a, b) = (g.neighbors(u as u32), g.neighbors(v as u32));
            let (s, l) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            acc += gallop_count(s, l);
        }
        acc
    });
    print_row(&[
        "CSR gallop".into(),
        format!("{:.1}", t.seconds / reps as f64 * 1e9),
    ]);
    let t = time_median(3, || {
        let mut acc = 0usize;
        for i in 0..reps {
            acc += bloom.and_ones((i * 7919) % n, (i * 104_729) % n);
        }
        acc
    });
    print_row(&[
        "BF AND+popcnt".into(),
        format!("{:.1}", t.seconds / reps as f64 * 1e9),
    ]);
    let t = time_median(3, || {
        let mut acc = 0usize;
        for i in 0..reps {
            acc += bk.matches((i * 7919) % n, (i * 104_729) % n);
        }
        acc
    });
    print_row(&[
        "MH 1-hash merge".into(),
        format!("{:.1}", t.seconds / reps as f64 * 1e9),
    ]);
}
