//! Tables II & III: empirical verification of the estimator properties.
//!
//! * Asymptotic unbiasedness / consistency: the mean relative error of each
//!   `|X∩Y|` estimator shrinks as the sketch grows (bias → 0).
//! * Concentration bounds: the observed deviation frequency at threshold
//!   `t` never exceeds the paper's bound (Eq. 3 for BF — polynomial;
//!   Eq. 6/7 for MinHash — exponential).

use pg_bench::harness::{print_header, print_row};
use pg_bench::outln;
use pg_sketch::estimators;
use pg_sketch::{BloomFilter, BottomK, MinHashSignature};

fn make_sets(inter: usize, each: usize) -> (Vec<u32>, Vec<u32>) {
    let x: Vec<u32> = (0..each as u32).collect();
    let y: Vec<u32> = ((each - inter) as u32..(2 * each - inter) as u32).collect();
    (x, y)
}

fn main() {
    let (nx, ny, inter) = (600usize, 600usize, 200usize);
    let (x, y) = make_sets(inter, nx);
    let _ = ny;
    outln!("# Tables II/III — estimator properties, |X|=|Y|=600, |X∩Y|=200");
    outln!();
    outln!("## Convergence (asymptotic unbiasedness / consistency)");
    print_header(&[
        "estimator",
        "sketch size",
        "mean estimate (50 seeds)",
        "mean |rel err|",
    ]);
    for size_exp in [10usize, 12, 14, 16] {
        let bits = 1 << size_exp;
        let mut est_sum = 0.0;
        let mut err_sum = 0.0;
        let trials = 50;
        for seed in 0..trials {
            let fx = BloomFilter::from_set(&x, bits, 2, seed);
            let fy = BloomFilter::from_set(&y, bits, 2, seed);
            let e = fx.estimate_intersection_and(&fy);
            est_sum += e;
            err_sum += (e - inter as f64).abs() / inter as f64;
        }
        print_row(&[
            "BF-AND (Eq.2)".into(),
            format!("B=2^{size_exp}"),
            format!("{:.2}", est_sum / trials as f64),
            format!("{:.4}", err_sum / trials as f64),
        ]);
    }
    for k in [32usize, 128, 512, 2048] {
        let mut est_sum = 0.0;
        let mut err_sum = 0.0;
        let trials = 50;
        for seed in 0..trials {
            let sx = MinHashSignature::from_set(&x, k, seed);
            let sy = MinHashSignature::from_set(&y, k, seed);
            let e = sx.estimate_intersection(&sy, x.len(), y.len());
            est_sum += e;
            err_sum += (e - inter as f64).abs() / inter as f64;
        }
        print_row(&[
            "MH-kH (Eq.5, MLE)".into(),
            format!("k={k}"),
            format!("{:.2}", est_sum / trials as f64),
            format!("{:.4}", err_sum / trials as f64),
        ]);
    }
    for k in [32usize, 128, 512] {
        let mut est_sum = 0.0;
        let mut err_sum = 0.0;
        let trials = 50;
        for seed in 0..trials {
            let sx = BottomK::from_set(&x, k, seed);
            let sy = BottomK::from_set(&y, k, seed);
            let e = sx.estimate_intersection(&sy);
            est_sum += e;
            err_sum += (e - inter as f64).abs() / inter as f64;
        }
        print_row(&[
            "MH-1H (§IV-D)".into(),
            format!("k={k}"),
            format!("{:.2}", est_sum / trials as f64),
            format!("{:.4}", err_sum / trials as f64),
        ]);
    }

    outln!();
    outln!("## Concentration bounds (violation frequency vs bound)");
    print_header(&[
        "estimator",
        "t",
        "observed P[dev ≥ t]",
        "paper bound",
        "holds",
    ]);
    let trials = 400u64;
    for t in [40.0f64, 80.0, 160.0] {
        // MinHash k-hash: exponential bound (Eq. 6).
        let k = 256;
        let mut viol = 0;
        for seed in 0..trials {
            let sx = MinHashSignature::from_set(&x, k, seed);
            let sy = MinHashSignature::from_set(&y, k, seed);
            let e = sx.estimate_intersection(&sy, x.len(), y.len());
            if (e - inter as f64).abs() >= t {
                viol += 1;
            }
        }
        let freq = viol as f64 / trials as f64;
        let bound = pg_stats::mh_concentration_bound(k, t, x.len(), y.len());
        print_row(&[
            format!("MH-kH k={k} (E)"),
            format!("{t}"),
            format!("{freq:.4}"),
            format!("{bound:.4}"),
            (freq <= bound + 1e-9).to_string(),
        ]);
        // Bloom AND: polynomial Chebyshev bound (Eq. 3).
        let bits = 1 << 14;
        let b = 2;
        let mut viol = 0;
        for seed in 0..trials {
            let fx = BloomFilter::from_set(&x, bits, b, seed);
            let fy = BloomFilter::from_set(&y, bits, b, seed);
            if (fx.estimate_intersection_and(&fy) - inter as f64).abs() >= t {
                viol += 1;
            }
        }
        let freq = viol as f64 / trials as f64;
        let bound = pg_stats::bf_concentration_bound(inter as f64, bits, b, t);
        print_row(&[
            format!("BF-AND B=2^14 b={b} (P)"),
            format!("{t}"),
            format!("{freq:.4}"),
            format!("{bound:.4}"),
            (freq <= bound + 1e-9).to_string(),
        ]);
    }
    outln!();
    outln!("## Sanity: Eq. (1) single-set estimator");
    let fx = BloomFilter::from_set(&x, 1 << 14, 2, 9);
    outln!(
        "|X|=600, Swamidass estimate = {:.2}, Papapetrou baseline = {:.2}",
        fx.estimate_size(),
        estimators::bf_size_papapetrou(fx.count_ones(), fx.len_bits(), fx.num_hashes())
    );
}
