//! Timing utilities following the paper's benchmarking methodology
//! (§VIII-A: warmup discarded, medians with non-parametric CIs).

use std::io::Write;
use std::time::Instant;

/// A timed result.
#[derive(Clone, Copy, Debug)]
pub struct Timed<T> {
    /// The value the closure produced (last repetition).
    pub value: T,
    /// Median wall-clock seconds across repetitions.
    pub seconds: f64,
}

/// Times one execution (no warmup — for construction-style one-offs).
pub fn time_once<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let t0 = Instant::now();
    let value = f();
    Timed {
        value,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Runs `f` once as warmup (discarded, as the paper discards the first 1 %
/// of measurements), then `reps` measured times; reports the median.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> Timed<T> {
    assert!(reps >= 1);
    let _warmup = f();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Timed {
        value: last.unwrap(),
        seconds: times[times.len() / 2],
    }
}

/// Writes one line to stdout — every line the bench binaries print goes
/// through here. A reader that closes the pipe early (`fig3 | head`)
/// ends the process quietly with status 0; any other write error panics.
pub fn write_line(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `println!` for the bench binaries: formats one line and writes it
/// through [`harness::write_line`](crate::harness::write_line).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::harness::write_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::harness::write_line(format_args!($($arg)*))
    };
}

/// Prints a markdown table header.
pub fn print_header(cols: &[&str]) {
    outln!("| {} |", cols.join(" | "));
    outln!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Prints one markdown row.
pub fn print_row(cells: &[String]) {
    outln!("| {} |", cells.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_measures_and_returns() {
        let t = time_once(|| {
            let mut s = 0u64;
            for i in 0..100_000u64 {
                s = s.wrapping_add(i * i);
            }
            s
        });
        assert!(t.seconds >= 0.0);
        assert!(t.value > 0);
    }

    #[test]
    fn time_median_runs_warmup_plus_reps() {
        let mut calls = 0;
        let t = time_median(3, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 4); // 1 warmup + 3 measured
        assert_eq!(t.value, 4);
    }
}
