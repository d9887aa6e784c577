//! Dataset selection shared by the experiment binaries.

use pg_graph::{gen, CsrGraph};

/// Reads `PG_SCALE` (≥ 1); `default` applies only when it is unset. A
/// set value that is not a positive integer ends the process with a
/// message naming it, so a typo never runs the default scale unnoticed.
pub fn env_scale(default: usize) -> usize {
    let value = std::env::var_os("PG_SCALE").map(|v| v.to_string_lossy().into_owned());
    parse_scale(value.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Parses a `PG_SCALE` value: `None` (unset) is `default`, a positive
/// integer is itself, and anything else is an error naming the value.
fn parse_scale(value: Option<&str>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(v) => match v.parse::<usize>() {
            Ok(s) if s >= 1 => Ok(s),
            _ => Err(format!("PG_SCALE={v:?} is not a positive integer")),
        },
    }
}

/// A representative subset of the Table VIII stand-ins spanning the
/// paper's graph classes (biological power-law, dense economic, DIMACS
/// near-complete, chemistry mesh, social) at the given down-scale.
pub fn real_world_suite(scale: usize) -> Vec<(&'static str, CsrGraph)> {
    [
        "bio-SC-GT",
        "bio-CE-PG",
        "bio-SC-HT",
        "bio-HS-LC",
        "econ-beacxc",
        "econ-mbeacxc",
        "econ-orani678",
        "bn-mouse_brain_1",
        "dimacs-c500-9",
        "soc-fbMsg",
    ]
    .into_iter()
    .map(|name| {
        (
            name,
            gen::instance(name, scale).unwrap_or_else(|| panic!("unknown family {name}")),
        )
    })
    .collect()
}

/// Kronecker graphs of increasing scale (the synthetic suite of
/// Figs. 4–5 bottom panels).
pub fn kronecker_suite(max_scale: u32, edge_factor: usize) -> Vec<(String, CsrGraph)> {
    (8..=max_scale)
        .map(|s| {
            (
                format!("kron-2^{s}-ef{edge_factor}"),
                gen::kronecker(s, edge_factor, 0x4b52 ^ s as u64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_build() {
        let rw = real_world_suite(50);
        assert_eq!(rw.len(), 10);
        for (name, g) in &rw {
            assert!(g.num_edges() > 0, "{name}");
        }
        let kr = kronecker_suite(9, 4);
        assert_eq!(kr.len(), 2);
    }

    #[test]
    fn env_scale_default() {
        assert_eq!(parse_scale(None, 7), Ok(7));
        assert_eq!(parse_scale(Some("4"), 7), Ok(4));
    }

    #[test]
    fn bad_scale_is_an_error_naming_the_value() {
        for bad in ["0", "abc", "-1", "", " 4", "4.0"] {
            let err = parse_scale(Some(bad), 7).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{bad:?}: {err}");
        }
    }
}
