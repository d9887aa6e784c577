//! Synthetic stand-ins for the real-world datasets of Table VIII.
//!
//! The paper evaluates on named SNAP/KONECT/DIMACS/NetworkRepository graphs.
//! Those files are not redistributable inside this repository (and there is
//! no network access), so each named graph is replaced by a synthetic graph
//! with the *same vertex count, edge count, and density regime*:
//!
//! * biological / social / interaction graphs → Chung–Lu power law
//!   (heavy-tailed, like the originals),
//! * economic matrices → uniform Erdős–Rényi at the same density (these
//!   matrices are near-regular with little locality),
//! * chemistry / scientific-computing matrices → Watts–Strogatz small
//!   world (near-regular meshes whose adjacent rows overlap heavily),
//! * DIMACS instances and the brain network → dense G(n, m) (the originals
//!   are near-complete: e.g. `bn-mouse_brain_1` has 96 % of all pairs).
//!
//! The quantities the paper's conclusions depend on — average degree m/n,
//! degree skew, and absolute size — are matched, class by class as
//! listed above. Every family is deterministic (fixed seed).

use crate::csr::CsrGraph;
use crate::gen::models::watts_strogatz;
use crate::gen::random::{chung_lu, erdos_renyi_gnm};

/// How a family synthesizes its graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FamilyKind {
    /// Chung–Lu with the given power-law exponent γ.
    PowerLaw(f64),
    /// Uniform G(n, m).
    Uniform,
    /// Watts–Strogatz small world (near-regular mesh with high local
    /// clustering) — the right regime for chemistry/scientific-computing
    /// matrices, whose rows overlap heavily with their neighbors'.
    SmallWorld,
}

/// A named dataset stand-in: the published (n, m) of the original graph
/// plus the synthesis recipe.
#[derive(Clone, Copy, Debug)]
pub struct FamilySpec {
    /// Name of the original graph in Table VIII.
    pub name: &'static str,
    /// Vertex count of the original.
    pub n: usize,
    /// Edge count of the original.
    pub m: usize,
    /// Synthesis recipe.
    pub kind: FamilyKind,
}

use FamilyKind::{PowerLaw, SmallWorld, Uniform};

/// All dataset stand-ins, mirroring the graphs on the x-axis of Figs. 6–7
/// and the accuracy study of Fig. 3.
pub const FAMILIES: &[FamilySpec] = &[
    FamilySpec {
        name: "bio-SC-GT",
        n: 1_700,
        m: 34_000,
        kind: PowerLaw(2.2),
    },
    FamilySpec {
        name: "bio-CE-PG",
        n: 1_900,
        m: 48_000,
        kind: PowerLaw(2.2),
    },
    FamilySpec {
        name: "bio-CE-GN",
        n: 2_200,
        m: 53_700,
        kind: PowerLaw(2.2),
    },
    FamilySpec {
        name: "bio-DM-CX",
        n: 4_000,
        m: 77_000,
        kind: PowerLaw(2.2),
    },
    FamilySpec {
        name: "bio-DR-CX",
        n: 3_300,
        m: 85_000,
        kind: PowerLaw(2.2),
    },
    FamilySpec {
        name: "bio-HS-LC",
        n: 4_200,
        m: 39_000,
        kind: PowerLaw(2.2),
    },
    FamilySpec {
        name: "bio-HS-CX",
        n: 4_400,
        m: 108_800,
        kind: PowerLaw(2.2),
    },
    FamilySpec {
        name: "bio-SC-HT",
        n: 2_000,
        m: 63_000,
        kind: PowerLaw(2.2),
    },
    FamilySpec {
        name: "bio-WormNet-v3",
        n: 16_300,
        m: 762_800,
        kind: PowerLaw(2.1),
    },
    FamilySpec {
        name: "econ-psmigr1",
        n: 3_100,
        m: 543_000,
        kind: Uniform,
    },
    FamilySpec {
        name: "econ-psmigr2",
        n: 3_100,
        m: 540_000,
        kind: Uniform,
    },
    FamilySpec {
        name: "econ-beacxc",
        n: 498,
        m: 50_400,
        kind: Uniform,
    },
    FamilySpec {
        name: "econ-beaflw",
        n: 508,
        m: 53_400,
        kind: Uniform,
    },
    FamilySpec {
        name: "econ-mbeacxc",
        n: 493,
        m: 49_900,
        kind: Uniform,
    },
    FamilySpec {
        name: "econ-orani678",
        n: 2_500,
        m: 90_100,
        kind: Uniform,
    },
    FamilySpec {
        name: "bn-mouse_brain_1",
        n: 213,
        m: 21_800,
        kind: Uniform,
    },
    FamilySpec {
        name: "dimacs-hat1500-3",
        n: 1_500,
        m: 847_000,
        kind: Uniform,
    },
    FamilySpec {
        name: "dimacs-c500-9",
        n: 501,
        m: 112_000,
        kind: Uniform,
    },
    FamilySpec {
        name: "ch-SiO",
        n: 33_400,
        m: 675_500,
        kind: SmallWorld,
    },
    FamilySpec {
        name: "ch-Si10H16",
        n: 17_000,
        m: 446_500,
        kind: SmallWorld,
    },
    FamilySpec {
        name: "int-citAsPh",
        n: 17_900,
        m: 197_000,
        kind: PowerLaw(2.3),
    },
    FamilySpec {
        name: "sc-ThermAB",
        n: 10_600,
        m: 522_400,
        kind: SmallWorld,
    },
    FamilySpec {
        name: "soc-fbMsg",
        n: 1_900,
        m: 13_800,
        kind: PowerLaw(2.3),
    },
];

/// Names of all families, in Table VIII order.
pub fn family_names() -> Vec<&'static str> {
    FAMILIES.iter().map(|f| f.name).collect()
}

fn seed_for(name: &str) -> u64 {
    // Stable per-name seed so each family is reproducible independently.
    let mut s = 0x0DA7_A5E7_u64;
    for b in name.bytes() {
        s = pg_hash::splitmix64_at(s ^ b as u64);
    }
    s
}

/// Builds the stand-in graph for `name`, optionally scaled down.
///
/// `scale = 1` reproduces the published (n, m). Larger scales divide both
/// by `scale` (preserving density m/n), which the test suite uses to keep
/// runtimes small. Returns `None` for unknown names.
pub fn instance(name: &str, scale: usize) -> Option<CsrGraph> {
    let spec = FAMILIES.iter().find(|f| f.name == name)?;
    let scale = scale.max(1);
    let n = (spec.n / scale).max(16);
    let mut m = (spec.m / scale).max(16);
    let max_m = n * (n - 1) / 2;
    m = m.min(max_m);
    let seed = seed_for(name);
    Some(match spec.kind {
        PowerLaw(gamma) => chung_lu(n, m, gamma, seed),
        Uniform => erdos_renyi_gnm(n, m, seed),
        SmallWorld => {
            // Ring lattice with m/n neighbors per side-pair, 5 % rewiring:
            // keeps the published density and gives the strong neighborhood
            // overlap of mesh-like matrices.
            let k_half = (m / n).clamp(1, (n - 1) / 2);
            watts_strogatz(n, k_half, 0.05, seed)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_builds_at_small_scale() {
        for f in FAMILIES {
            let g = instance(f.name, 20).unwrap_or_else(|| panic!("{} missing", f.name));
            assert!(g.num_vertices() >= 16, "{}", f.name);
            assert!(g.num_edges() > 0, "{}", f.name);
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(instance("no-such-graph", 1).is_none());
    }

    #[test]
    fn full_scale_matches_published_sizes() {
        // Check one power-law and one uniform family at scale 1.
        let g = instance("bio-CE-PG", 1).unwrap();
        assert_eq!(g.num_vertices(), 1_900);
        let m = g.num_edges() as f64;
        assert!((m - 48_000.0).abs() < 0.15 * 48_000.0, "m={m}");

        let h = instance("econ-beacxc", 1).unwrap();
        assert_eq!(h.num_vertices(), 498);
        assert_eq!(h.num_edges(), 50_400);
    }

    #[test]
    fn power_law_families_are_skewed_uniform_are_not() {
        let pl = instance("bio-CE-PG", 4).unwrap();
        let skew_pl = pl.max_degree() as f64 / pl.avg_degree();
        let un = instance("econ-beacxc", 4).unwrap();
        let skew_un = un.max_degree() as f64 / un.avg_degree();
        assert!(skew_pl > skew_un, "pl={skew_pl} un={skew_un}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(instance("soc-fbMsg", 4), instance("soc-fbMsg", 4));
    }

    #[test]
    fn family_names_unique() {
        let names = family_names();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
