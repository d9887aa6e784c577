//! Synthetic graph generators.
//!
//! The paper evaluates on (a) real-world graphs from SNAP/KONECT/DIMACS/
//! NetworkRepository/WebGraph (Table VIII) and (b) synthetic Kronecker
//! graphs with power-law degree distributions (§VIII-A). Without network
//! access to those datasets, [`instance`] synthesizes stand-ins matching
//! the published (n, m) and density regime of each named real-world graph,
//! while [`kronecker`] reproduces the synthetic inputs directly.
//!
//! All generators are deterministic in their seed.

mod families;
mod kronecker;
mod models;
mod random;
mod structured;

pub use families::{family_names, instance, FamilyKind, FamilySpec, FAMILIES};
pub use kronecker::{kronecker, kronecker_rmat, RmatParams};
pub use models::{barabasi_albert, planted_partition, watts_strogatz};
pub use random::{chung_lu, erdos_renyi_gnm, erdos_renyi_gnp};
pub use structured::{complete, complete_bipartite, cycle, grid, path, star};
