//! Host cache-topology probe.
//!
//! The 4-clique kernel's prefetch strides by its line size, the exchange
//! resolves it before forking workers, and [`tile_bytes`] derives the
//! serving layer's per-lane byte floor from it.
//!
//! Topology is probed once from Linux sysfs
//! (`/sys/devices/system/cpu/cpu0/cache/index*/`). When sysfs is absent
//! (non-Linux hosts, stripped containers) the fallback is a documented
//! conservative modern-x86/ARM shape: 32 KiB L1d, 1 MiB L2, 32 MiB L3,
//! 64-byte lines — every mainstream server core since ~2015 has at least
//! this much.

use std::sync::OnceLock;

/// Per-core data-cache sizes and the line size, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheTopology {
    /// L1 data cache capacity.
    pub l1d_bytes: usize,
    /// Unified L2 capacity (per core on most parts).
    pub l2_bytes: usize,
    /// Last-level cache capacity (often shared across cores).
    pub l3_bytes: usize,
    /// Coherency line size.
    pub line_bytes: usize,
}

/// Documented fallback when no probe source is available.
const FALLBACK: CacheTopology = CacheTopology {
    l1d_bytes: 32 * 1024,
    l2_bytes: 1024 * 1024,
    l3_bytes: 32 * 1024 * 1024,
    line_bytes: 64,
};

fn read_sysfs(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Parses sysfs cache sizes: either plain bytes or a `K`/`M`-suffixed count.
fn parse_size(s: &str) -> Option<usize> {
    let t = s.trim();
    if let Some(k) = t.strip_suffix(['K', 'k']) {
        return k.parse::<usize>().ok().map(|v| v * 1024);
    }
    if let Some(m) = t.strip_suffix(['M', 'm']) {
        return m.parse::<usize>().ok().map(|v| v * 1024 * 1024);
    }
    t.parse::<usize>().ok()
}

fn probe_sysfs() -> Option<CacheTopology> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut topo = CacheTopology {
        l1d_bytes: 0,
        l2_bytes: 0,
        l3_bytes: 0,
        line_bytes: 0,
    };
    let entries = std::fs::read_dir(base).ok()?;
    for entry in entries.flatten() {
        let p = entry.path();
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("index") {
            continue;
        }
        let dir = p.to_str()?;
        let level: usize = read_sysfs(&format!("{dir}/level"))?.trim().parse().ok()?;
        let kind = read_sysfs(&format!("{dir}/type")).unwrap_or_default();
        let kind = kind.trim();
        // Skip instruction caches; keep data + unified levels.
        if kind == "Instruction" {
            continue;
        }
        let size = read_sysfs(&format!("{dir}/size")).and_then(|s| parse_size(&s));
        if let Some(sz) = size {
            match level {
                1 => topo.l1d_bytes = sz,
                2 => topo.l2_bytes = sz,
                3 => topo.l3_bytes = sz,
                _ => {}
            }
        }
        if topo.line_bytes == 0 {
            if let Some(line) =
                read_sysfs(&format!("{dir}/coherency_line_size")).and_then(|s| parse_size(&s))
            {
                topo.line_bytes = line;
            }
        }
    }
    if topo.l1d_bytes == 0 {
        return None;
    }
    if topo.l2_bytes == 0 {
        topo.l2_bytes = FALLBACK.l2_bytes;
    }
    if topo.l3_bytes == 0 {
        topo.l3_bytes = topo.l2_bytes.max(FALLBACK.l2_bytes);
    }
    if topo.line_bytes == 0 {
        topo.line_bytes = FALLBACK.line_bytes;
    }
    Some(topo)
}

/// The host cache topology, probed once from sysfs with a documented
/// fallback (32 KiB / 1 MiB / 32 MiB, 64 B lines) when no probe works.
pub fn cache_topology() -> CacheTopology {
    static TOPOLOGY: OnceLock<CacheTopology> = OnceLock::new();
    *TOPOLOGY.get_or_init(|| probe_sysfs().unwrap_or(FALLBACK))
}

/// The coherency line size in bytes (probed, ≥ 16). Prefetch loops stride by
/// this instead of a hardcoded 64 so 128-byte-line hosts issue one prefetch
/// per actual line.
pub fn cache_line_bytes() -> usize {
    cache_topology().line_bytes.max(16)
}

/// Half the probed L2, clamped to 64 KiB–4 MiB. `probgraph::serving`
/// caps its default shard count so that each lane owns at least this
/// many sketch bytes. perfbench reports it as `grain.tile_bytes`, under
/// the name of the tiled sweep it once sized.
pub fn tile_bytes() -> usize {
    (cache_topology().l2_bytes / 2).clamp(64 * 1024, 4 * 1024 * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_is_sane() {
        let t = cache_topology();
        assert!(t.l1d_bytes >= 4 * 1024, "l1d {}", t.l1d_bytes);
        assert!(t.l2_bytes >= t.l1d_bytes);
        assert!(t.l3_bytes >= t.l2_bytes);
        assert!(t.line_bytes >= 16 && t.line_bytes <= 1024);
        assert!(t.line_bytes.is_power_of_two());
    }

    #[test]
    fn parse_size_handles_suffixes() {
        assert_eq!(parse_size("32K"), Some(32 * 1024));
        assert_eq!(parse_size("1M\n"), Some(1024 * 1024));
        assert_eq!(parse_size("65536"), Some(65536));
        assert_eq!(parse_size("bogus"), None);
    }

    #[test]
    fn tile_bytes_default_is_positive_and_l2_scaled() {
        let t = tile_bytes();
        assert!(t >= 1);
    }
}
