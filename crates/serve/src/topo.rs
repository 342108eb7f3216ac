//! CPU topology discovery and shard placement planning.
//!
//! [`CpuTopology`] reads the machine's shape from
//! `/sys/devices/system/cpu`: which CPUs exist, which package and
//! physical core each belongs to (SMT siblings share a core), and
//! which NUMA node holds its local memory — intersected with the
//! affinity mask actually available to the process (a cgroup cpuset or
//! an inherited taskset narrows what "the machine" means for us).
//! The parser takes the sysfs root as a parameter, so `tests/topo.rs`
//! drives it against fixture trees (an SMT desktop, a 2-node NUMA box,
//! a restricted cpuset) without needing that hardware.
//!
//! [`plan_shards`] turns a topology into one core set per shard:
//!
//! * **SMT siblings stay together** — a shard owns whole physical
//!   cores, so its reactor and workers never share an execution core
//!   with another shard's.
//! * **NUMA locality** — cores are laid out node-major before they are
//!   chunked, so a shard's cores land on one node whenever the shard
//!   count divides the node count; the shard's ring and pool memory is
//!   then first-touched from those cores and stays node-local.
//! * **Graceful spill** — more shards than physical cores wraps the
//!   assignment (shards share cores, round-robin) instead of failing;
//!   fewer shards than cores spreads the spare cores across shards.
//!
//! Discovery failures are never fatal: `--pin` degrades to the
//! unpinned daemon with a logged warning. See `pin.rs` for the same
//! contract at the syscall layer.

use std::io;
use std::path::Path;

/// One logical CPU's place in the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuInfo {
    /// Logical CPU id (the `cpuN` index, what affinity masks name).
    pub id: usize,
    /// Physical package (socket) id.
    pub package: usize,
    /// Physical core id within the package; SMT siblings share it.
    pub core: usize,
    /// NUMA node whose memory is local to this CPU.
    pub node: usize,
}

/// The set of CPUs available to this process, with their topology.
#[derive(Debug, Clone, Default)]
pub struct CpuTopology {
    /// Available CPUs, ascending by id.
    pub cpus: Vec<CpuInfo>,
}

impl CpuTopology {
    /// Discovers the live machine: `/sys/devices/system/cpu` narrowed
    /// by the process's current affinity mask. Only called on the
    /// `--pin` path — it makes one `sched_getaffinity` syscall.
    pub fn discover() -> io::Result<CpuTopology> {
        let affinity = crate::pin::current_affinity()?;
        CpuTopology::from_sysfs(Path::new("/sys/devices/system/cpu"), Some(&affinity))
    }

    /// Parses a sysfs `cpu/` tree rooted at `root`, keeping only CPUs
    /// named in `affinity` (when given). Missing per-CPU files degrade
    /// to defaults (package 0, core = cpu id, node 0) rather than
    /// failing: a sparse tree still yields a usable plan.
    pub fn from_sysfs(root: &Path, affinity: Option<&[usize]>) -> io::Result<CpuTopology> {
        let ids = list_cpus(root)?;
        let mut cpus = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(allowed) = affinity {
                if !allowed.contains(&id) {
                    continue;
                }
            }
            let cpu_dir = root.join(format!("cpu{id}"));
            let package = read_usize(&cpu_dir.join("topology/physical_package_id")).unwrap_or(0);
            let core = read_usize(&cpu_dir.join("topology/core_id")).unwrap_or(id);
            let node = node_of(&cpu_dir).unwrap_or(0);
            cpus.push(CpuInfo {
                id,
                package,
                core,
                node,
            });
        }
        if cpus.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no usable CPUs after applying the affinity mask",
            ));
        }
        Ok(CpuTopology { cpus })
    }

    /// Distinct NUMA nodes represented.
    pub fn nodes(&self) -> usize {
        let mut nodes: Vec<usize> = self.cpus.iter().map(|c| c.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// Physical cores, node-major (`(node, package, core)` order), each
    /// carrying its SMT siblings' CPU ids ascending.
    pub fn physical_cores(&self) -> Vec<Vec<usize>> {
        let mut keyed: Vec<((usize, usize, usize), usize)> = self
            .cpus
            .iter()
            .map(|c| ((c.node, c.package, c.core), c.id))
            .collect();
        keyed.sort_unstable();
        let mut cores: Vec<Vec<usize>> = Vec::new();
        let mut last_key = None;
        for (key, id) in keyed {
            if last_key != Some(key) {
                cores.push(Vec::new());
                last_key = Some(key);
            }
            cores.last_mut().expect("just pushed").push(id);
        }
        cores
    }
}

/// One shard's assigned CPUs, plus what the assignment had to work
/// with — the daemon banner prints this and tests assert on it.
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    /// Shard index → CPU ids (whole physical cores, SMT siblings
    /// included).
    pub shards: Vec<Vec<usize>>,
    /// Physical cores the topology offered.
    pub cores: usize,
    /// NUMA nodes the topology spans.
    pub nodes: usize,
    /// Whether shard core sets are pairwise disjoint (false only when
    /// shards outnumber physical cores and the plan had to spill).
    pub disjoint: bool,
}

impl PlacementPlan {
    /// Every CPU the plan uses, ascending, deduplicated — the one
    /// worker group of a pool that does not steal pins to this union.
    pub fn union(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self.shards.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// Assigns `n_shards` core sets from `topo`. See the module docs for
/// the three rules (SMT together, node-major chunks, wrap on spill).
pub fn plan_shards(topo: &CpuTopology, n_shards: usize) -> PlacementPlan {
    let cores = topo.physical_cores();
    let n_cores = cores.len();
    let n_shards = n_shards.max(1);
    let mut shards: Vec<Vec<usize>> = Vec::with_capacity(n_shards);
    let disjoint = n_shards <= n_cores;
    if disjoint {
        // Contiguous node-major chunks, remainder cores to the earliest
        // shards: |chunk_i| differs by at most one.
        let base = n_cores / n_shards;
        let extra = n_cores % n_shards;
        let mut at = 0;
        for i in 0..n_shards {
            let take = base + usize::from(i < extra);
            let set: Vec<usize> = cores[at..at + take].iter().flatten().copied().collect();
            shards.push(set);
            at += take;
        }
    } else {
        // Spill: shards wrap around the core list and share cores.
        for i in 0..n_shards {
            shards.push(cores[i % n_cores].clone());
        }
    }
    PlacementPlan {
        shards,
        cores: n_cores,
        nodes: topo.nodes(),
        disjoint,
    }
}

/// The CPU ids the tree describes: the `online` cpulist when present,
/// otherwise every `cpuN` directory.
fn list_cpus(root: &Path) -> io::Result<Vec<usize>> {
    if let Ok(text) = std::fs::read_to_string(root.join("online")) {
        if let Some(ids) = parse_cpulist(&text) {
            return Ok(ids);
        }
    }
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(n) = name.strip_prefix("cpu") {
            if let Ok(id) = n.parse::<usize>() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// Parses the kernel's cpulist format: `0-3,5,8-9`. `None` on any
/// malformed piece (the caller falls back to directory listing).
fn parse_cpulist(text: &str) -> Option<Vec<usize>> {
    let text = text.trim();
    if text.is_empty() {
        return None;
    }
    let mut ids = Vec::new();
    for part in text.split(',') {
        let part = part.trim();
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo.trim().parse().ok()?;
                let hi: usize = hi.trim().parse().ok()?;
                if hi < lo {
                    return None;
                }
                ids.extend(lo..=hi);
            }
            None => ids.push(part.parse().ok()?),
        }
    }
    ids.sort_unstable();
    ids.dedup();
    Some(ids)
}

/// The NUMA node of one `cpuN/` directory: the `nodeM` entry the
/// kernel links into it. `None` when the tree has no node links
/// (single-node machines often do not).
fn node_of(cpu_dir: &Path) -> Option<usize> {
    for entry in std::fs::read_dir(cpu_dir).ok()? {
        let name = entry.ok()?.file_name();
        let name = name.to_string_lossy();
        if let Some(n) = name.strip_prefix("node") {
            if let Ok(id) = n.parse::<usize>() {
                return Some(id);
            }
        }
    }
    None
}

fn read_usize(path: &Path) -> Option<usize> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpulist_parses_ranges_and_singles() {
        assert_eq!(parse_cpulist("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpulist("0,2,4"), Some(vec![0, 2, 4]));
        assert_eq!(parse_cpulist("0-1,4,6-7\n"), Some(vec![0, 1, 4, 6, 7]));
        assert_eq!(parse_cpulist(""), None);
        assert_eq!(parse_cpulist("3-1"), None);
        assert_eq!(parse_cpulist("x"), None);
    }

    fn flat_topo(n: usize) -> CpuTopology {
        CpuTopology {
            cpus: (0..n)
                .map(|id| CpuInfo {
                    id,
                    package: 0,
                    core: id,
                    node: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn plan_is_disjoint_and_covers_when_shards_fit() {
        let plan = plan_shards(&flat_topo(8), 3);
        assert!(plan.disjoint);
        assert_eq!(plan.shards.len(), 3);
        let sizes: Vec<usize> = plan.shards.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2], "remainder cores go to early shards");
        assert_eq!(plan.union().len(), 8, "every core is used exactly once");
    }

    #[test]
    fn plan_spills_by_wrapping_when_shards_exceed_cores() {
        let plan = plan_shards(&flat_topo(2), 5);
        assert!(!plan.disjoint);
        assert_eq!(plan.shards.len(), 5);
        assert_eq!(plan.shards[0], plan.shards[2]);
        assert_eq!(plan.shards[1], plan.shards[3]);
        assert_eq!(plan.shards[0], plan.shards[4]);
        assert_ne!(plan.shards[0], plan.shards[1]);
    }
}
