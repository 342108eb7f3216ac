//! CPU placement: topology discovery against fixture sysfs trees, the
//! pinning failure contract, worker-group placement, and the `--pin`-off
//! zero-syscall equivalence gate.
//!
//! The discovery tests never touch the live machine: each builds a fake
//! `/sys/devices/system/cpu` under the temp dir (an SMT desktop, a
//! 2-node NUMA box, a cgroup-restricted cpuset) and drives
//! [`CpuTopology::from_sysfs`] at it, so they pass identically on a
//! 1-CPU CI container and a 2-socket server.
//!
//! The syscall-facing tests share one process-wide counter
//! ([`pin::affinity_syscalls`]), so every test that may move it — or
//! that asserts it does *not* move — serializes on [`SYSCALLS`].

use altx_serve::pool::{JobMeta, PoolConfig, WorkerPool};
use altx_serve::server::{start, ServerConfig};
use altx_serve::telemetry::Metric;
use altx_serve::topo::{plan_shards, CpuTopology};
use altx_serve::{pin, Lanes};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Serializes tests that read or move the process-wide affinity
/// syscall counter (or the thread affinity itself).
static SYSCALLS: Mutex<()> = Mutex::new(());

fn syscall_guard() -> std::sync::MutexGuard<'static, ()> {
    SYSCALLS.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh fixture root under the temp dir, unique per test.
fn fixture_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("altx-topo-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).expect("create fixture root");
    root
}

/// Adds `cpuN` with the given topology files; `node` also creates the
/// `nodeM` link-directory the kernel exposes inside each cpu dir.
fn add_cpu(root: &Path, id: usize, package: usize, core: usize, node: Option<usize>) {
    let dir = root.join(format!("cpu{id}/topology"));
    fs::create_dir_all(&dir).expect("create cpu dir");
    fs::write(dir.join("physical_package_id"), format!("{package}\n")).unwrap();
    fs::write(dir.join("core_id"), format!("{core}\n")).unwrap();
    if let Some(n) = node {
        fs::create_dir_all(root.join(format!("cpu{id}/node{n}"))).unwrap();
    }
}

/// An 8-thread/4-core single-socket SMT box with the usual Linux
/// numbering: cpu i and cpu i+4 are siblings on physical core i.
fn smt_box() -> PathBuf {
    let root = fixture_root("smt");
    for id in 0..8 {
        add_cpu(&root, id, 0, id % 4, None);
    }
    fs::write(root.join("online"), "0-7\n").unwrap();
    root
}

/// A 2-node NUMA box: node 0 holds cpus 0-3 (socket 0), node 1 holds
/// cpus 4-7 (socket 1), no SMT.
fn numa_box() -> PathBuf {
    let root = fixture_root("numa");
    for id in 0..8 {
        let socket = id / 4;
        add_cpu(&root, id, socket, id % 4, Some(socket));
    }
    fs::write(root.join("online"), "0-7\n").unwrap();
    root
}

#[test]
fn smt_siblings_stay_on_one_physical_core() {
    let root = smt_box();
    let topo = CpuTopology::from_sysfs(&root, None).expect("parse SMT fixture");
    assert_eq!(topo.cpus.len(), 8);
    assert_eq!(topo.nodes(), 1);
    assert_eq!(
        topo.physical_cores(),
        vec![vec![0, 4], vec![1, 5], vec![2, 6], vec![3, 7]],
        "hyperthread pairs group under their physical core"
    );

    let plan = plan_shards(&topo, 4);
    assert!(plan.disjoint);
    assert_eq!(plan.cores, 4);
    for (i, set) in plan.shards.iter().enumerate() {
        assert_eq!(
            set,
            &vec![i, i + 4],
            "each shard owns one whole core, both siblings"
        );
    }

    let plan = plan_shards(&topo, 2);
    assert_eq!(plan.shards, vec![vec![0, 4, 1, 5], vec![2, 6, 3, 7]]);
}

#[test]
fn numa_shards_land_on_single_nodes() {
    let root = numa_box();
    let topo = CpuTopology::from_sysfs(&root, None).expect("parse NUMA fixture");
    assert_eq!(topo.nodes(), 2);

    let plan = plan_shards(&topo, 2);
    assert!(plan.disjoint);
    assert_eq!(plan.nodes, 2);
    assert_eq!(
        plan.shards,
        vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
        "node-major layout keeps each shard on one node's cpus"
    );

    // 4 shards across 2 nodes: still disjoint, still node-pure.
    let plan = plan_shards(&topo, 4);
    assert!(plan.disjoint);
    for set in &plan.shards {
        let topo_nodes: Vec<usize> = set
            .iter()
            .map(|id| topo.cpus.iter().find(|c| c.id == *id).unwrap().node)
            .collect();
        assert!(
            topo_nodes.windows(2).all(|w| w[0] == w[1]),
            "shard {set:?} spans nodes {topo_nodes:?}"
        );
    }
}

#[test]
fn restricted_cpuset_narrows_discovery() {
    let root = numa_box();
    // A cgroup cpuset (or inherited taskset) of {2,3,6}: discovery must
    // only see those cpus, and the plan must only hand out those cpus.
    let topo = CpuTopology::from_sysfs(&root, Some(&[2, 3, 6])).expect("parse restricted");
    let ids: Vec<usize> = topo.cpus.iter().map(|c| c.id).collect();
    assert_eq!(ids, vec![2, 3, 6]);
    let plan = plan_shards(&topo, 2);
    let union = plan.union();
    assert!(union.iter().all(|id| [2, 3, 6].contains(id)));

    // A mask that excludes every present cpu is an error, not a panic
    // and not an empty plan.
    let err = CpuTopology::from_sysfs(&root, Some(&[64, 65])).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
}

#[test]
fn online_cpulist_wins_but_malformed_falls_back_to_dirs() {
    let root = smt_box();
    fs::write(root.join("online"), "0-2\n").unwrap();
    let topo = CpuTopology::from_sysfs(&root, None).expect("parse trimmed online");
    let ids: Vec<usize> = topo.cpus.iter().map(|c| c.id).collect();
    assert_eq!(ids, vec![0, 1, 2], "the online cpulist is authoritative");

    fs::write(root.join("online"), "not-a-cpulist\n").unwrap();
    let topo = CpuTopology::from_sysfs(&root, None).expect("fall back to cpuN dirs");
    assert_eq!(topo.cpus.len(), 8, "malformed online degrades to listing");
}

#[test]
fn sparse_tree_defaults_instead_of_failing() {
    // Only bare cpuN dirs, no topology files, no node links, no online
    // file: every cpu defaults to package 0 / core = id / node 0.
    let root = fixture_root("sparse");
    for id in 0..3 {
        fs::create_dir_all(root.join(format!("cpu{id}"))).unwrap();
    }
    let topo = CpuTopology::from_sysfs(&root, None).expect("parse sparse tree");
    assert_eq!(topo.cpus.len(), 3);
    assert_eq!(topo.nodes(), 1);
    assert_eq!(topo.physical_cores().len(), 3, "no SMT assumed");
}

#[cfg(target_os = "linux")]
#[test]
fn refused_pin_logs_and_leaves_affinity_untouched() {
    let _g = syscall_guard();
    let before = pin::current_affinity().expect("getaffinity works on Linux");
    // CPU 1023 almost certainly does not exist here: the kernel answers
    // EINVAL. Inside a locked-down container the same call may draw
    // EPERM. Either way the contract is identical — report false, leave
    // the thread unpinned, never abort.
    assert!(!pin::pin_current_thread("topo-test", &[pin::MAX_CPUS - 1]));
    assert_eq!(
        pin::current_affinity().expect("still readable"),
        before,
        "a refused pin must not change the running mask"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn pinned_pool_places_each_worker_group_on_its_cores() {
    let _g = syscall_guard();
    let avail = pin::current_affinity().expect("getaffinity works on Linux");
    if avail.len() < 2 {
        eprintln!("skipping: needs >= 2 cpus, have {}", avail.len());
        return;
    }
    // Two worker groups, each pinned to half the available cpus.
    let mid = avail.len() / 2;
    let sets = vec![avail[..mid].to_vec(), avail[mid..].to_vec()];
    // Stealing stays off so each probe provably runs on its own
    // group's worker (a stolen probe would report the thief's mask).
    let pool = WorkerPool::with_config(PoolConfig {
        groups: 2,
        pin_cores: Some(sets.clone()),
        ..PoolConfig::fifo(2, 64)
    });
    // Each group's lone worker reports its own mask from inside a job.
    let (tx, rx) = mpsc::channel::<(usize, Vec<usize>)>();
    for group in 0..2 {
        let tx = tx.clone();
        pool.try_submit_at(
            Box::new(move || {
                let mask = pin::current_affinity().unwrap_or_default();
                let _ = tx.send((group, mask));
            }),
            JobMeta {
                group,
                ..JobMeta::default()
            },
        )
        .expect("submit probe job");
    }
    for _ in 0..2 {
        let (group, mask) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("probe job ran");
        assert_eq!(
            mask, sets[group],
            "group {group}'s worker runs on exactly its assigned cpus"
        );
    }
    pool.shutdown();
}

#[test]
fn pin_off_server_makes_zero_affinity_syscalls() {
    let _g = syscall_guard();
    let before = pin::affinity_syscalls();
    // A representative pin-off config: sharded, stealing, laned — every
    // subsystem that *could* pin, with pinning left at the default.
    let server = start(ServerConfig {
        shards: 2,
        workers: 2,
        steal: true,
        lanes: Lanes::parse("rt:trivial;batch:sleep").expect("valid lane spec"),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    server.shutdown();
    assert_eq!(
        pin::affinity_syscalls(),
        before,
        "--pin off must mean zero affinity syscalls, not pin-to-everything"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn pin_on_server_starts_serves_and_counts_placement() {
    let _g = syscall_guard();
    let before = pin::affinity_syscalls();
    let server = start(ServerConfig {
        shards: 2,
        workers: 2,
        steal: true,
        pin: true,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let telemetry = server.telemetry();
    server.shutdown();
    // Discovery alone costs one counted getaffinity; each successful
    // thread pin adds a set. In a restrictive sandbox the pins may all
    // be refused — the daemon must still come up and drain cleanly —
    // so only the discovery floor is asserted unconditionally.
    assert!(
        pin::affinity_syscalls() > before,
        "--pin at least attempts discovery"
    );
    let snap = telemetry.snapshot();
    assert!(
        snap[Metric::PinnedShards] <= 2,
        "pinned shard gauge never exceeds the shard count"
    );
}
