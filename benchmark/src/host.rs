//! What ran, on what: the host block every report carries, plus peak
//! memory and per-node NUMA counters read from the kernel.

use std::collections::BTreeMap;
use std::path::Path;

const NODE_DIR: &str = "/sys/devices/system/node";

/// CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// NUMA nodes listed under `/sys/devices/system/node` (0 when the kernel
/// exposes none).
pub fn numa_nodes() -> usize {
    node_dirs().len()
}

fn node_dirs() -> Vec<std::path::PathBuf> {
    let Ok(entries) = std::fs::read_dir(NODE_DIR) else {
        return Vec::new();
    };
    let mut dirs: Vec<_> = entries
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.strip_prefix("node").is_some_and(|id| id.parse::<u32>().is_ok())
        })
        .map(|e| e.path())
        .collect();
    dirs.sort();
    dirs
}

/// The `numastat` counters of every node, summed over nodes.
pub fn numastat() -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for dir in node_dirs() {
        let Ok(text) = std::fs::read_to_string(dir.join("numastat")) else {
            continue;
        };
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            if let (Some(key), Some(Ok(value))) =
                (parts.next(), parts.next().map(str::parse::<u64>))
            {
                *totals.entry(key.to_string()).or_insert(0u64) += value;
            }
        }
    }
    totals
}

/// Share of page allocations placed off the allocating CPU's node between
/// two [`numastat`] readings, or `None` ("n/a") on a single-node host,
/// where every allocation is local by construction.
pub fn other_node_frac(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> Option<f64> {
    if numa_nodes() < 2 {
        return None;
    }
    let delta = |k: &str| {
        after.get(k).copied().unwrap_or(0).saturating_sub(before.get(k).copied().unwrap_or(0))
    };
    let (local, other) = (delta("local_node"), delta("other_node"));
    Some(other as f64 / (local + other).max(1) as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The commit the checkout was made from, when it is a git work tree;
/// `unknown` otherwise (the benchmark runs no git commands).
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map_or_else(|_| format!("{reference} (unresolved)"), |rev| rev.trim().to_string()),
        None => head,
    }
}

/// The build profile this binary was compiled with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
