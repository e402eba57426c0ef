//! What the benchmark reads from `/proc`: per-thread CPU time, the process's
//! peak resident set, and the machine provenance.

use std::collections::BTreeMap;
use std::fs;

/// On-CPU nanoseconds of this process's threads, summed per thread name,
/// from `/proc/self/task/*/schedstat`.
pub fn thread_cpu_ns() -> BTreeMap<String, u64> {
    let mut by_name = BTreeMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return by_name;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        let ns = stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        *by_name.entry(comm.trim().to_string()).or_insert(0) += ns;
    }
    by_name
}

/// CPU nanoseconds spent between two [`thread_cpu_ns`] samples by threads
/// whose name starts with `prefix`. Threads gone by the second sample are
/// not counted.
pub fn cpu_delta_ns(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    prefix: &str,
) -> u64 {
    after
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(name, ns)| ns.saturating_sub(before.get(name).copied().unwrap_or(0)))
        .sum()
}

/// `VmHWM`: the peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Time the hypervisor ran other guests while this machine's CPUs wanted to
/// run, summed over CPUs, from the `steal` column of `/proc/stat`, in
/// USER_HZ ticks (1/100 s on Linux); 0 where it cannot be read.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// CPU model, from the first `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Kernel release.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
pub fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_thread_accumulates_cpu() {
        std::thread::Builder::new()
            .name("perfbench-spin".into())
            .spawn(|| {
                let before = thread_cpu_ns();
                let mut x = 0u64;
                for i in 0..20_000_000u64 {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
                let after = thread_cpu_ns();
                assert!(cpu_delta_ns(&before, &after, "perfbench-spin") > 0);
            })
            .expect("spawn")
            .join()
            .expect("join");
        assert!(peak_rss_mb() > 0.0);
    }
}
