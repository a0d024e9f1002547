//! What the benchmark reads from `/proc`: the process's CPU time and peak
//! memory, and the host's steal time. Linux only, like the box the numbers
//! are gated on.

use std::fs;

/// CPU time (ns) consumed so far by this process: `utime + stime` of
/// `/proc/self/stat`, which covers every thread, exited ones included, so the
/// value never goes backwards. The kernel derives it from on-CPU nanoseconds
/// (hypervisor steal is not in it) and reports it in 10 ms ticks — under 1 %
/// of a round.
pub fn cpu_ns() -> u64 {
    const NS_PER_TICK: u64 = 10_000_000;
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The fields after the parenthesised command name (which may itself hold
    // spaces): state is the first, utime and stime the 12th and 13th.
    let after_name = stat.rsplit(')').next().expect("rsplit yields an item");
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|field| field.parse::<u64>().expect("utime and stime are numbers"))
        .sum();
    ticks * NS_PER_TICK
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Host-wide CPU jiffies: `(steal, total)` from the first line of
/// `/proc/stat`.
pub fn host_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .expect("cpu line in /proc/stat")
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest times are already
    // inside user/nice).
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}
