//! Shared plumbing of the `exp_*` experiment binaries: command-line parsing,
//! tier/core reporting and the common per-mode report lines.
//!
//! Every harness binary speaks the same small dialect — boolean flags
//! (`--smoke`, `--no-churn`), comma-separated lists (`--shards 2,4`) and
//! scalar values (`--ingest-threads 3`) — and prints the same
//! wall/throughput/latency shape per runtime mode. This module is that
//! dialect, written once, so each binary is only its experiment.

use std::time::Duration;
use swift_runtime::RuntimeMetrics;

/// The parsed command line of an `exp_*` binary.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    args: Vec<String>,
}

impl ExpArgs {
    /// Captures the process's command line.
    pub fn parse() -> Self {
        ExpArgs {
            args: std::env::args().collect(),
        }
    }

    /// Builds from an explicit argument vector (tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        ExpArgs { args }
    }

    /// `true` if the boolean flag `name` (e.g. `--smoke`) is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following `name`, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// The `usize` following `name`, or `default` when absent.
    ///
    /// # Panics
    ///
    /// On an unparsable value — harness binaries fail loudly on bad usage.
    pub fn usize_value(&self, name: &str, default: usize) -> usize {
        self.value(name).map_or(default, |s| {
            s.parse()
                .unwrap_or_else(|_| panic!("{name} takes an integer, got {s:?}"))
        })
    }

    /// The comma-separated `usize` list following `name`, if present
    /// (e.g. `--shards 2,4,8`).
    ///
    /// # Panics
    ///
    /// On an unparsable element.
    pub fn usize_list(&self, name: &str) -> Option<Vec<usize>> {
        self.value(name).map(|s| {
            s.split(',')
                .map(|n| {
                    n.parse().unwrap_or_else(|_| {
                        panic!("{name} takes a comma-separated list, got {s:?}")
                    })
                })
                .collect()
        })
    }
}

/// Seconds of a [`Duration`], as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The machine's available parallelism (1 when unknown).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `git describe --always --dirty`, so every trajectory record names the tree
/// it measured; `"unknown"` outside a git checkout.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds since the Unix epoch, for ordering trajectory records.
pub fn unix_time() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The deepest queue high-water across all shards of a run.
pub fn max_queue_depth(metrics: &RuntimeMetrics) -> usize {
    metrics
        .per_shard
        .iter()
        .map(|m| m.max_queue_depth)
        .max()
        .unwrap_or(0)
}

/// The applier queue's high-water of a run (0 in inline mode).
pub fn max_applier_depth(metrics: &RuntimeMetrics) -> usize {
    metrics
        .per_applier
        .iter()
        .map(|m| m.max_queue_depth)
        .max()
        .unwrap_or(0)
}

/// The common report line of one sharded-runtime mode: wall time, event
/// rate, speedup vs a baseline rate, reroute-latency percentiles and the
/// shard/applier queue high-waters. Callers append mode-specific fields
/// (resync counts, resync time) before printing.
pub fn mode_line(
    label: &str,
    pipeline: Duration,
    events: u64,
    base_rate: f64,
    metrics: &RuntimeMetrics,
) -> String {
    let rate = if secs(pipeline) > 0.0 {
        events as f64 / secs(pipeline)
    } else {
        0.0
    };
    format!(
        "  {label:<18}: {:>8.3} s  {:>10.0} ev/s  speedup {:>5.2}x  reroute p50/p99 {:>6}/{:<8} µs  maxdepth {}  adepth {}",
        secs(pipeline),
        rate,
        if base_rate > 0.0 { rate / base_rate } else { 0.0 },
        metrics.reroute_latency.p50,
        metrics.reroute_latency.p99,
        max_queue_depth(metrics),
        max_applier_depth(metrics),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> ExpArgs {
        ExpArgs::from_vec(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_values_and_lists_parse() {
        let a = args(&["exp", "--smoke", "--shards", "2,4", "--ingest-threads", "3"]);
        assert!(a.flag("--smoke"));
        assert!(!a.flag("--no-churn"));
        assert_eq!(a.value("--shards"), Some("2,4"));
        assert_eq!(a.usize_list("--shards"), Some(vec![2, 4]));
        assert_eq!(a.usize_value("--ingest-threads", 1), 3);
        assert_eq!(a.usize_value("--missing", 7), 7);
        assert_eq!(a.usize_list("--missing"), None);
    }

    #[test]
    #[should_panic(expected = "--shards takes a comma-separated list")]
    fn bad_list_fails_loudly() {
        args(&["exp", "--shards", "2,x"]).usize_list("--shards");
    }
}
