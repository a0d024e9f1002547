//! The `swift-analysis` CLI: `check` runs the pragma check, the
//! concurrency-topology checker, the message-protocol verifier and the
//! atomic-ordering auditor, prints rustc-style findings, writes the
//! artifacts (topology + protocol DOT/JSON, atomics classification,
//! findings JSON) and exits nonzero on any finding so CI can gate on it.
//! `rules` lists the rule keys for pragma authors.

#![warn(clippy::unwrap_used)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use swift_analysis::{
    atomics, check_pragmas, find_workspace_root, json_escape, protocol, topology, Finding,
    Workspace, KNOWN_RULES, RULE_BUDGET,
};

const USAGE: &str = "usage: swift-analysis <command> [options]

commands:
  check      run the pragma + topology + protocol + atomics checks
  rules      list the rule keys accepted by `swift-lint: allow(...)`

options (check):
  --json             print findings as a JSON array on stdout
  --root <dir>       workspace root (default: walk up from the cwd)
  --out-dir <dir>    artifact directory (default: <root>/target/analysis)
  --budget-ms <n>    fail (rule `budget`) if the whole check takes longer
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("rules") => {
            for rule in KNOWN_RULES {
                println!("{rule}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `check` options.
struct Opts {
    json: bool,
    root: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    budget_ms: Option<u64>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        json: false,
        root: None,
        out_dir: None,
        budget_ms: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--root" => {
                opts.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--out-dir" => {
                opts.out_dir = Some(PathBuf::from(
                    it.next().ok_or("--out-dir needs a directory")?,
                ));
            }
            "--budget-ms" => {
                let v = it.next().ok_or("--budget-ms needs a number")?;
                opts.budget_ms = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--budget-ms: `{v}` is not a number"))?,
                );
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

#[expect(
    clippy::disallowed_methods,
    reason = "the analyzer times its own run against --budget-ms"
)]
fn check(args: &[String]) -> ExitCode {
    let started = Instant::now();
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("swift-analysis: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match opts.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("swift-analysis: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "swift-analysis: failed to load workspace under {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    // Layer: the pragmas every other layer honours.
    let mut findings: Vec<Finding> = ws.files.iter().flat_map(check_pragmas).collect();

    // Layer: the topology checks.
    let report = topology::check(&ws);
    findings.extend(report.findings.iter().cloned());
    if let Some(cycle) = &report.blocking_cycle {
        findings.push(Finding {
            rule: "topology",
            path: "crates/runtime/src/lib.rs".into(),
            line: 0,
            message: format!(
                "cycle of blocking sends through the thread graph: {} — under \
                 `BackpressurePolicy::Block` this can deadlock; acks must flow on \
                 unbounded control channels",
                cycle.join(" -> ")
            ),
        });
    }
    if let Some(cycle) = &report.lock_cycle {
        findings.push(Finding {
            rule: "topology",
            path: "workspace".into(),
            line: 0,
            message: format!(
                "lock-order cycle: {} — two threads can take these mutexes in opposite \
                 orders and deadlock",
                cycle.join(" -> ")
            ),
        });
    }

    // Layer: the protocol verifier.
    let proto = protocol::check(&ws);
    findings.extend(proto.findings.iter().cloned());

    // Layer: the atomic-ordering auditor.
    let atomics_report = atomics::check(&ws);
    findings.extend(atomics_report.findings.iter().cloned());

    // The analyzer's own runtime budget (CI keeps the full check < 10 s so
    // the lint can't rot into the slow path).
    if let Some(budget) = opts.budget_ms {
        let took = started.elapsed().as_millis() as u64;
        if took > budget {
            findings.push(Finding {
                rule: RULE_BUDGET,
                path: "workspace".into(),
                line: 0,
                message: format!(
                    "swift-analysis took {took} ms against a --budget-ms of {budget} — \
                     the analyzer must stay out of CI's slow path"
                ),
            });
        }
    }
    findings.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));

    // Artifacts.
    let out_dir = opts
        .out_dir
        .unwrap_or_else(|| root.join("target").join("analysis"));
    if let Err(e) = write_artifacts(&out_dir, &report, &proto, &atomics_report, &findings) {
        eprintln!(
            "swift-analysis: failed to write artifacts under {}: {e}",
            out_dir.display()
        );
        return ExitCode::from(2);
    }

    if opts.json {
        println!("{}", findings_json(&findings));
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        let nodes: Vec<&str> = {
            let mut seen = Vec::new();
            for n in &report.topology.nodes {
                if !seen.contains(&n.name.as_str()) {
                    seen.push(n.name.as_str());
                }
            }
            seen
        };
        let proto_msgs: usize = proto.automaton.iter().map(|c| c.transitions.len()).sum();
        eprintln!(
            "swift-analysis: {} file(s), {} finding(s); topology: {} thread class(es) [{}], \
             {} channel(s), blocking-send graph {}, lock graph {} ({} edge(s)); protocol: \
             {} channel(s), {} message(s), {} send site(s); atomics: {} site(s) in {} \
             group(s); artifacts in {} ({} ms)",
            ws.files.len(),
            findings.len(),
            nodes.len(),
            nodes.join(", "),
            report.topology.channels.len(),
            if report.blocking_cycle.is_none() {
                "acyclic"
            } else {
                "CYCLIC"
            },
            if report.lock_cycle.is_none() {
                "acyclic"
            } else {
                "CYCLIC"
            },
            report.topology.lock_edges.len(),
            proto.automaton.len(),
            proto_msgs,
            proto.sends.len(),
            atomics_report.sites.len(),
            atomics_report.groups.len(),
            out_dir.display(),
            started.elapsed().as_millis(),
        );
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes `topology.{dot,json}`, `protocol.{dot,json}`, `atomics.json` and
/// `findings.json` under `dir`.
fn write_artifacts(
    dir: &PathBuf,
    report: &topology::TopologyReport,
    proto: &protocol::ProtocolReport,
    atomics_report: &atomics::AtomicsReport,
    findings: &[Finding],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("topology.dot"), topology::to_dot(&report.topology))?;
    std::fs::write(dir.join("topology.json"), topology::to_json(report))?;
    std::fs::write(dir.join("protocol.dot"), protocol::to_dot(proto))?;
    std::fs::write(dir.join("protocol.json"), protocol::to_json(proto))?;
    std::fs::write(dir.join("atomics.json"), atomics::to_json(atomics_report))?;
    std::fs::write(dir.join("findings.json"), findings_json(findings))?;
    Ok(())
}

/// Renders findings as a JSON array (no serde — the workspace is offline).
fn findings_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.path),
            f.line,
            f.rule,
            json_escape(&f.message)
        ));
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out
}
