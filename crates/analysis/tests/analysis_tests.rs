//! Fixture tests for the pragma check, the topology checks, the protocol
//! verifier and the atomics auditor, plus the workspace self-check: the real
//! tree must be clean and its extracted topology must match the runtime's
//! documented shape.
//!
//! The fixtures live under `tests/fixtures/` (a subdirectory, so cargo does
//! not compile them as test targets — several contain deliberate
//! violations). Each is checked under a synthetic workspace-relative path
//! that puts it in the right scope.

use std::path::{Path, PathBuf};
use swift_analysis::{atomics, check_pragmas, protocol, topology, Finding, SourceFile, Workspace};

/// The mini ShardMsg spec the protocol violation fixtures are checked
/// against (the real spec needs the full two-channel mirror in
/// `protocol_ok.rs`).
const MINI_SPEC: &str = "\
channel ShardMsg
state Running initial
state Stopped final
msg Batch kind=data Running -> Running
msg Barrier kind=lifecycle broadcast=shard_txs Running -> Running
msg Shutdown kind=lifecycle broadcast=shard_txs terminal Running -> Stopped
";

/// Runs the protocol verifier over a fixture (as runtime source) against
/// the mini spec.
fn protocol_check(name: &str) -> protocol::ProtocolReport {
    let spec = protocol::parse_spec(MINI_SPEC).expect("mini spec parses");
    let f = SourceFile::parse("crates/runtime/src/worker.rs", &fixture(name));
    protocol::check_files(&spec, &[&f])
}

/// Runs the atomics auditor over a fixture (as runtime source).
fn atomics_check(name: &str) -> atomics::AtomicsReport {
    let f = SourceFile::parse("crates/runtime/src/lib.rs", &fixture(name));
    atomics::check_files(&[&f])
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn pragma_rule_flags_malformed_unknown_and_reasonless() {
    let f = SourceFile::parse("crates/core/src/fixture.rs", &fixture("pragmas.rs"));
    let findings = check_pragmas(&f);
    assert_eq!(count(&findings, "pragma"), 3, "{findings:?}");
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn unbounded_channel_fires_once_even_with_turbofish() {
    let f = SourceFile::parse("crates/runtime/src/lib.rs", &fixture("unbounded.rs"));
    let report = topology::check_files(&[&f], &[&f]);
    let unbounded: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.message.contains("is unbounded"))
        .collect();
    assert_eq!(
        unbounded.len(),
        1,
        "control bindings, sync_channel and test code must not fire: {:#?}",
        report.findings
    );
    assert_eq!(unbounded[0].line, 10, "the VIOLATION line");
}

#[test]
fn lifecycle_send_fires_only_on_lifecycle_payloads() {
    let report = protocol_check("lifecycle_send.rs");
    assert_eq!(
        report.findings.len(),
        1,
        "shedding data batches, blocking lifecycle sends and the pragma'd probe \
         are fine: {:#?}",
        report.findings
    );
    let finding = &report.findings[0];
    assert_eq!((finding.rule, finding.line), ("protocol", 18));
    assert!(
        finding.message.contains("`ShardMsg::Barrier`"),
        "{finding:?}"
    );
    assert!(finding.message.contains("never shed"), "{finding:?}");
}

#[test]
fn topology_detects_a_blocking_send_cycle() {
    let f = SourceFile::parse(
        "crates/runtime/src/lib.rs",
        &fixture("topology_blocking_cycle.rs"),
    );
    let report = topology::check_files(&[&f], &[&f]);
    let cycle = report
        .blocking_cycle
        .expect("bounded ack channel closes a coordinator <-> worker cycle");
    assert!(
        cycle.contains(&"coordinator".to_string()) && cycle.contains(&"swift-worker".to_string()),
        "cycle names both nodes: {cycle:?}"
    );
    assert!(report.lock_cycle.is_none());
}

#[test]
fn topology_accepts_the_unbounded_ack_shape() {
    let f = SourceFile::parse("crates/runtime/src/lib.rs", &fixture("topology_ok.rs"));
    let report = topology::check_files(&[&f], &[&f]);
    assert!(
        report.blocking_cycle.is_none(),
        "{:?}",
        report.blocking_cycle
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let keys: Vec<&str> = report
        .topology
        .channels
        .iter()
        .map(|c| c.key.as_str())
        .collect();
    assert!(
        keys.contains(&"ShardMsg") && keys.contains(&"barrier"),
        "{keys:?}"
    );
}

#[test]
fn topology_detects_a_lock_order_cycle() {
    let f = SourceFile::parse(
        "crates/core/src/tables.rs",
        &fixture("topology_lock_cycle.rs"),
    );
    let report = topology::check_files(&[], &[&f]);
    let cycle = report
        .lock_cycle
        .expect("opposite acquisition orders cycle");
    assert!(
        cycle.contains(&"routing".to_string()) && cycle.contains(&"forwarding".to_string()),
        "{cycle:?}"
    );
}

#[test]
fn protocol_full_mirror_is_clean_against_the_real_spec() {
    let spec_text = fixture("../../protocol/runtime.protocol");
    let spec = protocol::parse_spec(&spec_text).expect("real spec parses");
    let f = SourceFile::parse("crates/runtime/src/worker.rs", &fixture("protocol_ok.rs"));
    let report = protocol::check_files(&spec, &[&f]);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.automaton.len(), 2);
    for chan in &report.automaton {
        for t in &chan.transitions {
            assert!(
                t.sends >= 1 && t.recv_arms >= 1,
                "{}::{} unobserved in the mirror fixture",
                chan.name,
                t.msg.name
            );
        }
    }
}

#[test]
fn protocol_missed_broadcast_is_flagged() {
    let report = protocol_check("protocol_missed_broadcast.rs");
    assert_eq!(
        count(&report.findings, "protocol"),
        1,
        "{:#?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("broadcast loop"));
    assert!(report.findings[0].message.contains("Barrier"));
}

#[test]
fn protocol_post_shutdown_send_is_flagged() {
    let report = protocol_check("protocol_post_shutdown.rs");
    assert_eq!(
        count(&report.findings, "protocol"),
        1,
        "{:#?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("terminal"));
    assert!(report.findings[0].message.contains("Batch"));
}

#[test]
fn protocol_wildcard_arm_is_flagged() {
    let report = protocol_check("protocol_wildcard_arm.rs");
    assert_eq!(
        count(&report.findings, "protocol-wildcard"),
        1,
        "{:#?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "protocol" && f.message.contains("no arm for `ShardMsg::Barrier`")),
        "the uncovered variant is reported too: {:#?}",
        report.findings
    );
}

#[test]
fn atomics_relaxed_flag_pair_is_flagged_on_both_sides() {
    let report = atomics_check("atomics_flag_relaxed.rs");
    let g = report.group("shutdown").expect("flag grouped");
    assert_eq!((g.role, g.verdict), ("flag", "unsound"));
    assert_eq!(
        count(&report.findings, "atomic-ordering"),
        2,
        "{:#?}",
        report.findings
    );
}

#[test]
fn atomics_unpaired_release_store_flags_only_the_relaxed_load() {
    let report = atomics_check("atomics_unpaired.rs");
    let g = report.group("epoch").expect("flag grouped");
    assert_eq!((g.role, g.verdict), ("flag", "unsound"));
    assert_eq!(
        count(&report.findings, "atomic-ordering"),
        1,
        "{:#?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("Acquire"));
}

/// End-to-end exit codes through the real binary: 0 on the clean workspace,
/// 1 on a synthetic workspace with a violation, 2 on usage errors.
#[test]
fn cli_exit_codes_gate_correctly() {
    let bin = env!("CARGO_BIN_EXE_swift-analysis");
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let scratch = std::env::temp_dir().join(format!("swift-analysis-test-{}", std::process::id()));

    let clean = std::process::Command::new(bin)
        .args(["check", "--budget-ms", "10000", "--root"])
        .arg(&root)
        .arg("--out-dir")
        .arg(scratch.join("artifacts"))
        .output()
        .expect("binary runs");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    for artifact in [
        "topology.dot",
        "topology.json",
        "protocol.dot",
        "protocol.json",
        "atomics.json",
        "findings.json",
    ] {
        assert!(
            scratch.join("artifacts").join(artifact).is_file(),
            "missing artifact {artifact}"
        );
    }

    // An impossible budget turns the otherwise-clean run into exit 1 with a
    // `budget` finding on the JSON stream.
    let over_budget = std::process::Command::new(bin)
        .args(["check", "--json", "--budget-ms", "0", "--root"])
        .arg(&root)
        .arg("--out-dir")
        .arg(scratch.join("budget-artifacts"))
        .output()
        .expect("binary runs");
    assert_eq!(over_budget.status.code(), Some(1));
    let json = String::from_utf8_lossy(&over_budget.stdout);
    assert!(json.contains("\"rule\": \"budget\""), "{json}");

    // A synthetic workspace with one violation must exit 1 and report it on
    // the JSON stream.
    let dirty = scratch.join("dirty");
    std::fs::create_dir_all(dirty.join("crates/x/src")).expect("mkdir");
    std::fs::write(dirty.join("Cargo.toml"), "[workspace]\n").expect("manifest");
    std::fs::write(
        dirty.join("crates/x/src/lib.rs"),
        fixture("atomics_flag_relaxed.rs"),
    )
    .expect("source");
    let violating = std::process::Command::new(bin)
        .args(["check", "--json", "--root"])
        .arg(&dirty)
        .arg("--out-dir")
        .arg(scratch.join("dirty-artifacts"))
        .output()
        .expect("binary runs");
    assert_eq!(violating.status.code(), Some(1));
    let json = String::from_utf8_lossy(&violating.stdout);
    assert!(json.contains("\"rule\": \"atomic-ordering\""), "{json}");

    let usage = std::process::Command::new(bin)
        .arg("frobnicate")
        .output()
        .expect("binary runs");
    assert_eq!(usage.status.code(), Some(2));

    std::fs::remove_dir_all(&scratch).ok();
}

/// The self-check the CI leg gates on: every pragma in the real workspace is
/// well-formed, and the extracted topology matches the runtime's documented
/// shape (producer/coordinator/shard/applier over two bounded data paths
/// and two unbounded control channels, both graphs acyclic).
#[test]
fn workspace_is_clean_and_topology_matches_the_design() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let ws = Workspace::load(&root).expect("workspace loads");
    assert!(
        ws.files.len() >= 50,
        "sanity: the scan actually covered the tree ({} files)",
        ws.files.len()
    );

    let pragmas: Vec<Finding> = ws.files.iter().flat_map(check_pragmas).collect();
    assert!(pragmas.is_empty(), "{pragmas:#?}");

    let report = topology::check(&ws);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert!(
        report.blocking_cycle.is_none(),
        "{:?}",
        report.blocking_cycle
    );
    assert!(report.lock_cycle.is_none(), "{:?}", report.lock_cycle);

    let nodes: Vec<&str> = report
        .topology
        .nodes
        .iter()
        .map(|n| n.name.as_str())
        .collect();
    for expected in ["producer", "coordinator", "swift-shard", "swift-applier"] {
        assert!(
            nodes.contains(&expected),
            "missing node {expected}: {nodes:?}"
        );
    }
    for c in &report.topology.channels {
        assert_eq!(
            c.bounded, !c.control,
            "data paths bounded, control channels unbounded: {c:?}"
        );
    }
    let keys: Vec<&str> = report
        .topology
        .channels
        .iter()
        .map(|c| c.key.as_str())
        .collect();
    for expected in ["ShardMsg", "ApplierMsg", "barrier", "reply"] {
        assert!(
            keys.contains(&expected),
            "missing channel {expected}: {keys:?}"
        );
    }
    // Every data-path send out of a producer/shard is attributed: the
    // shard -> applier hop exists and is blocking (Block backpressure).
    assert!(
        report
            .topology
            .sends
            .iter()
            .any(|s| s.node == "swift-shard" && s.channel == "ApplierMsg" && s.blocking),
        "{:#?}",
        report.topology.sends
    );
    // The DOT artifact renders every node.
    let dot = topology::to_dot(&report.topology);
    for expected in ["producer", "swift-shard", "swift-applier", "coordinator"] {
        assert!(dot.contains(expected), "DOT missing {expected}:\n{dot}");
    }

    // Layer 2: the runtime's message protocol matches the declared spec
    // exactly — every transition is both sent and handled somewhere.
    let proto = protocol::check(&ws);
    assert!(proto.findings.is_empty(), "{:#?}", proto.findings);
    assert_eq!(
        proto.automaton.len(),
        2,
        "ShardMsg and ApplierMsg: {:?}",
        proto.automaton.iter().map(|c| &c.name).collect::<Vec<_>>()
    );
    for (chan, msgs) in [("ShardMsg", 5), ("ApplierMsg", 6)] {
        let c = proto
            .automaton
            .iter()
            .find(|c| c.name == chan)
            .unwrap_or_else(|| panic!("channel {chan} missing from the automaton"));
        assert_eq!(c.transitions.len(), msgs, "{chan} transition count");
        for t in &c.transitions {
            assert!(
                t.sends >= 1 && t.recv_arms >= 1,
                "{chan}::{} declared but never observed (sends={}, recv_arms={}) — \
                 the automaton must be non-vacuous",
                t.msg.name,
                t.sends,
                t.recv_arms
            );
        }
    }

    // Layer 3: every atomic site classifies into a role and every flag
    // group proves its synchronization; the shutdown handshake pair in
    // particular is Release/Acquire-paired.
    let atoms = atomics::check(&ws);
    assert!(atoms.findings.is_empty(), "{:#?}", atoms.findings);
    assert!(
        atoms.sites.len() >= 15,
        "sanity: the audit actually covered the runtime ({} sites)",
        atoms.sites.len()
    );
    assert!(
        atoms.groups.iter().all(|g| g.role != "unclassified"),
        "{:#?}",
        atoms.groups
    );
    let shutdown = atoms.group("shutdown").expect("shutdown flag audited");
    assert_eq!(
        (shutdown.role, shutdown.verdict),
        ("flag", "release-acquire"),
        "the shutdown handshake must stay Release/Acquire-paired"
    );
}
