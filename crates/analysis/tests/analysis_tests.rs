//! Fixture tests for every lint rule and both topology checks, plus the
//! workspace self-check: the real tree must be clean and its extracted
//! topology must match the runtime's documented shape.
//!
//! The fixtures live under `tests/fixtures/` (a subdirectory, so cargo does
//! not compile them as test targets — several contain deliberate
//! violations). Each is checked under a synthetic workspace-relative path
//! that puts it in the right rule scope.

use std::path::{Path, PathBuf};
use swift_analysis::{atomics, protocol, rules, sarif, topology, Finding, SourceFile, Workspace};

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

/// Runs the lint rules over a fixture as if it sat at `rel` in the tree.
fn check_as(rel: &str, name: &str) -> Vec<Finding> {
    rules::check_file(&SourceFile::parse(rel, &fixture(name)))
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn instant_now_fires_once_on_the_hot_path() {
    let findings = check_as("crates/runtime/src/worker.rs", "instant_now.rs");
    assert_eq!(
        count(&findings, "instant-now"),
        1,
        "exactly the VIOLATION line: literals, comments, allowlisted fns, \
         pragma'd and test code must not fire: {findings:?}"
    );
    assert_eq!(findings.len(), 1, "no other rule fires: {findings:?}");
    assert!(findings[0].message.contains("EpochClock"));
}

#[test]
fn instant_now_is_out_of_scope_off_the_hot_path() {
    let findings = check_as("crates/traces/src/fixture.rs", "instant_now.rs");
    assert_eq!(count(&findings, "instant-now"), 0);
}

#[test]
fn unwrap_fires_on_bare_and_reasonless_pragma_sites() {
    let findings = check_as("crates/traces/src/fixture.rs", "unwrap.rs");
    assert_eq!(
        count(&findings, "unwrap"),
        2,
        "the bare site and the site under a reasonless pragma: {findings:?}"
    );
    assert_eq!(
        count(&findings, "pragma"),
        1,
        "the reasonless pragma is itself flagged: {findings:?}"
    );
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn unwrap_is_out_of_scope_in_bench_code() {
    let findings = check_as("crates/bench/src/bin/fixture.rs", "unwrap.rs");
    assert_eq!(count(&findings, "unwrap"), 0);
}

#[test]
fn unbounded_channel_fires_once_even_with_turbofish() {
    let findings = check_as("crates/runtime/src/lib.rs", "unbounded.rs");
    assert_eq!(
        count(&findings, "unbounded-channel"),
        1,
        "control bindings, sync_channel, pragma'd and test code must not \
         fire: {findings:?}"
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn thread_spawn_fires_on_path_and_builder_forms() {
    let findings = check_as("crates/traces/src/fixture.rs", "thread_spawn.rs");
    assert_eq!(count(&findings, "thread-spawn"), 2, "{findings:?}");
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn thread_spawn_is_in_scope_only_outside_runtime_and_bench() {
    for rel in [
        "crates/runtime/src/lib.rs",
        "crates/bench/src/bin/fixture.rs",
    ] {
        let findings = check_as(rel, "thread_spawn.rs");
        assert_eq!(count(&findings, "thread-spawn"), 0, "{rel}");
    }
}

#[test]
fn lifecycle_send_fires_only_on_lifecycle_payloads() {
    let findings = check_as("crates/runtime/src/worker.rs", "lifecycle_send.rs");
    assert_eq!(
        count(&findings, "lifecycle-send"),
        1,
        "shedding data batches and blocking lifecycle sends are fine: {findings:?}"
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn hot_path_alloc_polices_every_kernel_body() {
    let findings = check_as("crates/core/src/inference/kernels.rs", "hot_path_alloc.rs");
    assert_eq!(
        count(&findings, "hot-path-alloc"),
        4,
        "exactly the four VIOLATION lines: constructors, the pragma'd fn, \
         literals, comments and test code must not fire: {findings:?}"
    );
    assert_eq!(findings.len(), 4, "no other rule fires: {findings:?}");
    assert!(findings[0].message.contains("ScoreScratch"));
}

#[test]
fn hot_path_alloc_scopes_to_hot_fns_outside_kernels() {
    // In the other scorer files only the listed hot functions are policed:
    // `block_wp` and `helper_off_hot_list` are ordinary code there.
    let findings = check_as(
        "crates/core/src/inference/fit_score.rs",
        "hot_path_alloc.rs",
    );
    assert_eq!(count(&findings, "hot-path-alloc"), 2, "{findings:?}");
    // And off the hot-file list entirely, the rule is out of scope.
    let elsewhere = check_as("crates/core/src/fixture.rs", "hot_path_alloc.rs");
    assert_eq!(count(&elsewhere, "hot-path-alloc"), 0, "{elsewhere:?}");
}

#[test]
fn hot_path_alloc_polices_the_per_event_path() {
    // The counters' event handlers and the ranker's fold are on the list,
    // each in the file it lives in; the per-burst and per-path functions
    // beside them are not.
    for rel in [
        "crates/core/src/inference/counters.rs",
        "crates/core/src/inference/fit_score.rs",
    ] {
        let findings = check_as(rel, "hot_path_alloc_per_event.rs");
        assert_eq!(count(&findings, "hot-path-alloc"), 2, "{rel}: {findings:?}");
        assert_eq!(findings.len(), 2, "no other rule fires: {findings:?}");
    }
}

#[test]
fn hot_path_alloc_polices_the_retag_loop() {
    // What a resync runs per dirty prefix is on the list; the per-table
    // `build` and the per-resync `clear_swift_rules` beside it are not.
    let findings = check_as(
        "crates/core/src/encoding/two_stage.rs",
        "hot_path_alloc_retag.rs",
    );
    assert_eq!(count(&findings, "hot-path-alloc"), 3, "{findings:?}");
    assert_eq!(findings.len(), 3, "no other rule fires: {findings:?}");
    assert!(findings[0].message.contains("retag loop"));
}

#[test]
fn hot_path_alloc_polices_the_rib_mirror() {
    // What the mirror runs per event and the path reads of a retag are on
    // the list; ordered iteration and the per-teardown clear are not.
    let findings = check_as("crates/bgp/src/rib.rs", "hot_path_alloc_mirror.rs");
    assert_eq!(count(&findings, "hot-path-alloc"), 2, "{findings:?}");
    assert!(findings[0].message.contains("RIB mirror"));
    // `hops` is hot where paths live.
    let path_reads = check_as("crates/bgp/src/as_path.rs", "hot_path_alloc_mirror.rs");
    assert_eq!(count(&path_reads, "hot-path-alloc"), 1, "{path_reads:?}");
    // The same source outside the policed files is out of scope.
    let elsewhere = check_as("crates/bgp/src/session.rs", "hot_path_alloc_mirror.rs");
    assert_eq!(count(&elsewhere, "hot-path-alloc"), 0, "{elsewhere:?}");
    // The mirror's names are the mirror's: a policed `swift-core` file may
    // have an `insert` of its own that is not on any hot path.
    let core = check_as(
        "crates/core/src/inference/counters.rs",
        "hot_path_alloc_mirror.rs",
    );
    assert_eq!(count(&core, "hot-path-alloc"), 0, "{core:?}");
}

#[test]
fn pragma_rule_flags_malformed_unknown_and_reasonless() {
    let findings = check_as("crates/core/src/fixture.rs", "pragmas.rs");
    assert_eq!(count(&findings, "pragma"), 3, "{findings:?}");
    assert_eq!(findings.len(), 3, "{findings:?}");
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

/// The SARIF export parses as JSON and carries the 2.1.0 schema shape:
/// version, one run with a named driver declaring the fired rules, and one
/// result per finding with a physical location whose startLine is 1-based.
#[test]
fn sarif_export_has_the_2_1_0_shape() {
    use swift_telemetry::export::Json;
    let findings = vec![
        Finding {
            rule: "protocol",
            path: "crates/analysis/protocol/runtime.protocol".into(),
            line: 0,
            message: "spec drift with a \"quoted\" detail".into(),
        },
        Finding {
            rule: "atomic-ordering",
            path: "crates/runtime/src/lib.rs".into(),
            line: 896,
            message: "flag pair".into(),
        },
    ];
    let log = Json::parse(&sarif::to_sarif(&findings)).expect("SARIF is valid JSON");
    assert_eq!(log.get("version").and_then(Json::as_str), Some("2.1.0"));
    assert!(log
        .get("$schema")
        .and_then(Json::as_str)
        .is_some_and(|s| s.contains("sarif-schema-2.1.0")));
    let runs = log
        .get("runs")
        .and_then(Json::as_array)
        .expect("runs array");
    assert_eq!(runs.len(), 1);
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(
        driver.get("name").and_then(Json::as_str),
        Some("swift-analysis")
    );
    let rule_ids: Vec<&str> = driver
        .get("rules")
        .and_then(Json::as_array)
        .expect("driver.rules")
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    assert!(rule_ids.contains(&"protocol") && rule_ids.contains(&"atomic-ordering"));
    let results = runs[0]
        .get("results")
        .and_then(Json::as_array)
        .expect("results array");
    assert_eq!(results.len(), 2);
    for r in results {
        assert!(r.get("ruleId").and_then(Json::as_str).is_some());
        assert!(r
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Json::as_str)
            .is_some());
        let region = r
            .get("locations")
            .and_then(Json::as_array)
            .and_then(|l| l.first())
            .and_then(|l| l.get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .expect("physicalLocation.region");
        let start = region
            .get("startLine")
            .and_then(Json::as_u64)
            .expect("startLine");
        assert!(start >= 1, "SARIF regions are 1-based, got {start}");
    }
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
        .args(["check", "--sarif", "--budget-ms", "10000", "--root"])
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
        "findings.sarif",
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
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
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
    assert!(json.contains("\"rule\": \"unwrap\""), "{json}");

    let usage = std::process::Command::new(bin)
        .arg("frobnicate")
        .output()
        .expect("binary runs");
    assert_eq!(usage.status.code(), Some(2));

    std::fs::remove_dir_all(&scratch).ok();
}

/// The self-check the CI leg gates on: the real workspace is clean under
/// every rule, and the extracted topology matches the runtime's documented
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

    let mut findings: Vec<Finding> = Vec::new();
    for file in &ws.files {
        findings.extend(rules::check_file(file));
    }
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean: {findings:#?}"
    );

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
