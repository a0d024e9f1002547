//! The atomic-ordering auditor: classifies every atomic operation in the
//! workspace into a role by usage pattern and enforces the ordering rules
//! that role implies.
//!
//! The runtime's lock-free counters all use `Ordering::Relaxed`, and for
//! most of them that is exactly right — a statistics counter or a depth
//! gauge carries no happens-before obligation. But a *handshake flag*
//! (a boolean whose load gates another thread's memory reads, like the
//! runtime's `shutdown` flag) is a different animal: Relaxed there means
//! the reader can observe the flag without observing the writes the flag
//! is supposed to publish. The auditor tells those cases apart
//! mechanically:
//!
//! * every atomic method call carrying an `Ordering::…` argument is a
//!   **site**; sites group by the receiver's field identity
//!   (`Counter.0`, `EpochClock.cached`, `shutdown`, `depth`);
//! * each group gets a **role** from its op mix: `flag` (AtomicBool, or
//!   store+load/swap/compare-exchange), `watermark` (fetch_max/fetch_min),
//!   `gauge` (fetch_add + fetch_sub), `counter` (fetch_add only),
//!   `statistic` (one-sided loads or stores);
//! * Relaxed is accepted for every role except `flag`. A flag group must
//!   either be Release/Acquire-paired, have every writer→reader thread
//!   pair connected by a channel edge the topology graph proves (a
//!   channel send/recv is itself a release/acquire pair), or carry a
//!   reasoned `// swift-lint: allow(atomic-ordering)` pragma on the
//!   offending sites.
//!
//! The classification is emitted as `target/analysis/atomics.json` so the
//! role table is reviewable, and every site must classify — an
//! `unclassified` group is itself a finding.

use crate::lexer::TokenKind;
use crate::parser;
use crate::topology;
use crate::{json_escape, Finding, SourceFile, Workspace, RULE_ATOMIC_ORDERING};
use std::collections::{BTreeMap, BTreeSet};

/// Atomic methods that take an `Ordering` and write the value.
const WRITE_OPS: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Atomic methods that read the value (RMW ops both read and write).
const READ_OPS: &[&str] = &["load", "swap", "compare_exchange", "compare_exchange_weak"];

/// One observed atomic operation.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// The group key: `Type.field` for `self.field` receivers inside an
    /// impl block (`EpochClock.cached`, `Counter.0`), else the last
    /// element of the receiver chain (`shutdown`, `depth`) — which is what
    /// lets the same shared field group across files.
    pub identity: String,
    /// The method (`load`, `store`, `fetch_add`, …).
    pub op: String,
    /// Every `Ordering::X` name in the argument list (two for
    /// compare-exchange).
    pub orderings: Vec<String>,
    /// The thread node the site runs on, per the topology node map.
    pub node: String,
    /// `true` if the node came from an actual spawn-body mapping rather
    /// than the file-based producer/coordinator fallback. Same-node
    /// "already ordered" proofs require a real mapping on both sides.
    pub mapped: bool,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// One identity group with its inferred role and verdict.
#[derive(Debug, Clone)]
pub struct AtomicGroup {
    /// The group key (see [`AtomicSite::identity`]).
    pub identity: String,
    /// The declared atomic type, when a field declaration was found
    /// (`AtomicBool`, `AtomicU64`, …).
    pub ty: Option<String>,
    /// The inferred role: `flag`, `watermark`, `gauge`, `counter`,
    /// `statistic` or `unclassified`.
    pub role: &'static str,
    /// How the group satisfies (or fails) its role's ordering rule:
    /// `relaxed-ok`, `release-acquire`, `channel-edge`, `pragma` or
    /// `unsound`.
    pub verdict: &'static str,
    /// Indices into [`AtomicsReport::sites`].
    pub sites: Vec<usize>,
}

/// The auditor's result.
#[derive(Debug, Default)]
pub struct AtomicsReport {
    /// Every observed site, in scan order.
    pub sites: Vec<AtomicSite>,
    /// The identity groups, sorted by key.
    pub groups: Vec<AtomicGroup>,
    /// Ordering violations and unclassifiable groups.
    pub findings: Vec<Finding>,
}

impl AtomicsReport {
    /// `true` if every group classified and satisfied its ordering rule.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The group for `identity`, if observed.
    pub fn group(&self, identity: &str) -> Option<&AtomicGroup> {
        self.groups.iter().find(|g| g.identity == identity)
    }
}

/// Audits the workspace: every `crates/*/src` file (benches are out of
/// scope — they exercise the runtime, they are not part of it).
pub fn check(ws: &Workspace) -> AtomicsReport {
    let files: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| !f.rel.contains("/benches/"))
        .collect();
    check_files(&files)
}

/// Audits `files` (the workspace sources, or a fixture).
pub fn check_files(files: &[&SourceFile]) -> AtomicsReport {
    let mut report = AtomicsReport::default();
    let (fn_node, _) = topology::node_map(files);

    // The type oracle: field name → declared atomic type.
    let mut field_ty: BTreeMap<String, String> = BTreeMap::new();
    for f in files {
        for fd in parser::parse(f).atomic_fields {
            field_ty.entry(fd.name).or_insert(fd.atomic);
        }
    }

    for f in files {
        let ast = parser::parse(f);
        for fun in &ast.fns {
            if f.in_test(fun.start_line) {
                continue;
            }
            parser::for_each_call(&fun.body, &mut |c, _| {
                if !c.method {
                    return;
                }
                let op = match c.path.last() {
                    Some(op) if WRITE_OPS.contains(&op.as_str()) || op == "load" => op.clone(),
                    _ => return,
                };
                let orderings = ordering_args(f, c.args_lo, c.args_hi);
                if orderings.is_empty() {
                    return; // `Vec::swap`, `HashMap::… ` — not an atomic op
                }
                let identity = match (c.receiver.as_slice(), &fun.impl_type) {
                    ([s, field], Some(ty)) if s == "self" => format!("{ty}.{field}"),
                    (chain, _) => chain.last().cloned().unwrap_or_else(|| "<expr>".into()),
                };
                let mapped = f
                    .enclosing_fn(c.line)
                    .is_some_and(|span| fn_node.contains_key(&span.name));
                report.sites.push(AtomicSite {
                    identity,
                    op,
                    orderings,
                    node: topology::node_of(f, c.line, &fn_node),
                    mapped,
                    file: f.rel.clone(),
                    line: c.line,
                });
            });
        }
    }

    let by_rel: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.rel.as_str(), *f)).collect();
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, s) in report.sites.iter().enumerate() {
        groups.entry(s.identity.clone()).or_default().push(i);
    }

    // Channel-edge reachability between thread nodes, for flag proofs.
    let topo = topology::extract(files);
    let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
    for s in &topo.sends {
        for r in topo.recvs.iter().filter(|r| r.channel == s.channel) {
            edges.insert((s.node.clone(), r.node.clone()));
        }
    }

    for (identity, site_ids) in groups {
        let ty = field_ty
            .get(&identity)
            .or_else(|| field_ty.get(identity.rsplit('.').next().unwrap_or(&identity)))
            .cloned();
        let ops: BTreeSet<&str> = site_ids
            .iter()
            .map(|&i| report.sites[i].op.as_str())
            .collect();
        let role = classify(ty.as_deref(), &ops);
        let mut verdict = if role == "flag" {
            flag_verdict(
                &report.sites,
                &site_ids,
                &edges,
                &by_rel,
                &mut report.findings,
            )
        } else {
            "relaxed-ok"
        };
        if role == "unclassified" {
            verdict = "unsound";
            let s = &report.sites[site_ids[0]];
            report.findings.push(Finding {
                rule: RULE_ATOMIC_ORDERING,
                path: s.file.clone(),
                line: s.line,
                message: format!(
                    "atomic `{identity}` has an op mix ({}) the auditor cannot classify — \
                     every atomic site must map to a role (flag/watermark/gauge/counter/\
                     statistic) so its ordering rule is known",
                    ops.iter().copied().collect::<Vec<_>>().join(", ")
                ),
            });
        }
        report.groups.push(AtomicGroup {
            identity,
            ty,
            role,
            verdict,
            sites: site_ids,
        });
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    report
}

/// Infers a group's role from its declared type and op mix.
fn classify(ty: Option<&str>, ops: &BTreeSet<&str>) -> &'static str {
    let has = |op: &str| ops.contains(op);
    if ty == Some("AtomicBool") {
        return "flag";
    }
    if has("fetch_max") || has("fetch_min") {
        return "watermark";
    }
    if has("fetch_add") && has("fetch_sub") {
        return "gauge";
    }
    if has("fetch_add") || has("fetch_sub") {
        return "counter";
    }
    if has("swap") || has("compare_exchange") || has("compare_exchange_weak") {
        return "flag";
    }
    if has("store") && has("load") {
        return "flag";
    }
    if has("load") || has("store") {
        return "statistic";
    }
    "unclassified"
}

/// Decides how a flag group satisfies its pairing rule, pushing findings
/// for the sites that don't.
fn flag_verdict(
    sites: &[AtomicSite],
    ids: &[usize],
    edges: &BTreeSet<(String, String)>,
    by_rel: &BTreeMap<&str, &SourceFile>,
    findings: &mut Vec<Finding>,
) -> &'static str {
    let release_ok = |s: &AtomicSite| {
        s.orderings
            .iter()
            .any(|o| matches!(o.as_str(), "Release" | "AcqRel" | "SeqCst"))
    };
    let acquire_ok = |s: &AtomicSite| {
        s.orderings
            .iter()
            .any(|o| matches!(o.as_str(), "Acquire" | "AcqRel" | "SeqCst"))
    };
    let writes: Vec<&AtomicSite> = ids
        .iter()
        .map(|&i| &sites[i])
        .filter(|s| WRITE_OPS.contains(&s.op.as_str()))
        .collect();
    let reads: Vec<&AtomicSite> = ids
        .iter()
        .map(|&i| &sites[i])
        .filter(|s| READ_OPS.contains(&s.op.as_str()))
        .collect();

    if writes.iter().all(|s| release_ok(s)) && reads.iter().all(|s| acquire_ok(s)) {
        return "release-acquire";
    }

    // Channel-edge proof: every writer thread reaches every reader thread
    // over at least one channel hop (send/recv is a release/acquire pair),
    // so the flag's payload is published by the channel, not the flag.
    // Same-node needs no ordering at all — but only when both sides carry a
    // *real* spawn-body mapping; two sites that merely defaulted to the
    // same fallback node prove nothing.
    let reachable = |from: &str, to: &str| {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            for (_, b) in edges.iter().filter(|(a, _)| a == n) {
                if b == to {
                    return true;
                }
                stack.push(b.as_str());
            }
        }
        false
    };
    if !writes.is_empty()
        && !reads.is_empty()
        && writes.iter().all(|w| {
            reads.iter().all(|r| {
                if w.node == r.node {
                    w.mapped && r.mapped
                } else {
                    reachable(&w.node, &r.node)
                }
            })
        })
    {
        return "channel-edge";
    }

    let offending: Vec<&AtomicSite> = writes
        .iter()
        .filter(|s| !release_ok(s))
        .chain(reads.iter().filter(|s| !acquire_ok(s)))
        .copied()
        .collect();
    let allowed = |s: &AtomicSite| {
        by_rel
            .get(s.file.as_str())
            .is_some_and(|f| f.allowed(RULE_ATOMIC_ORDERING, s.line))
    };
    if !offending.is_empty() && offending.iter().all(|s| allowed(s)) {
        return "pragma";
    }
    for s in offending.iter().filter(|s| !allowed(s)) {
        let side = if WRITE_OPS.contains(&s.op.as_str()) && !release_ok(s) {
            ("write", "Release")
        } else {
            ("read", "Acquire")
        };
        findings.push(Finding {
            rule: RULE_ATOMIC_ORDERING,
            path: s.file.clone(),
            line: s.line,
            message: format!(
                "`{}` is a handshake flag but this {} uses {} — a flag gating another \
                 thread's reads must be {}-side {} (or be proven by a channel edge, or \
                 carry a reasoned `swift-lint: allow(atomic-ordering)` pragma)",
                s.identity,
                side.0,
                s.orderings.join("/"),
                side.0,
                side.1
            ),
        });
    }
    "unsound"
}

/// Collects every `Ordering::X` name in the token range `[lo, hi)`.
fn ordering_args(f: &SourceFile, lo: usize, hi: usize) -> Vec<String> {
    let toks = &f.tokens;
    let hi = hi.min(toks.len());
    let mut out = Vec::new();
    let mut k = lo;
    while k + 3 < hi {
        if toks[k].kind == TokenKind::Ident
            && toks[k].text == "Ordering"
            && toks[k + 1].text == ":"
            && toks[k + 2].text == ":"
            && toks[k + 3].kind == TokenKind::Ident
        {
            out.push(toks[k + 3].text.clone());
            k += 4;
        } else {
            k += 1;
        }
    }
    out
}

/// Renders the classification as JSON for `target/analysis/atomics.json`.
pub fn to_json(report: &AtomicsReport) -> String {
    let mut out = String::from("{\n  \"groups\": [");
    let mut first = true;
    for g in &report.groups {
        if !first {
            out.push(',');
        }
        first = false;
        let ty = match &g.ty {
            Some(t) => format!("\"{}\"", json_escape(t)),
            None => "null".into(),
        };
        out.push_str(&format!(
            "\n    {{\n      \"identity\": \"{}\",\n      \"type\": {ty},\n      \
             \"role\": \"{}\",\n      \"verdict\": \"{}\",\n      \"sites\": [",
            json_escape(&g.identity),
            g.role,
            g.verdict
        ));
        let mut first_site = true;
        for &i in &g.sites {
            let s = &report.sites[i];
            if !first_site {
                out.push(',');
            }
            first_site = false;
            out.push_str(&format!(
                "\n        {{\"op\": \"{}\", \"orderings\": [{}], \"node\": \"{}\", \
                 \"file\": \"{}\", \"line\": {}}}",
                json_escape(&s.op),
                s.orderings
                    .iter()
                    .map(|o| format!("\"{}\"", json_escape(o)))
                    .collect::<Vec<_>>()
                    .join(", "),
                json_escape(&s.node),
                json_escape(&s.file),
                s.line
            ));
        }
        out.push_str("\n      ]\n    }");
    }
    out.push_str(&format!(
        "\n  ],\n  \"sites\": {},\n  \"clean\": {}\n}}\n",
        report.sites.len(),
        report.clean()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(src: &str) -> AtomicsReport {
        let f = SourceFile::parse("crates/runtime/src/lib.rs", src);
        check_files(&[&f])
    }

    #[test]
    fn roles_classify_by_op_mix() {
        let report = audit(
            "struct S { hits: AtomicU64, depth: AtomicUsize, high: AtomicU64 }\n\
             impl S {\n\
               fn a(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
               fn b(&self) { self.depth.fetch_add(1, Ordering::Relaxed); \
                             self.depth.fetch_sub(1, Ordering::Relaxed); }\n\
               fn c(&self) { self.high.fetch_max(9, Ordering::Relaxed); }\n\
             }\n",
        );
        assert!(report.clean(), "{:#?}", report.findings);
        assert_eq!(report.group("S.hits").map(|g| g.role), Some("counter"));
        assert_eq!(report.group("S.depth").map(|g| g.role), Some("gauge"));
        assert_eq!(report.group("S.high").map(|g| g.role), Some("watermark"));
    }

    #[test]
    fn relaxed_flag_pair_is_unsound_without_a_proof() {
        let report = audit(
            "struct S { done: AtomicBool }\n\
             fn w(s: &S) { s.done.store(true, Ordering::Relaxed); }\n\
             fn r(s: &S) { while !s.done.load(Ordering::Relaxed) {} }\n",
        );
        let g = report.group("done").expect("grouped");
        assert_eq!((g.role, g.verdict), ("flag", "unsound"));
        assert_eq!(report.findings.len(), 2, "{:#?}", report.findings);
    }

    #[test]
    fn release_acquire_pairing_is_clean() {
        let report = audit(
            "struct S { done: AtomicBool }\n\
             fn w(s: &S) { s.done.store(true, Ordering::Release); }\n\
             fn r(s: &S) { while !s.done.load(Ordering::Acquire) {} }\n",
        );
        let g = report.group("done").expect("grouped");
        assert_eq!((g.role, g.verdict), ("flag", "release-acquire"));
        assert!(report.clean(), "{:#?}", report.findings);
    }

    #[test]
    fn unpaired_release_store_flags_the_relaxed_load() {
        let report = audit(
            "struct S { done: AtomicBool }\n\
             fn w(s: &S) { s.done.store(true, Ordering::Release); }\n\
             fn r(s: &S) { s.done.load(Ordering::Relaxed); }\n",
        );
        assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
        assert_eq!(report.findings[0].line, 3);
        assert!(report.findings[0].message.contains("Acquire"));
    }

    #[test]
    fn pragma_on_every_offending_site_downgrades_to_pragma_verdict() {
        let report = audit(
            "struct S { done: AtomicBool }\n\
             fn w(s: &S) { s.done.store(true, Ordering::Release); }\n\
             // swift-lint: allow(atomic-ordering) -- reader only polls for liveness\n\
             fn r(s: &S) { s.done.load(Ordering::Relaxed); }\n",
        );
        assert!(report.clean(), "{:#?}", report.findings);
        assert_eq!(report.group("done").map(|g| g.verdict), Some("pragma"));
    }

    #[test]
    fn channel_edge_between_writer_and_reader_threads_proves_the_flag() {
        let report = audit(
            "struct S { done: AtomicBool }\n\
             fn build(s: Arc<S>) {\n\
               let (tx, rx) = mpsc::sync_channel(8);\n\
               std::thread::Builder::new().name(\"swift-worker\".into())\
                 .spawn(move || worker_loop(rx, s)).expect(\"spawn\");\n\
               producer_loop(tx, s2);\n\
             }\n\
             fn producer_loop(tx: SyncSender<u64>, s: Arc<S>) {\n\
               s.done.store(true, Ordering::Relaxed);\n\
               tx.send(1).expect(\"send\");\n\
             }\n\
             fn worker_loop(rx: Receiver<u64>, s: Arc<S>) {\n\
               while let Ok(v) = rx.recv() { let _ = s.done.load(Ordering::Relaxed); }\n\
             }\n",
        );
        let g = report.group("done").expect("grouped");
        assert_eq!(
            (g.role, g.verdict),
            ("flag", "channel-edge"),
            "{:#?}",
            report.findings
        );
        assert!(report.clean(), "{:#?}", report.findings);
    }
}
