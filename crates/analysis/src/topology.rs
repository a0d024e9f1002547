//! The concurrency-topology extractor: parses the runtime's channel
//! construction and thread spawns into a thread/channel graph, emits DOT and
//! JSON, and statically checks deadlock-freedom-shaped properties:
//!
//! * **no cycle of blocking sends** — under `BackpressurePolicy::Block`
//!   every `send` on a bounded (`sync_channel`) queue can block; a cycle of
//!   such edges through the thread graph is a deadlock waiting for the right
//!   queue depths. The runtime's design is a DAG (producers → shard workers
//!   → the applier, with control acks flowing back on *unbounded*
//!   channels precisely so they cannot close a blocking cycle) and this
//!   check keeps it one.
//! * **lock-order acyclicity** — `Mutex` acquisitions are collected per
//!   function; an edge `a → b` is recorded when `b` is taken after `a`
//!   inside one function. A cycle across the workspace means two threads can
//!   take the same pair of locks in opposite orders.
//! * **channel sanity** — every constructed channel has at least one sender
//!   and one receiver, and data channels are bounded.
//!
//! The extractor understands the runtime's *conventions* rather than full
//! Rust semantics: channels are classified by their binding names
//! (`barrier`/`reply` ⇒ control) or their capacity expression
//! (`applier…` ⇒ the `ApplierMsg` path, `queue…` ⇒ the `ShardMsg` path);
//! send/recv sites are attributed to the thread whose spawned body function
//! (transitively) contains them, producers to `ingest.rs`, everything else
//! to the coordinating caller thread. Those conventions are themselves part
//! of what the checker enforces — the workspace self-check pins them, so a new
//! channel or thread that the extractor cannot classify fails CI loudly
//! instead of silently vanishing from the graph.

use crate::lexer::{match_seq, matching_close, Token, TokenKind};
use crate::{json_escape, Finding, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// The implicit node for ingest-side producer threads (any caller thread
/// holding an `IngestHandle`).
pub const NODE_PRODUCER: &str = "producer";
/// The implicit node for the coordinating caller thread (the
/// `ShardedRuntime` method surface: flush, resync, shutdown).
pub const NODE_COORDINATOR: &str = "coordinator";

/// One channel construction site.
#[derive(Debug, Clone)]
pub struct ChannelInfo {
    /// The channel's key: `ShardMsg`/`ApplierMsg` for the data paths,
    /// `barrier`/`reply` for control channels.
    pub key: String,
    /// `true` for `sync_channel` (bounded), `false` for `channel`.
    pub bounded: bool,
    /// The capacity expression's source text (empty for unbounded).
    pub capacity: String,
    /// `true` for control channels (acks/replies), `false` for data paths.
    pub control: bool,
    /// File + line of the construction.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// One thread-class node (spawned threads plus the implicit producer and
/// coordinator).
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Display name (thread name with per-instance suffixes stripped, e.g.
    /// `swift-shard`).
    pub name: String,
    /// `true` if the spawn sits in a loop (a class of N threads).
    pub many: bool,
    /// The spawned body function (empty for implicit nodes).
    pub body_fn: String,
    /// File of the spawn site (empty for implicit nodes).
    pub file: String,
    /// 1-based line of the spawn site (0 for implicit nodes).
    pub line: u32,
}

/// One `send`/`try_send` site, attributed to a node and a channel.
#[derive(Debug, Clone)]
pub struct SendEdge {
    /// The sending node.
    pub node: String,
    /// The channel key.
    pub channel: String,
    /// `send` or `try_send`.
    pub method: String,
    /// `true` if this send can block (blocking `send` on a bounded channel).
    pub blocking: bool,
    /// The payload's leading path segment (`ShardMsg`, `ApplierMsg`, or a
    /// tuple/value description).
    pub payload: String,
    /// File of the site.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// One `recv` site, attributed to a node and a channel.
#[derive(Debug, Clone)]
pub struct RecvEdge {
    /// The receiving node.
    pub node: String,
    /// The channel key.
    pub channel: String,
    /// File of the site.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// One `Mutex::lock` site.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// The mutex's field/binding name.
    pub mutex: String,
    /// The enclosing function.
    pub function: String,
    /// File of the site.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// The extracted thread/channel graph.
#[derive(Debug, Default)]
pub struct Topology {
    /// Thread-class nodes.
    pub nodes: Vec<NodeInfo>,
    /// Channel construction sites.
    pub channels: Vec<ChannelInfo>,
    /// Send sites.
    pub sends: Vec<SendEdge>,
    /// Recv sites.
    pub recvs: Vec<RecvEdge>,
    /// Lock sites across the workspace.
    pub locks: Vec<LockSite>,
    /// Deduplicated lock-order edges `a → b` (b taken while a held).
    pub lock_edges: Vec<(String, String)>,
}

/// The topology plus the verdicts of the static checks.
#[derive(Debug)]
pub struct TopologyReport {
    /// The extracted graph.
    pub topology: Topology,
    /// Channel-sanity findings (orphan channels, unbounded data paths,
    /// unattributable sends).
    pub findings: Vec<Finding>,
    /// A cycle of blocking sends through the thread graph, if one exists
    /// (node names, first node repeated at the end).
    pub blocking_cycle: Option<Vec<String>>,
    /// A cycle in the lock-order graph, if one exists.
    pub lock_cycle: Option<Vec<String>>,
}

impl TopologyReport {
    /// `true` if every check passed.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.blocking_cycle.is_none() && self.lock_cycle.is_none()
    }
}

/// Runs the full topology extraction + checks over the workspace: the
/// thread/channel graph from `crates/runtime/src`, the lock-order graph
/// from every scanned file.
pub fn check(ws: &Workspace) -> TopologyReport {
    let runtime: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| f.rel.starts_with("crates/runtime/src/"))
        .collect();
    let all: Vec<&SourceFile> = ws.files.iter().collect();
    check_files(&runtime, &all)
}

/// The same checks over explicit file sets: the thread/channel graph from
/// `runtime`, the lock-order graph from `all` (fixture tests drive this
/// directly with synthetic files).
pub fn check_files(runtime: &[&SourceFile], all: &[&SourceFile]) -> TopologyReport {
    let mut topo = extract(runtime);
    for f in all {
        collect_locks(f, &mut topo.locks);
    }
    topo.lock_edges = lock_order_edges(&topo.locks);
    finish(topo)
}

/// Runs the checks over an already-extracted topology (used by `check` and
/// by the fixture tests, which extract from synthetic files).
pub fn finish(topo: Topology) -> TopologyReport {
    let findings = sanity_findings(&topo);
    let blocking_cycle = blocking_send_cycle(&topo);
    let lock_cycle = find_cycle(
        &topo
            .lock_edges
            .iter()
            .map(|(a, b)| (a.clone(), b.clone()))
            .collect::<Vec<_>>(),
    );
    TopologyReport {
        topology: topo,
        findings,
        blocking_cycle,
        lock_cycle,
    }
}

/// Maps function names to the thread node they run on (passes 1–2 of
/// extraction): spawn sites name nodes via `.name(...)`, and unmapped
/// helpers called from exactly one mapped function in the same file adopt
/// that node. Public so the atomic-ordering auditor can attribute atomic
/// sites to threads when proving a channel-edge synchronization.
pub fn node_map(files: &[&SourceFile]) -> (BTreeMap<String, String>, Vec<NodeInfo>) {
    // All function names defined anywhere in the given files — used to tell
    // a spawned body function from ordinary calls inside the spawn closure.
    let defined: BTreeSet<&str> = files
        .iter()
        .flat_map(|f| f.fns.iter().map(|s| s.name.as_str()))
        .collect();

    // Pass 1: spawn sites → named nodes + body-fn mapping.
    let mut nodes = Vec::new();
    let mut fn_node: BTreeMap<String, String> = BTreeMap::new();
    for f in files {
        for i in 0..f.tokens.len() {
            if !match_seq(&f.tokens, i, &[".", "spawn", "("]) || f.in_test(f.tokens[i].line) {
                continue;
            }
            let close = matching_close(&f.tokens, i + 2);
            let args = &f.tokens[i + 3..close.min(f.tokens.len())];
            // The spawned body: the first called identifier that is a
            // function defined in the scanned files.
            let body = args
                .windows(2)
                .find(|w| {
                    w[0].kind == TokenKind::Ident
                        && w[1].text == "("
                        && defined.contains(w[0].text.as_str())
                })
                .map(|w| w[0].text.clone());
            let Some(body) = body else {
                continue; // not a thread spawn we can attribute (e.g. scoped test helper)
            };
            let name = spawn_thread_name(&f.tokens, i).unwrap_or_else(|| body.clone());
            let many = spawn_in_loop(f, i);
            fn_node.insert(body.clone(), name.clone());
            nodes.push(NodeInfo {
                name,
                many,
                body_fn: body,
                file: f.rel.clone(),
                line: f.tokens[i].line,
            });
        }
    }

    // Pass 2: helper inheritance — an unmapped function *plainly* called
    // (not a method call: `send_batch(...)`, never `x.send_batch(...)`) from
    // exactly one mapped function in the *same file* joins that node (covers
    // e.g. `send_batch` called only from `shard_loop`). Method-call syntax
    // is excluded because method names collide freely across types
    // (`applier.register(...)` must not adopt `IngestHandle::register`).
    for _ in 0..2 {
        let mut adopt: Vec<(String, String)> = Vec::new();
        for f in files {
            for span in &f.fns {
                if fn_node.contains_key(&span.name) {
                    continue;
                }
                let mut callers: BTreeSet<&str> = BTreeSet::new();
                for caller in &f.fns {
                    let Some(node) = fn_node.get(&caller.name) else {
                        continue;
                    };
                    let lo = caller.start_tok;
                    let hi = caller.end_tok.min(f.tokens.len() - 1);
                    for k in lo..hi {
                        if f.tokens[k].text == span.name
                            && f.tokens[k].kind == TokenKind::Ident
                            && f.tokens.get(k + 1).is_some_and(|t| t.text == "(")
                            && !f
                                .tokens
                                .get(k.wrapping_sub(1))
                                .is_some_and(|t| t.text == ".")
                        {
                            callers.insert(node);
                            break;
                        }
                    }
                }
                if callers.len() == 1 {
                    let node = callers.iter().next().expect("one caller").to_string();
                    adopt.push((span.name.clone(), node));
                }
            }
        }
        for (f, n) in adopt {
            fn_node.insert(f, n);
        }
    }
    (fn_node, nodes)
}

/// Extracts the thread/channel graph from `files` (the runtime crate's
/// sources, or a fixture emulating their idioms).
pub fn extract(files: &[&SourceFile]) -> Topology {
    let mut topo = Topology::default();
    let (fn_node, nodes) = node_map(files);
    topo.nodes = nodes;

    // Pass 3: channel constructions.
    for f in files {
        for i in 0..f.tokens.len() {
            let sync = match_seq(&f.tokens, i, &["mpsc", ":", ":", "sync_channel"]);
            let unbounded = match_seq(&f.tokens, i, &["mpsc", ":", ":", "channel"]);
            if !(sync || unbounded) || f.in_test(f.tokens[i].line) {
                continue;
            }
            let Some(open) = call_open_paren(&f.tokens, i + 3) else {
                continue;
            };
            let close = matching_close(&f.tokens, open);
            let capacity: String = if sync {
                f.tokens[open + 1..close.min(f.tokens.len())]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            } else {
                String::new()
            };
            let bindings = channel_bindings(&f.tokens, i);
            let (key, control) = classify_channel(&bindings, &capacity, sync, f.tokens[i].line);
            topo.channels.push(ChannelInfo {
                key,
                bounded: sync,
                capacity,
                control,
                file: f.rel.clone(),
                line: f.tokens[i].line,
            });
        }
    }

    // Pass 4: send/recv sites.
    let bounded: BTreeMap<&str, bool> = topo
        .channels
        .iter()
        .map(|c| (c.key.as_str(), c.bounded))
        .collect();
    for f in files {
        for i in 0..f.tokens.len() {
            let line = f.tokens[i].line;
            if f.in_test(line) {
                continue;
            }
            let is_send = match_seq(&f.tokens, i, &[".", "send", "("]);
            let is_try = match_seq(&f.tokens, i, &[".", "try_send", "("]);
            if is_send || is_try {
                let close = matching_close(&f.tokens, i + 2);
                let args = &f.tokens[i + 3..close.min(f.tokens.len())];
                let chain = receiver_chain(&f.tokens, i);
                let (channel, payload) = classify_send(args, &chain);
                let node = node_of(f, line, &fn_node);
                let method = if is_send { "send" } else { "try_send" };
                let blocking = is_send && bounded.get(channel.as_str()).copied().unwrap_or(false);
                topo.sends.push(SendEdge {
                    node,
                    channel,
                    method: method.into(),
                    blocking,
                    payload,
                    file: f.rel.clone(),
                    line,
                });
            } else if match_seq(&f.tokens, i, &[".", "recv", "("]) {
                let chain = receiver_chain(&f.tokens, i);
                let channel = classify_recv(&f.tokens, i, &chain);
                let node = node_of(f, line, &fn_node);
                topo.recvs.push(RecvEdge {
                    node,
                    channel,
                    file: f.rel.clone(),
                    line,
                });
            }
        }
    }

    topo.nodes.extend(implicit_nodes(&topo));
    topo
}

/// Adds the implicit producer/coordinator nodes if any site was attributed
/// to them.
fn implicit_nodes(topo: &Topology) -> Vec<NodeInfo> {
    let mut out = Vec::new();
    let referenced: BTreeSet<&str> = topo
        .sends
        .iter()
        .map(|s| s.node.as_str())
        .chain(topo.recvs.iter().map(|r| r.node.as_str()))
        .collect();
    for name in [NODE_PRODUCER, NODE_COORDINATOR] {
        if referenced.contains(name) && !topo.nodes.iter().any(|n| n.name == name) {
            out.push(NodeInfo {
                name: name.into(),
                many: name == NODE_PRODUCER,
                body_fn: String::new(),
                file: String::new(),
                line: 0,
            });
        }
    }
    out
}

/// The node a site at `line` in `f` belongs to: its enclosing function's
/// mapped node, else `producer` for the ingest module, else the
/// coordinator (the runtime's caller-thread method surface).
pub fn node_of(f: &SourceFile, line: u32, fn_node: &BTreeMap<String, String>) -> String {
    if let Some(span) = f.enclosing_fn(line) {
        if let Some(node) = fn_node.get(&span.name) {
            return node.clone();
        }
    }
    if f.rel.ends_with("ingest.rs") {
        NODE_PRODUCER.into()
    } else {
        NODE_COORDINATOR.into()
    }
}

/// Extracts the thread name from the `.name(...)` call preceding a spawn,
/// normalizing per-instance suffixes (`swift-shard-{i}` → `swift-shard`).
fn spawn_thread_name(tokens: &[Token], spawn_at: usize) -> Option<String> {
    let from = spawn_at.saturating_sub(120);
    let mut j = spawn_at;
    while j > from {
        j -= 1;
        if tokens[j].text == ";" {
            return None;
        }
        if match_seq(tokens, j, &[".", "name", "("]) {
            let close = matching_close(tokens, j + 2);
            let name = tokens[j + 3..close.min(tokens.len())]
                .iter()
                .find(|t| t.kind == TokenKind::Str)?;
            let mut text = name.text.as_str();
            if let Some(brace) = text.find('{') {
                text = &text[..brace];
            }
            return Some(text.trim_end_matches(['-', '_']).to_string());
        }
    }
    None
}

/// `true` if the spawn site sits inside a `for`/`while`/`loop` in its
/// enclosing function — a class of N threads rather than one.
fn spawn_in_loop(f: &SourceFile, spawn_at: usize) -> bool {
    let line = f.tokens[spawn_at].line;
    let Some(span) = f.enclosing_fn(line) else {
        return false;
    };
    f.tokens[span.start_tok..spawn_at]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && matches!(t.text.as_str(), "for" | "while" | "loop"))
}

/// The idents bound by the `let (a, b) = …` pattern in front of a channel
/// construction at token `at`.
fn channel_bindings(tokens: &[Token], at: usize) -> Vec<String> {
    let mut j = at;
    let from = at.saturating_sub(24);
    while j > from {
        j -= 1;
        if matches!(tokens[j].text.as_str(), ";" | "}") {
            return Vec::new();
        }
        if tokens[j].kind == TokenKind::Ident && tokens[j].text == "let" {
            return tokens[j + 1..at]
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone())
                .collect();
        }
    }
    Vec::new()
}

/// For a call whose name token sits at `name`, returns the index of the
/// opening `(`, skipping an optional turbofish (`mpsc::channel::<T>()`).
fn call_open_paren(tokens: &[Token], name: usize) -> Option<usize> {
    let mut j = name + 1;
    if match_seq(tokens, j, &[":", ":", "<"]) {
        let mut depth = 0usize;
        let mut k = j + 2;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        j = k;
    }
    (tokens.get(j)?.text == "(").then_some(j)
}

/// Classifies a channel by its binding names (control channels) or its
/// capacity expression (which data path it belongs to).
fn classify_channel(
    bindings: &[String],
    capacity: &str,
    bounded: bool,
    line: u32,
) -> (String, bool) {
    if bindings.iter().any(|b| b.contains("barrier")) {
        return ("barrier".into(), true);
    }
    if bindings.iter().any(|b| b.contains("reply")) {
        return ("reply".into(), true);
    }
    if capacity.contains("applier") {
        return ("ApplierMsg".into(), false);
    }
    if capacity.contains("queue") {
        return ("ShardMsg".into(), false);
    }
    // Unclassifiable: keyed by line so the sanity check reports it as an
    // orphan (no send/recv will resolve to this key).
    (
        format!(
            "unclassified-{}-L{line}",
            if bounded { "sync" } else { "unbounded" }
        ),
        false,
    )
}

/// The trailing ident chain of the receiver expression before the `.` at
/// `dot` (e.g. `self.shared.shard_txs[shard]` → `[self, shared, shard_txs,
/// shard]`).
fn receiver_chain(tokens: &[Token], dot: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let from = dot.saturating_sub(12);
    let mut j = dot;
    while j > from {
        j -= 1;
        let t = &tokens[j];
        match t.kind {
            TokenKind::Ident => idents.push(t.text.clone()),
            TokenKind::Num => {}
            TokenKind::Punct if matches!(t.text.as_str(), "." | "[" | "]") => {}
            _ => break,
        }
    }
    idents.reverse();
    idents
}

/// Resolves a send site to its channel key and payload description: the
/// payload's leading enum path wins (`ShardMsg::…`), else the receiver's
/// name marks a control channel.
fn classify_send(args: &[Token], chain: &[String]) -> (String, String) {
    if args.len() >= 3
        && args[0].kind == TokenKind::Ident
        && args[1].text == ":"
        && args[2].text == ":"
    {
        let payload = format!(
            "{}::{}",
            args[0].text,
            args.get(3).map(|t| t.text.as_str()).unwrap_or("?")
        );
        return (args[0].text.clone(), payload);
    }
    for name in chain.iter().rev() {
        if name.contains("barrier") {
            return ("barrier".into(), "ack".into());
        }
        if name.contains("reply") {
            return ("reply".into(), "reply".into());
        }
    }
    (
        "unknown".into(),
        args.first().map(|t| t.text.clone()).unwrap_or_default(),
    )
}

/// Resolves a recv site to its channel key: the receiver's name for control
/// channels, else the enum matched on right after the recv (the `match msg
/// { ShardMsg::… }` idiom of the worker loops).
fn classify_recv(tokens: &[Token], at: usize, chain: &[String]) -> String {
    for name in chain.iter().rev() {
        if name.contains("barrier") {
            return "barrier".into();
        }
        if name.contains("reply") {
            return "reply".into();
        }
    }
    // Scan forward for the first `X::` path in match-arm position.
    let horizon = (at + 120).min(tokens.len());
    let mut k = at;
    while k + 3 < horizon {
        if tokens[k].kind == TokenKind::Ident && tokens[k].text == "match" {
            let mut j = k;
            while j + 3 < horizon {
                if tokens[j].kind == TokenKind::Ident
                    && tokens[j + 1].text == ":"
                    && tokens[j + 2].text == ":"
                    && tokens[j + 3].kind == TokenKind::Ident
                {
                    return tokens[j].text.clone();
                }
                j += 1;
            }
            break;
        }
        k += 1;
    }
    "unknown".into()
}

/// Collects `.lock()` sites from one file (tests excluded).
fn collect_locks(f: &SourceFile, out: &mut Vec<LockSite>) {
    for i in 0..f.tokens.len() {
        if !match_seq(&f.tokens, i, &[".", "lock", "(", ")"]) {
            continue;
        }
        let line = f.tokens[i].line;
        if f.in_test(line) {
            continue;
        }
        let chain = receiver_chain(&f.tokens, i);
        let Some(mutex) = chain.last().cloned() else {
            continue;
        };
        let function = f
            .enclosing_fn(line)
            .map(|s| s.name.clone())
            .unwrap_or_default();
        out.push(LockSite {
            mutex,
            function,
            file: f.rel.clone(),
            line,
        });
    }
}

/// Lock-order edges: within each function, every later acquisition of a
/// *different* mutex is ordered after every earlier one (conservative —
/// guards are assumed held for the rest of the function).
fn lock_order_edges(locks: &[LockSite]) -> Vec<(String, String)> {
    let mut per_fn: BTreeMap<(&str, &str), Vec<&LockSite>> = BTreeMap::new();
    for l in locks {
        per_fn
            .entry((l.file.as_str(), l.function.as_str()))
            .or_default()
            .push(l);
    }
    let mut edges = BTreeSet::new();
    for sites in per_fn.values() {
        for (a_idx, a) in sites.iter().enumerate() {
            for b in sites.iter().skip(a_idx + 1) {
                if a.mutex != b.mutex {
                    edges.insert((a.mutex.clone(), b.mutex.clone()));
                }
            }
        }
    }
    edges.into_iter().collect()
}

/// Channel sanity: every channel needs ≥1 sender and ≥1 receiver, data
/// channels must be bounded, and no send may target an unknown channel.
fn sanity_findings(topo: &Topology) -> Vec<Finding> {
    let mut out = Vec::new();
    for c in &topo.channels {
        let sends = topo.sends.iter().filter(|s| s.channel == c.key).count();
        let recvs = topo.recvs.iter().filter(|r| r.channel == c.key).count();
        if sends == 0 || recvs == 0 {
            out.push(Finding {
                rule: "topology",
                path: c.file.clone(),
                line: c.line,
                message: format!(
                    "channel `{}` has {sends} send site(s) and {recvs} recv site(s) — every \
                     channel needs at least one of each (unclassifiable constructions land \
                     here too; extend the extractor's conventions if this channel is new)",
                    c.key
                ),
            });
        }
        if !c.control && !c.bounded {
            out.push(Finding {
                rule: "topology",
                path: c.file.clone(),
                line: c.line,
                message: format!(
                    "data channel `{}` is unbounded — data paths use `sync_channel` so a slow \
                     consumer pushes back instead of buffering unboundedly",
                    c.key
                ),
            });
        }
    }
    for s in &topo.sends {
        if s.channel == "unknown" {
            out.push(Finding {
                rule: "topology",
                path: s.file.clone(),
                line: s.line,
                message: "send site could not be attributed to a channel — name the payload \
                          enum or the control channel binding so the topology stays checkable"
                    .into(),
            });
        }
    }
    out
}

/// Finds a cycle of blocking sends through the thread graph: edge
/// `sender → consumer` for every blocking send, consumers resolved via the
/// recv sites.
fn blocking_send_cycle(topo: &Topology) -> Option<Vec<String>> {
    let mut consumers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for r in &topo.recvs {
        consumers
            .entry(r.channel.as_str())
            .or_default()
            .insert(r.node.as_str());
    }
    let mut edges: Vec<(String, String)> = Vec::new();
    for s in &topo.sends {
        if !s.blocking {
            continue;
        }
        if let Some(nodes) = consumers.get(s.channel.as_str()) {
            for n in nodes {
                edges.push((s.node.clone(), (*n).to_string()));
            }
        }
    }
    find_cycle(&edges)
}

/// Generic cycle finder over string edges; returns the cycle's node path
/// (first node repeated at the end) if one exists.
pub fn find_cycle(edges: &[(String, String)]) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    // Iterative colored DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut color: BTreeMap<&str, Color> = nodes.iter().map(|&n| (n, Color::White)).collect();
    for &start in &nodes {
        if color[start] != Color::White {
            continue;
        }
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, Vec::new())];
        let mut path: Vec<&str> = Vec::new();
        while let Some((node, _)) = stack.last().cloned() {
            if color.get(node).copied().unwrap_or(Color::White) == Color::White {
                color.insert(node, Color::Gray);
                path.push(node);
                let succs: Vec<&str> = adj
                    .get(node)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default();
                stack.last_mut().expect("frame on stack").1 = succs;
            }
            let frame = stack.last_mut().expect("frame on stack");
            if let Some(next) = frame.1.pop() {
                match color.get(next).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        // Found a cycle: slice the current path from `next`.
                        let at = path.iter().position(|&n| n == next).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            path[at..].iter().map(|s| s.to_string()).collect();
                        cycle.push(next.to_string());
                        return Some(cycle);
                    }
                    Color::White => stack.push((next, Vec::new())),
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                path.pop();
                stack.pop();
            }
        }
    }
    None
}

/// Renders the topology as a Graphviz DOT digraph: boxes are thread
/// classes, ellipses are channels; solid edges are blocking sends, dashed
/// edges non-blocking sends, dotted edges the consume side.
pub fn to_dot(topo: &Topology) -> String {
    let mut out =
        String::from("digraph swift_topology {\n  rankdir=LR;\n  node [fontname=\"monospace\"];\n");
    let mut seen = BTreeSet::new();
    for n in &topo.nodes {
        if !seen.insert(n.name.clone()) {
            continue;
        }
        let mult = if n.many { " ×N" } else { "" };
        out.push_str(&format!(
            "  \"{}\" [shape=box, label=\"{}{}\"];\n",
            n.name, n.name, mult
        ));
    }
    for c in &topo.channels {
        let label = if c.bounded {
            format!("{}\\nsync_channel({})", c.key, c.capacity)
        } else {
            format!("{}\\nchannel (unbounded)", c.key)
        };
        out.push_str(&format!(
            "  \"chan:{}\" [shape=ellipse, label=\"{}\"];\n",
            c.key, label
        ));
    }
    let mut edges = BTreeSet::new();
    for s in &topo.sends {
        let style = if s.blocking { "solid" } else { "dashed" };
        edges.insert(format!(
            "  \"{}\" -> \"chan:{}\" [style={}, label=\"{}\"];\n",
            s.node, s.channel, style, s.method
        ));
    }
    for r in &topo.recvs {
        edges.insert(format!(
            "  \"chan:{}\" -> \"{}\" [style=dotted];\n",
            r.channel, r.node
        ));
    }
    for e in edges {
        out.push_str(&e);
    }
    out.push_str("}\n");
    out
}

/// Renders the report as JSON (hand-rolled: the workspace is offline, no
/// serde).
pub fn to_json(report: &TopologyReport) -> String {
    let t = &report.topology;
    let mut out = String::from("{\n");
    out.push_str("  \"nodes\": [");
    let mut first = true;
    let mut seen = BTreeSet::new();
    for n in &t.nodes {
        if !seen.insert(n.name.clone()) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"many\": {}, \"body_fn\": \"{}\", \"file\": \"{}\", \"line\": {}}}",
            json_escape(&n.name),
            n.many,
            json_escape(&n.body_fn),
            json_escape(&n.file),
            n.line
        ));
    }
    out.push_str("\n  ],\n  \"channels\": [");
    first = true;
    for c in &t.channels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"key\": \"{}\", \"bounded\": {}, \"control\": {}, \"capacity\": \"{}\", \"file\": \"{}\", \"line\": {}}}",
            json_escape(&c.key),
            c.bounded,
            c.control,
            json_escape(&c.capacity),
            json_escape(&c.file),
            c.line
        ));
    }
    out.push_str("\n  ],\n  \"sends\": [");
    first = true;
    for s in &t.sends {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"node\": \"{}\", \"channel\": \"{}\", \"method\": \"{}\", \"blocking\": {}, \"payload\": \"{}\", \"file\": \"{}\", \"line\": {}}}",
            json_escape(&s.node),
            json_escape(&s.channel),
            s.method,
            s.blocking,
            json_escape(&s.payload),
            json_escape(&s.file),
            s.line
        ));
    }
    out.push_str("\n  ],\n  \"recvs\": [");
    first = true;
    for r in &t.recvs {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"node\": \"{}\", \"channel\": \"{}\", \"file\": \"{}\", \"line\": {}}}",
            json_escape(&r.node),
            json_escape(&r.channel),
            json_escape(&r.file),
            r.line
        ));
    }
    out.push_str("\n  ],\n  \"locks\": [");
    first = true;
    for l in &t.locks {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"mutex\": \"{}\", \"function\": \"{}\", \"file\": \"{}\", \"line\": {}}}",
            json_escape(&l.mutex),
            json_escape(&l.function),
            json_escape(&l.file),
            l.line
        ));
    }
    out.push_str("\n  ],\n  \"lock_edges\": [");
    first = true;
    for (a, b) in &t.lock_edges {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    [\"{}\", \"{}\"]",
            json_escape(a),
            json_escape(b)
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"blocking_send_cycle\": {},\n",
        cycle_json(&report.blocking_cycle)
    ));
    out.push_str(&format!(
        "  \"lock_cycle\": {},\n",
        cycle_json(&report.lock_cycle)
    ));
    out.push_str(&format!("  \"clean\": {}\n}}\n", report.clean()));
    out
}

fn cycle_json(cycle: &Option<Vec<String>>) -> String {
    match cycle {
        None => "null".into(),
        Some(nodes) => format!(
            "[{}]",
            nodes
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}
