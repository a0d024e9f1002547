//! The lint engine: repo-specific rules over the lexed token streams.
//!
//! Every rule reports rustc-style findings (`path:line: rule: message`) and
//! honours the pragma syntax
//!
//! ```text
//! // swift-lint: allow(<rule>) -- <reason>
//! ```
//!
//! on the pragma's own line or the line directly below it. A pragma without
//! a `-- reason` suppresses nothing and is itself flagged, so every
//! exemption in the tree carries its justification.
//!
//! | key | invariant enforced |
//! |-----|--------------------|
//! | `instant-now` | PR 5's epoch-clock discipline: no `Instant::now()` on the per-event ingest/worker hot paths outside the allowlist |
//! | `unwrap` | no bare `.unwrap()` in non-test library code — use `.expect("<invariant>")` |
//! | `unbounded-channel` | `mpsc::channel()` (unbounded) only for reply/barrier control channels; data paths use `sync_channel` |
//! | `thread-spawn` | threads are spawned only by `swift-runtime` and the bench harnesses |
//! | `lifecycle-send` | lifecycle/barrier messages are never shed: no `try_send` of `Register`/`Teardown`/`Barrier`/`Resync`/`Shutdown`/`ShardDone` |
//! | `hot-path-alloc` | the fused-kernel scoring hot path stays allocation-free: no `Vec::new()` / `IdBitSet::new()` / `vec![...]` in kernel bodies or the hot scoring functions — capacity lives in the engine-owned `ScoreScratch`; likewise the resync's stage-1 retag loop (`refresh_ids`, `compute_tag`, `set_tag`, `select_backup_among`): nothing allocated per dirty prefix |
//! | `pragma` | every `swift-lint` pragma is well-formed, names a known rule and carries a reason |
//! | `protocol` | the `ShardMsg`/`ApplierMsg` traffic matches the declared automaton: broadcasts loop over the fan-out collection, nothing follows a terminal message, acks/replies are exactly-once, quorums are gated (see [`crate::protocol`]) |
//! | `protocol-wildcard` | no `_` arm on a protocol enum match — new variants must not be silently droppable (see [`crate::protocol`]) |
//! | `atomic-ordering` | every atomic op classifies into a role and handshake flags are Release/Acquire-paired, channel-edge-proven or pragma'd (see [`crate::atomics`]) |
//! | `budget` | the analyzer itself finished inside `--budget-ms` (CI keeps the full check under 10 s) |

use crate::lexer::{match_seq, matching_close, TokenKind};
use crate::{Finding, SourceFile};

/// Rule key: `Instant::now()` on the ingest/worker hot paths.
pub const RULE_INSTANT_NOW: &str = "instant-now";
/// Rule key: bare `.unwrap()` in library code.
pub const RULE_UNWRAP: &str = "unwrap";
/// Rule key: unbounded `mpsc::channel()` on a data path.
pub const RULE_UNBOUNDED_CHANNEL: &str = "unbounded-channel";
/// Rule key: thread spawn outside runtime/bench.
pub const RULE_THREAD_SPAWN: &str = "thread-spawn";
/// Rule key: `try_send` of a lifecycle/barrier message.
pub const RULE_LIFECYCLE_SEND: &str = "lifecycle-send";
/// Rule key: per-call heap allocation on the inference scoring hot path.
pub const RULE_HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule key: malformed or unknown pragma.
pub const RULE_PRAGMA: &str = "pragma";
/// Rule key: message-protocol violation against the declared automaton
/// (spec drift, missed broadcast, data send after a terminal message,
/// ack/reply/quorum breakage). Checked by [`crate::protocol`].
pub const RULE_PROTOCOL: &str = "protocol";
/// Rule key: wildcard `_` match arm on a protocol enum. Checked by
/// [`crate::protocol`].
pub const RULE_PROTOCOL_WILDCARD: &str = "protocol-wildcard";
/// Rule key: atomic-ordering violation (a handshake flag without
/// Release/Acquire pairing, a channel-edge proof, or a pragma; or an
/// unclassifiable op mix). Checked by [`crate::atomics`].
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule key: the analyzer's own runtime exceeded the `--budget-ms` cap.
pub const RULE_BUDGET: &str = "budget";

/// Every rule key the pragma checker accepts in `allow(...)`.
pub const KNOWN_RULES: &[&str] = &[
    RULE_INSTANT_NOW,
    RULE_UNWRAP,
    RULE_UNBOUNDED_CHANNEL,
    RULE_THREAD_SPAWN,
    RULE_LIFECYCLE_SEND,
    RULE_HOT_PATH_ALLOC,
    RULE_PROTOCOL,
    RULE_PROTOCOL_WILDCARD,
    RULE_ATOMIC_ORDERING,
];

/// The hot-path files `instant-now` polices.
const HOT_PATH_FILES: &[&str] = &[
    "crates/runtime/src/ingest.rs",
    "crates/runtime/src/worker.rs",
];

/// Functions inside the hot-path files where `Instant::now()` is fine:
/// constructors (`new` — clock/handle setup, not per-event), and the
/// consumer-side loop bodies (`shard_loop`, `applier_loop`) whose per-batch /
/// per-message measurements are the documented exception — they are off the
/// per-event path and are what the latency metrics are made of.
const INSTANT_NOW_ALLOWED_FNS: &[&str] = &["new", "shard_loop", "applier_loop"];

/// Which function bodies of a `hot-path-alloc` file are hot.
enum HotFns {
    /// Every function but the constructors (`new`, `default`,
    /// `with_capacity`): building the engine-owned scratch is the one place
    /// capacity is created.
    AllButConstructors,
    /// Exactly these.
    Only(&'static [&'static str]),
}

/// What `hot-path-alloc` polices: each file with the functions that are hot
/// *in that file* — a name as common as `insert` or `update` polices only the
/// file it lives in.
///
/// * `kernels.rs` exists for the allocation-free pass: every body is hot.
/// * The scorer files: the per-trial / per-event functions where a fresh
///   `Vec`/`IdBitSet` would allocate once per greedy step or ranking drain,
///   the counters' per-event path (`on_withdraw`, `announce_interned`: every
///   withdrawal and announcement of every session), the ranker's
///   per-attempt fold (`update`, `ranking`, `rank_into`) and the crossing
///   count an attempt turned down before the chain stops at. Reference
///   implementations (`*_scan`, `*_materialized`, `union_bits`, `rescore`,
///   `rank_link_ids`) deliberately stay off — their allocations are the
///   baseline the kernels are measured against.
/// * The encoding files: the stage-1 retag loop of the post-convergence
///   resync, run once per dirty prefix (22 k per cycle at 1 M prefixes);
///   `build` beside it sizes its arrays once and stays off.
/// * The `crates/bgp/` files: what `RoutingTable::apply_owned` runs per event
///   (a route is a flat record: installing one is array writes, withdrawing
///   one frees nothing) and the `AsPath` reads every candidate comparison of
///   a retag goes through; whole-table queries beside them (`clear_peer`,
///   `prefixes_via_links`, the link counts) stay off.
const ALLOC_HOT: &[(&str, HotFns)] = &[
    (
        "crates/core/src/inference/kernels.rs",
        HotFns::AllButConstructors,
    ),
    (
        "crates/core/src/inference/fit_score.rs",
        HotFns::Only(&["score_link_set", "update", "ranking", "rank_into"]),
    ),
    (
        "crates/core/src/inference/aggregate.rs",
        HotFns::Only(&["infer_with_scorer", "seed", "trial", "accept", "score_set"]),
    ),
    (
        "crates/core/src/inference/counters.rs",
        HotFns::Only(&[
            "on_withdraw",
            "announce_interned",
            "union_counts",
            "union_counts_of",
            "fused_counts",
            "union_counts_buffered",
            "wp",
            "w_union",
            "p_union",
            "crossing_count",
            "agg_seed",
            "agg_delta",
            "agg_accept",
            "crossing_prefixes",
        ]),
    ),
    (
        "crates/core/src/encoding/two_stage.rs",
        HotFns::Only(&["refresh_ids", "compute_tag", "set_tag"]),
    ),
    (
        "crates/core/src/encoding/backup.rs",
        HotFns::Only(&["select_backup_among"]),
    ),
    ("crates/bgp/src/rib.rs", HotFns::Only(&["insert", "remove"])),
    (
        "crates/bgp/src/table.rs",
        HotFns::Only(&["apply_owned", "insert"]),
    ),
    (
        "crates/bgp/src/as_path.rs",
        HotFns::Only(&["hops", "links", "link_at_position"]),
    ),
];

/// The message-enum variants that make up the lifecycle/barrier protocol —
/// shedding any of these would break in-band ordering or the barrier quorum.
const LIFECYCLE_VARIANTS: &[&str] = &[
    "Register",
    "Teardown",
    "Barrier",
    "Resync",
    "Shutdown",
    "ShardDone",
];

/// Runs every applicable rule over `file`.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    check_pragmas(file, &mut out);
    if HOT_PATH_FILES.contains(&file.rel.as_str()) {
        check_instant_now(file, &mut out);
    }
    if unwrap_scope(&file.rel) {
        check_unwrap(file, &mut out);
    }
    if channel_scope(&file.rel) {
        check_unbounded_channel(file, &mut out);
        check_lifecycle_send(file, &mut out);
    }
    if thread_spawn_scope(&file.rel) {
        check_thread_spawn(file, &mut out);
    }
    if let Some((_, hot_fns)) = ALLOC_HOT.iter().find(|(rel, _)| *rel == file.rel) {
        check_hot_path_alloc(file, hot_fns, &mut out);
    }
    out
}

/// `unwrap` scope: every library crate's `src/` (the bench harnesses and
/// experiment binaries may unwrap CLI/IO errors freely).
fn unwrap_scope(rel: &str) -> bool {
    let lib_src = (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/");
    lib_src && !rel.starts_with("crates/bench/")
}

/// `unbounded-channel` / `lifecycle-send` scope: the concurrent pipeline —
/// the runtime crate and the core pipeline it drives.
fn channel_scope(rel: &str) -> bool {
    rel.starts_with("crates/runtime/src/") || rel.starts_with("crates/core/src/")
}

/// `thread-spawn` scope: everywhere except the runtime (whose whole job is
/// spawning the shard/applier threads) and the bench harnesses (producer
/// threads for the multi-ingest experiments).
fn thread_spawn_scope(rel: &str) -> bool {
    let lib_src = (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/");
    lib_src && !rel.starts_with("crates/runtime/src/") && !rel.starts_with("crates/bench/")
}

/// `instant-now`: flags `Instant::now` token sequences (called or passed as
/// a function value — both read the clock at runtime) in hot-path files,
/// outside allowlisted functions, test code and pragmas.
fn check_instant_now(file: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..file.tokens.len() {
        if !match_seq(&file.tokens, i, &["Instant", ":", ":", "now"]) {
            continue;
        }
        let line = file.tokens[i].line;
        if file.in_test(line) || file.allowed(RULE_INSTANT_NOW, line) {
            continue;
        }
        if let Some(f) = file.enclosing_fn(line) {
            if INSTANT_NOW_ALLOWED_FNS.contains(&f.name.as_str()) {
                continue;
            }
        }
        out.push(Finding {
            rule: RULE_INSTANT_NOW,
            path: file.rel.clone(),
            line,
            message: "`Instant::now()` on the ingest/worker hot path — stamp events with the \
                      shared `EpochClock` (PR 5's epoch-clock discipline) or justify with \
                      `// swift-lint: allow(instant-now) -- <reason>`"
                .into(),
        });
    }
}

/// `unwrap`: flags `.unwrap()` (exactly — `unwrap_or*` never fires) outside
/// test code and pragmas.
fn check_unwrap(file: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..file.tokens.len() {
        if !match_seq(&file.tokens, i, &[".", "unwrap", "(", ")"]) {
            continue;
        }
        let line = file.tokens[i + 1].line;
        if file.in_test(line) || file.allowed(RULE_UNWRAP, line) {
            continue;
        }
        out.push(Finding {
            rule: RULE_UNWRAP,
            path: file.rel.clone(),
            line,
            message: "bare `.unwrap()` in library code — name the invariant with \
                      `.expect(\"...\")` or justify with \
                      `// swift-lint: allow(unwrap) -- <reason>`"
                .into(),
        });
    }
}

/// `unbounded-channel`: flags `mpsc::channel()` unless the `let` binding
/// names mark it as a reply/barrier control channel (idents containing
/// `reply` or `barrier`) or a pragma justifies it. Data paths must use
/// `sync_channel` so a slow consumer pushes back instead of buffering
/// unboundedly.
fn check_unbounded_channel(file: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..file.tokens.len() {
        if !match_seq(&file.tokens, i, &["mpsc", ":", ":", "channel"])
            || call_open_paren(&file.tokens, i + 3).is_none()
        {
            continue;
        }
        let line = file.tokens[i].line;
        if file.in_test(line) || file.allowed(RULE_UNBOUNDED_CHANNEL, line) {
            continue;
        }
        if channel_binding_is_control(file, i) {
            continue;
        }
        out.push(Finding {
            rule: RULE_UNBOUNDED_CHANNEL,
            path: file.rel.clone(),
            line,
            message: "unbounded `mpsc::channel()` on a data path — use `sync_channel` \
                      (bounded, backpressure) or mark the binding as a control channel \
                      (`reply`/`barrier` in the name) or justify with \
                      `// swift-lint: allow(unbounded-channel) -- <reason>`"
                .into(),
        });
    }
}

/// For a call whose name token sits at `name`, returns the index of the
/// opening `(`, skipping an optional turbofish (`mpsc::channel::<T>()`).
fn call_open_paren(tokens: &[crate::lexer::Token], name: usize) -> Option<usize> {
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

/// Walks back from the `mpsc` token at `at` to the statement's `let` and
/// reports whether any bound ident names a control channel.
fn channel_binding_is_control(file: &SourceFile, at: usize) -> bool {
    let mut j = at;
    // Scan back to the start of the statement (a `;`, `{` or `}`), then
    // forward from the `let` collecting pattern idents.
    while j > 0 {
        let t = &file.tokens[j - 1];
        if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        j -= 1;
        if at - j > 32 {
            break;
        }
    }
    file.tokens[j..at].iter().any(|t| {
        t.kind == TokenKind::Ident && (t.text.contains("reply") || t.text.contains("barrier"))
    })
}

/// `thread-spawn`: flags `thread::spawn(...)` and `.spawn(...)` in crates
/// that must stay thread-free — concurrency lives in `swift-runtime` (and
/// the bench harnesses), everything else stays deterministic and testable.
fn check_thread_spawn(file: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..file.tokens.len() {
        let path_spawn = match_seq(&file.tokens, i, &["thread", ":", ":", "spawn", "("]);
        let method_spawn = match_seq(&file.tokens, i, &[".", "spawn", "("]);
        if !(path_spawn || method_spawn) {
            continue;
        }
        let line = file.tokens[i].line;
        if file.in_test(line) || file.allowed(RULE_THREAD_SPAWN, line) {
            continue;
        }
        out.push(Finding {
            rule: RULE_THREAD_SPAWN,
            path: file.rel.clone(),
            line,
            message: "thread spawn outside `swift-runtime`/`swift-bench` — route concurrency \
                      through the runtime (`ShardedRuntime`, `IngestHandle`) so the topology \
                      checker sees it, or justify with \
                      `// swift-lint: allow(thread-spawn) -- <reason>`"
                .into(),
        });
    }
}

/// `lifecycle-send`: flags `try_send(...)` whose payload mentions a
/// lifecycle/barrier variant. Those messages carry in-band ordering and the
/// barrier quorum — shedding one would desynchronize engines and appliers
/// (CHANGES.md PR 4: "lifecycle messages are never shed").
fn check_lifecycle_send(file: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..file.tokens.len() {
        if !match_seq(&file.tokens, i, &[".", "try_send", "("]) {
            continue;
        }
        let line = file.tokens[i + 1].line;
        let close = matching_close(&file.tokens, i + 2);
        let payload = &file.tokens[i + 3..close.min(file.tokens.len())];
        let variant = payload
            .iter()
            .find(|t| t.kind == TokenKind::Ident && LIFECYCLE_VARIANTS.contains(&t.text.as_str()));
        let Some(variant) = variant else {
            continue;
        };
        if file.in_test(line) || file.allowed(RULE_LIFECYCLE_SEND, line) {
            continue;
        }
        out.push(Finding {
            rule: RULE_LIFECYCLE_SEND,
            path: file.rel.clone(),
            line,
            message: format!(
                "`try_send` of lifecycle/barrier message `{}` — lifecycle messages are never \
                 shed (in-band ordering, barrier quorum): use the blocking `send`",
                variant.text
            ),
        });
    }
}

/// `hot-path-alloc`: flags per-call heap allocation (`Vec::new()`,
/// `IdBitSet::new()`, `vec![...]`) inside the fused-kernel scoring hot path
/// and the stage-1 retag loop: the functions [`ALLOC_HOT`] lists for `file`.
/// Test code never fires, and a pragma with a reason exempts a line — but the
/// kernel bodies themselves are expected to stay pragma-free (capacity
/// belongs in `ScoreScratch`, not in a justified allocation).
fn check_hot_path_alloc(file: &SourceFile, hot_fns: &HotFns, out: &mut Vec<Finding>) {
    let mirror = file.rel.starts_with("crates/bgp/");
    for i in 0..file.tokens.len() {
        let vec_new = match_seq(&file.tokens, i, &["Vec", ":", ":", "new", "(", ")"]);
        let bitset_new = match_seq(&file.tokens, i, &["IdBitSet", ":", ":", "new", "(", ")"]);
        let vec_macro = match_seq(&file.tokens, i, &["vec", "!", "["]);
        if !(vec_new || bitset_new || vec_macro) {
            continue;
        }
        let line = file.tokens[i].line;
        if file.in_test(line) || file.allowed(RULE_HOT_PATH_ALLOC, line) {
            continue;
        }
        let hot = file.enclosing_fn(line).is_some_and(|f| match hot_fns {
            HotFns::AllButConstructors => {
                !["new", "default", "with_capacity"].contains(&f.name.as_str())
            }
            HotFns::Only(fns) => fns.contains(&f.name.as_str()),
        });
        if !hot {
            continue;
        }
        let what = if vec_macro {
            "`vec![...]`"
        } else if vec_new {
            "`Vec::new()`"
        } else {
            "`IdBitSet::new()`"
        };
        let contract = if file.rel.contains("/encoding/") {
            "in the stage-1 retag loop — it runs once per dirty prefix of a resync and \
             allocates nothing: hoist the buffer to the caller"
        } else if mirror {
            "on the RIB mirror's per-event path — a route is one flat record, so \
             applying an event is array writes and reading a path follows no pointer: \
             keep the buffer in the table, or build it in the caller"
        } else {
            "on the inference scoring hot path — the fused kernels are \
             allocation-free by contract: reuse the engine-owned `ScoreScratch` \
             (or `Vec::with_capacity` outside the kernel bodies)"
        };
        out.push(Finding {
            rule: RULE_HOT_PATH_ALLOC,
            path: file.rel.clone(),
            line,
            message: format!(
                "{what} {contract}, or justify with \
                 `// swift-lint: allow(hot-path-alloc) -- <reason>`"
            ),
        });
    }
}

/// `pragma`: every `swift-lint` pragma must be `allow(<known-rule>) -- \
/// <reason>` — malformed pragmas, unknown rules and missing reasons are
/// findings so a typo cannot silently disable a lint.
pub fn check_pragmas(file: &SourceFile, out: &mut Vec<Finding>) {
    for p in &file.pragmas {
        let message = if p.rule.is_empty() {
            "malformed `swift-lint` pragma — expected \
             `// swift-lint: allow(<rule>) -- <reason>`"
                .to_string()
        } else if !KNOWN_RULES.contains(&p.rule.as_str()) {
            format!(
                "unknown rule `{}` in `swift-lint` pragma — known rules: {}",
                p.rule,
                KNOWN_RULES.join(", ")
            )
        } else if p.reason.is_empty() {
            format!(
                "`swift-lint: allow({})` without a `-- <reason>` justification suppresses \
                 nothing — state why the exemption is sound",
                p.rule
            )
        } else {
            continue;
        };
        out.push(Finding {
            rule: RULE_PRAGMA,
            path: file.rel.clone(),
            line: p.line,
            message,
        });
    }
}
