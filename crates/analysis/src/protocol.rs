//! The protocol verifier: checks the runtime's `ShardMsg`/`ApplierMsg`
//! message protocol against the declared spec in
//! `crates/analysis/protocol/runtime.protocol`.
//!
//! The runtime's correctness argument leans on properties the compiler
//! cannot see: lifecycle messages broadcast to *all* shard workers (a missed
//! broadcast is a silent hang — a shard that never hears a `Barrier` never
//! forwards it, and the applier's quorum never fills), every `Barrier(seq)`
//! answered by exactly one ack, no data traffic after `Shutdown`, `Resync` replies
//! bounded to one per request, no lifecycle message ever `try_send`-shed
//! under backpressure, and protocol `match`es kept wildcard-free so
//! a new variant cannot be silently dropped. This module extracts every
//! send/recv site of the protocol enums from `runtime/src` (over the
//! [`crate::parser`] AST), builds the per-channel message-sequence
//! automaton, checks it against the spec, and emits the automaton as
//! `target/analysis/protocol.{dot,json}`.
//!
//! The spec format is line-oriented (`channel` / `state` / `msg`
//! declarations) and documented in the spec file itself.

use crate::lexer::TokenKind;
use crate::parser::{self, Arm};
use crate::{json_escape, Finding, SourceFile, Workspace, RULE_PROTOCOL, RULE_PROTOCOL_WILDCARD};
use std::collections::{BTreeMap, BTreeSet};

/// Workspace-relative path of the protocol spec.
pub const SPEC_PATH: &str = "crates/analysis/protocol/runtime.protocol";

/// One declared state of a channel automaton.
#[derive(Debug, Clone)]
pub struct StateSpec {
    /// The state's name.
    pub name: String,
    /// `true` for the initial state.
    pub initial: bool,
    /// `true` for a final (absorbing) state.
    pub terminal: bool,
}

/// One declared message (= automaton transition) of a channel.
#[derive(Debug, Clone)]
pub struct MsgSpec {
    /// The enum variant's name.
    pub name: String,
    /// `data` (sheddable payload) or `lifecycle` (in-band, never shed: a
    /// `try_send` of it is a finding).
    pub kind: String,
    /// If set, every send site must sit in a loop whose header contains
    /// this substring (the fan-out collection).
    pub broadcast: Option<String>,
    /// `true` if no data-kind send on this channel may follow this message
    /// in the sending function.
    pub terminal: bool,
    /// If set, the handling arm must send exactly once on the control
    /// channel whose receiver binding contains this substring.
    pub ack: Option<String>,
    /// If set, the handling arm must reply exactly once on the carried
    /// channel whose binding contains this substring.
    pub reply: Option<String>,
    /// If set, the handling arm counts toward a quorum compared against
    /// this ident in the receiving function.
    pub quorum: Option<String>,
    /// Source state.
    pub from: String,
    /// Target state.
    pub to: String,
}

/// One channel's declared automaton.
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    /// The protocol enum's name (`ShardMsg`, `ApplierMsg`).
    pub name: String,
    /// Declared states.
    pub states: Vec<StateSpec>,
    /// Declared messages/transitions.
    pub msgs: Vec<MsgSpec>,
}

/// The parsed protocol spec.
#[derive(Debug, Clone, Default)]
pub struct ProtocolSpec {
    /// Every declared channel.
    pub channels: Vec<ChannelSpec>,
}

impl ProtocolSpec {
    /// The channel named `name`, if declared.
    pub fn channel(&self, name: &str) -> Option<&ChannelSpec> {
        self.channels.iter().find(|c| c.name == name)
    }
}

/// Parses the line-oriented spec format.
pub fn parse_spec(text: &str) -> Result<ProtocolSpec, String> {
    let mut spec = ProtocolSpec::default();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let err = |msg: &str| format!("protocol spec line {}: {msg}: `{line}`", ln + 1);
        match words[0] {
            "channel" => {
                let name = words.get(1).ok_or_else(|| err("missing channel name"))?;
                spec.channels.push(ChannelSpec {
                    name: (*name).to_string(),
                    states: Vec::new(),
                    msgs: Vec::new(),
                });
            }
            "state" => {
                let chan = spec
                    .channels
                    .last_mut()
                    .ok_or_else(|| err("state before any channel"))?;
                let name = words.get(1).ok_or_else(|| err("missing state name"))?;
                chan.states.push(StateSpec {
                    name: (*name).to_string(),
                    initial: words.contains(&"initial"),
                    terminal: words.contains(&"final"),
                });
            }
            "msg" => {
                let chan = spec
                    .channels
                    .last_mut()
                    .ok_or_else(|| err("msg before any channel"))?;
                let name = words.get(1).ok_or_else(|| err("missing msg name"))?;
                // Trailing `<From> -> <To>`.
                let arrow = words
                    .iter()
                    .position(|w| *w == "->")
                    .ok_or_else(|| err("missing `From -> To` transition"))?;
                if arrow < 3 || arrow + 1 >= words.len() {
                    return Err(err("malformed `From -> To` transition"));
                }
                let mut msg = MsgSpec {
                    name: (*name).to_string(),
                    kind: String::new(),
                    broadcast: None,
                    terminal: false,
                    ack: None,
                    reply: None,
                    quorum: None,
                    from: words[arrow - 1].to_string(),
                    to: words[arrow + 1].to_string(),
                };
                for w in &words[2..arrow - 1] {
                    match w.split_once('=') {
                        Some(("kind", v)) => msg.kind = v.to_string(),
                        Some(("broadcast", v)) => msg.broadcast = Some(v.to_string()),
                        Some(("ack", v)) => msg.ack = Some(v.to_string()),
                        Some(("reply", v)) => msg.reply = Some(v.to_string()),
                        Some(("quorum", v)) => msg.quorum = Some(v.to_string()),
                        None if *w == "terminal" => msg.terminal = true,
                        _ => return Err(err(&format!("unknown msg attribute `{w}`"))),
                    }
                }
                if msg.kind != "data" && msg.kind != "lifecycle" {
                    return Err(err("msg needs kind=data or kind=lifecycle"));
                }
                for s in [&msg.from, &msg.to] {
                    if !chan.states.iter().any(|st| &st.name == s) {
                        return Err(err(&format!("undeclared state `{s}`")));
                    }
                }
                chan.msgs.push(msg);
            }
            other => return Err(err(&format!("unknown declaration `{other}`"))),
        }
    }
    for c in &spec.channels {
        if c.states.iter().filter(|s| s.initial).count() != 1 {
            return Err(format!("channel {}: exactly one initial state", c.name));
        }
    }
    Ok(spec)
}

/// One observed send site of a protocol message.
#[derive(Debug, Clone)]
pub struct SendSite {
    /// The channel (enum) name.
    pub channel: String,
    /// The variant sent.
    pub variant: String,
    /// `send` or `try_send`.
    pub method: String,
    /// The sending function.
    pub fn_name: String,
    /// Headers of the enclosing loops, outermost first.
    pub loops: Vec<String>,
    /// Ids of the enclosing loops (for same-loop queries).
    pub loop_ids: Vec<u32>,
    /// Visit order within the extraction (source order within a fn).
    pub seq: usize,
    /// File of the site.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// One arm of an observed protocol `match`.
#[derive(Debug, Clone)]
pub struct ArmSite {
    /// The variant the arm covers (`None` for wildcard/foreign patterns).
    pub variant: Option<String>,
    /// `true` for a `_` arm.
    pub wildcard: bool,
    /// Receiver chains (joined with `.`) of `send` calls inside the arm.
    pub sends: Vec<String>,
    /// Every ident token inside the arm body.
    pub idents: Vec<String>,
    /// 1-based line of the pattern.
    pub line: u32,
}

/// One observed `match` over a protocol enum.
#[derive(Debug, Clone)]
pub struct MatchSite {
    /// The channel (enum) name.
    pub channel: String,
    /// The function the match sits in.
    pub fn_name: String,
    /// Every ident token of the enclosing function (for quorum scans).
    pub fn_idents: Vec<String>,
    /// The arms.
    pub arms: Vec<ArmSite>,
    /// File of the site.
    pub file: String,
    /// 1-based line of the `match`.
    pub line: u32,
}

/// One transition of the emitted automaton: the spec msg plus observed
/// send/recv counts.
#[derive(Debug, Clone)]
pub struct Transition {
    /// The message (spec attrs included).
    pub msg: MsgSpec,
    /// Observed send sites.
    pub sends: usize,
    /// Observed handling arms across protocol matches.
    pub recv_arms: usize,
}

/// One channel of the emitted automaton.
#[derive(Debug, Clone)]
pub struct ChannelAutomaton {
    /// The channel name.
    pub name: String,
    /// Declared states.
    pub states: Vec<StateSpec>,
    /// Transitions with observed counts.
    pub transitions: Vec<Transition>,
}

/// The verifier's result: findings plus the automaton artifact.
#[derive(Debug, Default)]
pub struct ProtocolReport {
    /// Findings (spec mismatches, missed broadcasts, wildcard arms, …).
    pub findings: Vec<Finding>,
    /// The per-channel automaton (spec transitions + observed counts).
    pub automaton: Vec<ChannelAutomaton>,
    /// Every observed protocol send site.
    pub sends: Vec<SendSite>,
    /// Every observed protocol `match`.
    pub matches: Vec<MatchSite>,
}

impl ProtocolReport {
    /// `true` if the observed protocol matches the spec.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Loads the spec from `<root>/crates/analysis/protocol/runtime.protocol`
/// and verifies the runtime sources against it. A missing spec is tolerated
/// only while the tree has no protocol traffic (fixture workspaces).
pub fn check(ws: &Workspace) -> ProtocolReport {
    let runtime: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| f.rel.starts_with("crates/runtime/src/"))
        .collect();
    let spec_text = std::fs::read_to_string(ws.root.join(SPEC_PATH));
    match spec_text {
        Ok(text) => match parse_spec(&text) {
            Ok(spec) => check_files(&spec, &runtime),
            Err(e) => ProtocolReport {
                findings: vec![Finding {
                    rule: RULE_PROTOCOL,
                    path: SPEC_PATH.into(),
                    line: 0,
                    message: e,
                }],
                ..ProtocolReport::default()
            },
        },
        Err(_) => {
            // No spec: only acceptable while nothing speaks the protocol
            // (e.g. the synthetic workspaces of the CLI tests).
            let mut report = ProtocolReport::default();
            let has_protocol = runtime.iter().any(|f| {
                parser::parse(f).enums.iter().any(|e| {
                    e.variants.iter().any(|v| v == "Barrier" || v == "Shutdown")
                        && !f.in_test(e.line)
                })
            });
            if has_protocol {
                report.findings.push(Finding {
                    rule: RULE_PROTOCOL,
                    path: SPEC_PATH.into(),
                    line: 0,
                    message: "runtime sources define a lifecycle protocol enum but the protocol \
                              spec is missing — declare the automaton in the spec file"
                        .into(),
                });
            }
            report
        }
    }
}

/// Verifies `files` (the runtime sources, or a fixture emulating them)
/// against `spec`.
pub fn check_files(spec: &ProtocolSpec, files: &[&SourceFile]) -> ProtocolReport {
    let channel_names: BTreeSet<&str> = spec.channels.iter().map(|c| c.name.as_str()).collect();
    let mut findings = Vec::new();
    let mut sends: Vec<SendSite> = Vec::new();
    let mut matches: Vec<MatchSite> = Vec::new();
    // Observed enum definitions: name -> (variants, file, line).
    let mut enums: BTreeMap<String, (Vec<String>, String, u32)> = BTreeMap::new();
    let mut seq = 0usize;

    for f in files {
        let ast = parser::parse(f);
        for e in &ast.enums {
            if channel_names.contains(e.name.as_str()) && !f.in_test(e.line) {
                enums.insert(e.name.clone(), (e.variants.clone(), f.rel.clone(), e.line));
            }
        }
        for fun in &ast.fns {
            if f.in_test(fun.start_line) {
                continue;
            }
            parser::for_each_call(&fun.body, &mut |c, loops| {
                if !c.method
                    || !matches!(c.path.last().map(String::as_str), Some("send" | "try_send"))
                {
                    return;
                }
                let Some((channel, variant)) =
                    payload_variant(f, c.args_lo, c.args_hi, &channel_names)
                else {
                    return;
                };
                seq += 1;
                sends.push(SendSite {
                    channel,
                    variant,
                    method: c.path.last().cloned().unwrap_or_default(),
                    fn_name: fun.name.clone(),
                    loops: loops.iter().map(|(_, h)| (*h).to_string()).collect(),
                    loop_ids: loops.iter().map(|(id, _)| *id).collect(),
                    seq,
                    file: f.rel.clone(),
                    line: c.line,
                });
            });
            let fn_idents: Vec<String> = f
                .fns
                .iter()
                .find(|s| s.name == fun.name && s.start_line == fun.start_line)
                .map(|s| {
                    f.tokens[s.start_tok..=s.end_tok.min(f.tokens.len() - 1)]
                        .iter()
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone())
                        .collect()
                })
                .unwrap_or_default();
            parser::for_each_match(&fun.body, &mut |_, arms, line| {
                let Some(channel) = arms
                    .iter()
                    .find(|a| a.path.len() == 2 && channel_names.contains(a.path[0].as_str()))
                    .map(|a| a.path[0].clone())
                else {
                    return;
                };
                if f.in_test(line) {
                    return;
                }
                let arm_sites = arms
                    .iter()
                    .map(|a| arm_site(f, &channel, a))
                    .collect::<Vec<_>>();
                matches.push(MatchSite {
                    channel,
                    fn_name: fun.name.clone(),
                    fn_idents: fn_idents.clone(),
                    arms: arm_sites,
                    file: f.rel.clone(),
                    line,
                });
            });
        }
    }

    let by_rel: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.rel.as_str(), *f)).collect();
    let allowed =
        |rule: &str, file: &str, line: u32| by_rel.get(file).is_some_and(|f| f.allowed(rule, line));

    // 1. Spec channels exist as enums and the variant sets agree.
    for chan in &spec.channels {
        match enums.get(&chan.name) {
            None => findings.push(Finding {
                rule: RULE_PROTOCOL,
                path: SPEC_PATH.into(),
                line: 0,
                message: format!(
                    "spec declares channel `{}` but no such enum exists in the checked sources",
                    chan.name
                ),
            }),
            Some((variants, file, line)) => {
                let declared: BTreeSet<&str> = chan.msgs.iter().map(|m| m.name.as_str()).collect();
                let observed: BTreeSet<&str> = variants.iter().map(String::as_str).collect();
                for v in observed.difference(&declared) {
                    findings.push(Finding {
                        rule: RULE_PROTOCOL,
                        path: file.clone(),
                        line: *line,
                        message: format!(
                            "enum `{}` has variant `{v}` that the protocol spec does not \
                             declare — extend {SPEC_PATH} (kind, broadcast, transition) so \
                             the automaton stays checked",
                            chan.name
                        ),
                    });
                }
                for v in declared.difference(&observed) {
                    findings.push(Finding {
                        rule: RULE_PROTOCOL,
                        path: SPEC_PATH.into(),
                        line: 0,
                        message: format!(
                            "spec declares `{}::{v}` but the enum has no such variant",
                            chan.name
                        ),
                    });
                }
            }
        }
        // 2. Liveness of the declared surface: every message is sent
        // somewhere and some match receives the channel.
        for m in &chan.msgs {
            if enums.contains_key(&chan.name)
                && !sends
                    .iter()
                    .any(|s| s.channel == chan.name && s.variant == m.name)
            {
                findings.push(Finding {
                    rule: RULE_PROTOCOL,
                    path: SPEC_PATH.into(),
                    line: 0,
                    message: format!(
                        "`{}::{}` is declared in the spec but never sent — dead protocol \
                         surface (or the extractor cannot see the send site)",
                        chan.name, m.name
                    ),
                });
            }
        }
        if enums.contains_key(&chan.name) && !matches.iter().any(|m| m.channel == chan.name) {
            findings.push(Finding {
                rule: RULE_PROTOCOL,
                path: SPEC_PATH.into(),
                line: 0,
                message: format!(
                    "no `match` over `{}` found — the recv side is gone",
                    chan.name
                ),
            });
        }
    }

    // 3. Recv exhaustiveness: every protocol match covers every declared
    // variant and has no wildcard arm.
    for m in &matches {
        let Some(chan) = spec.channel(&m.channel) else {
            continue;
        };
        let covered: BTreeSet<&str> = m.arms.iter().filter_map(|a| a.variant.as_deref()).collect();
        for msg in &chan.msgs {
            if !covered.contains(msg.name.as_str()) {
                findings.push(Finding {
                    rule: RULE_PROTOCOL,
                    path: m.file.clone(),
                    line: m.line,
                    message: format!(
                        "`match` over `{}` has no arm for `{}::{}` — every protocol variant \
                         is handled explicitly (wildcards silently drop new variants)",
                        m.channel, m.channel, msg.name
                    ),
                });
            }
        }
        for a in m.arms.iter().filter(|a| a.wildcard) {
            if allowed(RULE_PROTOCOL_WILDCARD, &m.file, a.line) {
                continue;
            }
            findings.push(Finding {
                rule: RULE_PROTOCOL_WILDCARD,
                path: m.file.clone(),
                line: a.line,
                message: format!(
                    "wildcard `_` arm on protocol enum `{}` — name every variant so the \
                     compiler (and this lint) catch future protocol growth instead of \
                     silently dropping messages",
                    m.channel
                ),
            });
        }
    }

    // 4. Broadcast discipline: lifecycle fan-out sends sit in a loop over
    // the fan-out collection.
    for s in &sends {
        let Some(msg) = spec
            .channel(&s.channel)
            .and_then(|c| c.msgs.iter().find(|m| m.name == s.variant))
        else {
            continue;
        };
        if let Some(over) = &msg.broadcast {
            let broadcasting = s.loops.iter().any(|h| h.contains(over.as_str()));
            if !broadcasting && !allowed(RULE_PROTOCOL, &s.file, s.line) {
                findings.push(Finding {
                    rule: RULE_PROTOCOL,
                    path: s.file.clone(),
                    line: s.line,
                    message: format!(
                        "`{}::{}` sent outside a broadcast loop over `{over}` — lifecycle \
                         variants go to *all* receivers; a missed broadcast desynchronizes \
                         the quorum and hangs the pipeline",
                        s.channel, s.variant
                    ),
                });
            }
        }
    }

    // 5. Lifecycle messages are never shed: only data may be `try_send`.
    for s in sends.iter().filter(|s| s.method == "try_send") {
        let lifecycle = spec
            .channel(&s.channel)
            .and_then(|c| c.msgs.iter().find(|m| m.name == s.variant))
            .is_some_and(|m| m.kind == "lifecycle");
        if lifecycle && !allowed(RULE_PROTOCOL, &s.file, s.line) {
            findings.push(Finding {
                rule: RULE_PROTOCOL,
                path: s.file.clone(),
                line: s.line,
                message: format!(
                    "`try_send` of lifecycle message `{}::{}` — lifecycle messages are never \
                     shed (in-band ordering, barrier quorum): use the blocking `send`",
                    s.channel, s.variant
                ),
            });
        }
    }

    // 6. Terminal ordering: no data-kind send after (or looping with) a
    // terminal send in the same function.
    for chan in &spec.channels {
        let data: BTreeSet<&str> = chan
            .msgs
            .iter()
            .filter(|m| m.kind == "data")
            .map(|m| m.name.as_str())
            .collect();
        for t in sends.iter().filter(|s| {
            s.channel == chan.name && chan.msgs.iter().any(|m| m.name == s.variant && m.terminal)
        }) {
            for d in sends.iter().filter(|s| {
                s.channel == chan.name
                    && data.contains(s.variant.as_str())
                    && s.file == t.file
                    && s.fn_name == t.fn_name
            }) {
                let after = d.seq > t.seq;
                let same_loop = d.loop_ids.iter().any(|id| t.loop_ids.contains(id));
                if (after || same_loop) && !allowed(RULE_PROTOCOL, &d.file, d.line) {
                    findings.push(Finding {
                        rule: RULE_PROTOCOL,
                        path: d.file.clone(),
                        line: d.line,
                        message: format!(
                            "data send `{}::{}` can execute after terminal `{}::{}` (line {}) \
                             in `{}` — the receiver is past its final state; nothing may \
                             follow the terminal message",
                            d.channel, d.variant, t.channel, t.variant, t.line, t.fn_name
                        ),
                    });
                }
            }
        }
    }

    // 7. Ack/reply/quorum discipline in the handling arms.
    for m in &matches {
        let Some(chan) = spec.channel(&m.channel) else {
            continue;
        };
        for msg in &chan.msgs {
            let Some(arm) = m
                .arms
                .iter()
                .find(|a| a.variant.as_deref() == Some(msg.name.as_str()))
            else {
                continue;
            };
            for (attr, chan_substr) in [("ack", &msg.ack), ("reply", &msg.reply)] {
                let Some(substr) = chan_substr else { continue };
                let n = arm
                    .sends
                    .iter()
                    .filter(|recv| recv.contains(substr.as_str()))
                    .count();
                if n != 1 && !allowed(RULE_PROTOCOL, &m.file, arm.line) {
                    findings.push(Finding {
                        rule: RULE_PROTOCOL,
                        path: m.file.clone(),
                        line: arm.line,
                        message: format!(
                            "`{}::{}` arm sends {n} time(s) on the `{substr}` {attr} channel — \
                             exactly one {attr} per message keeps the {} bounded",
                            m.channel,
                            msg.name,
                            if attr == "ack" {
                                "barrier quorum exact"
                            } else {
                                "in-flight replies"
                            }
                        ),
                    });
                }
            }
            if let Some(quorum) = &msg.quorum {
                let gated = arm.idents.iter().any(|i| i == quorum)
                    || arm
                        .idents
                        .iter()
                        .any(|i| ident_compared_to(&m.fn_idents_raw_pairs(), i, quorum));
                if !gated && !allowed(RULE_PROTOCOL, &m.file, arm.line) {
                    findings.push(Finding {
                        rule: RULE_PROTOCOL,
                        path: m.file.clone(),
                        line: arm.line,
                        message: format!(
                            "`{}::{}` arm does not gate on the `{quorum}` quorum — the action \
                             must fire only once all senders' copies arrived",
                            m.channel, msg.name
                        ),
                    });
                }
            }
        }
    }

    let automaton = build_automaton(spec, &sends, &matches);
    ProtocolReport {
        findings,
        automaton,
        sends,
        matches,
    }
}

impl MatchSite {
    /// Adjacent ident pairs of the enclosing fn, for quorum-comparison
    /// scans (`done < workers` appears as the pair `(done, workers)` once
    /// puncts are dropped).
    fn fn_idents_raw_pairs(&self) -> Vec<(&str, &str)> {
        self.fn_idents
            .windows(2)
            .map(|w| (w[0].as_str(), w[1].as_str()))
            .collect()
    }
}

/// `true` if ident `x` appears directly before `quorum` in the fn's ident
/// stream — the shape of a comparison (`done < workers`, `acks == workers`)
/// after punctuation is dropped.
fn ident_compared_to(pairs: &[(&str, &str)], x: &str, quorum: &str) -> bool {
    pairs.iter().any(|(a, b)| *a == x && *b == quorum)
}

/// Extracts `(channel, variant)` from a send's argument token range: the
/// first `Chan :: Variant` path whose `Chan` is a declared protocol enum.
fn payload_variant(
    f: &SourceFile,
    lo: usize,
    hi: usize,
    channels: &BTreeSet<&str>,
) -> Option<(String, String)> {
    let toks = &f.tokens;
    let hi = hi.min(toks.len());
    let mut k = lo;
    while k + 3 < hi {
        if toks[k].kind == TokenKind::Ident
            && channels.contains(toks[k].text.as_str())
            && toks[k + 1].text == ":"
            && toks[k + 2].text == ":"
            && toks[k + 3].kind == TokenKind::Ident
        {
            return Some((toks[k].text.clone(), toks[k + 3].text.clone()));
        }
        k += 1;
    }
    None
}

/// Builds an [`ArmSite`] from a parsed arm: variant/wildcard from the
/// pattern, send receiver chains from the body tree, idents from the body
/// token range.
fn arm_site(f: &SourceFile, channel: &str, a: &Arm) -> ArmSite {
    let variant = (a.path.len() == 2 && a.path[0] == channel).then(|| a.path[1].clone());
    let mut arm_sends = Vec::new();
    parser::for_each_call(&a.body, &mut |c, _| {
        if c.method && matches!(c.path.last().map(String::as_str), Some("send" | "try_send")) {
            arm_sends.push(c.receiver.join("."));
        }
    });
    let idents = f.tokens[a.body_lo..a.body_hi.min(f.tokens.len())]
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    ArmSite {
        variant,
        wildcard: a.wildcard,
        sends: arm_sends,
        idents,
        line: a.line,
    }
}

/// Assembles the automaton artifact: spec transitions annotated with
/// observed send/recv counts.
fn build_automaton(
    spec: &ProtocolSpec,
    sends: &[SendSite],
    matches: &[MatchSite],
) -> Vec<ChannelAutomaton> {
    spec.channels
        .iter()
        .map(|chan| ChannelAutomaton {
            name: chan.name.clone(),
            states: chan.states.clone(),
            transitions: chan
                .msgs
                .iter()
                .map(|m| Transition {
                    msg: m.clone(),
                    sends: sends
                        .iter()
                        .filter(|s| s.channel == chan.name && s.variant == m.name)
                        .count(),
                    recv_arms: matches
                        .iter()
                        .filter(|ms| ms.channel == chan.name)
                        .flat_map(|ms| ms.arms.iter())
                        .filter(|a| a.variant.as_deref() == Some(m.name.as_str()))
                        .count(),
                })
                .collect(),
        })
        .collect()
}

/// Renders the automaton as a Graphviz DOT digraph: one cluster per
/// channel, circles for states (doublecircle = final), edges labelled with
/// the message and its attributes.
pub fn to_dot(report: &ProtocolReport) -> String {
    let mut out =
        String::from("digraph swift_protocol {\n  rankdir=LR;\n  node [fontname=\"monospace\"];\n");
    for (i, chan) in report.automaton.iter().enumerate() {
        out.push_str(&format!(
            "  subgraph cluster_{i} {{\n    label=\"{}\";\n",
            chan.name
        ));
        for s in &chan.states {
            let shape = if s.terminal { "doublecircle" } else { "circle" };
            let style = if s.initial { ", style=bold" } else { "" };
            out.push_str(&format!(
                "    \"{}.{}\" [shape={shape}{style}, label=\"{}\"];\n",
                chan.name, s.name, s.name
            ));
        }
        for t in &chan.transitions {
            let mut attrs = vec![t.msg.kind.clone()];
            if t.msg.broadcast.is_some() {
                attrs.push("broadcast".into());
            }
            if t.msg.terminal {
                attrs.push("terminal".into());
            }
            if t.msg.ack.is_some() {
                attrs.push("ack".into());
            }
            if t.msg.reply.is_some() {
                attrs.push("reply".into());
            }
            if t.msg.quorum.is_some() {
                attrs.push("quorum".into());
            }
            out.push_str(&format!(
                "    \"{0}.{1}\" -> \"{0}.{2}\" [label=\"{3}\\n[{4}]\"];\n",
                chan.name,
                t.msg.from,
                t.msg.to,
                t.msg.name,
                attrs.join(",")
            ));
        }
        out.push_str("  }\n");
    }
    out.push_str("}\n");
    out
}

/// Renders the automaton + observed sites as JSON (hand-rolled — the
/// workspace is offline, no serde).
pub fn to_json(report: &ProtocolReport) -> String {
    let mut out = String::from("{\n  \"channels\": [");
    let mut first_chan = true;
    for chan in &report.automaton {
        if !first_chan {
            out.push(',');
        }
        first_chan = false;
        out.push_str(&format!(
            "\n    {{\n      \"name\": \"{}\",\n      \"states\": [",
            chan.name
        ));
        let mut first = true;
        for s in &chan.states {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n        {{\"name\": \"{}\", \"initial\": {}, \"final\": {}}}",
                json_escape(&s.name),
                s.initial,
                s.terminal
            ));
        }
        out.push_str("\n      ],\n      \"transitions\": [");
        first = true;
        for t in &chan.transitions {
            if !first {
                out.push(',');
            }
            first = false;
            let opt = |v: &Option<String>| match v {
                Some(s) => format!("\"{}\"", json_escape(s)),
                None => "null".into(),
            };
            out.push_str(&format!(
                "\n        {{\"msg\": \"{}\", \"kind\": \"{}\", \"from\": \"{}\", \"to\": \"{}\", \
                 \"broadcast\": {}, \"terminal\": {}, \"ack\": {}, \"reply\": {}, \
                 \"quorum\": {}, \"send_sites\": {}, \"recv_arms\": {}}}",
                json_escape(&t.msg.name),
                json_escape(&t.msg.kind),
                json_escape(&t.msg.from),
                json_escape(&t.msg.to),
                opt(&t.msg.broadcast),
                t.msg.terminal,
                opt(&t.msg.ack),
                opt(&t.msg.reply),
                opt(&t.msg.quorum),
                t.sends,
                t.recv_arms
            ));
        }
        out.push_str("\n      ]\n    }");
    }
    out.push_str("\n  ],\n  \"sends\": [");
    let mut first = true;
    for s in &report.sends {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"channel\": \"{}\", \"variant\": \"{}\", \"method\": \"{}\", \"fn\": \"{}\", \
             \"broadcast_loop\": {}, \"file\": \"{}\", \"line\": {}}}",
            json_escape(&s.channel),
            json_escape(&s.variant),
            json_escape(&s.method),
            json_escape(&s.fn_name),
            !s.loops.is_empty(),
            json_escape(&s.file),
            s.line
        ));
    }
    out.push_str(&format!(
        "\n  ],\n  \"matches\": {},\n  \"clean\": {}\n}}\n",
        report.matches.len(),
        report.clean()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI_SPEC: &str = "\
channel ShardMsg
state Running initial
state Stopped final
msg Batch kind=data Running -> Running
msg Shutdown kind=lifecycle broadcast=shard_txs terminal Running -> Stopped
";

    #[test]
    fn spec_parses_states_msgs_and_attrs() {
        let spec = parse_spec(MINI_SPEC).expect("parses");
        let chan = spec.channel("ShardMsg").expect("channel");
        assert_eq!(chan.states.len(), 2);
        assert!(chan.states[0].initial && chan.states[1].terminal);
        assert_eq!(chan.msgs[0].kind, "data");
        let shutdown = &chan.msgs[1];
        assert!(shutdown.terminal);
        assert_eq!(shutdown.broadcast.as_deref(), Some("shard_txs"));
        assert_eq!(
            (shutdown.from.as_str(), shutdown.to.as_str()),
            ("Running", "Stopped")
        );
    }

    #[test]
    fn spec_rejects_undeclared_states_and_bad_kinds() {
        assert!(parse_spec("channel C\nstate A initial\nmsg M kind=data A -> B\n").is_err());
        assert!(parse_spec("channel C\nstate A initial\nmsg M kind=odd A -> A\n").is_err());
        assert!(parse_spec("state A initial\n").is_err());
    }

    #[test]
    fn terminal_ordering_catches_data_after_shutdown() {
        let spec = parse_spec(MINI_SPEC).expect("parses");
        let f = SourceFile::parse(
            "crates/runtime/src/lib.rs",
            "enum ShardMsg { Batch(u64), Shutdown }\n\
             fn stop(txs: &[Tx]) {\n\
               for tx in txs.iter() { let _ = tx.send(ShardMsg::Shutdown); }\n\
               txs[0].send(ShardMsg::Batch(1)).ok();\n\
             }\n\
             fn feed(tx: &Tx) { tx.send(ShardMsg::Batch(2)).ok(); }\n\
             fn pump(rx: Rx) { match rx.recv() { Ok(m) => match m { ShardMsg::Batch(_) => {}, \
             ShardMsg::Shutdown => {} }, Err(_) => {} } }\n",
        );
        let report = check_files(&spec, &[&f]);
        let terminal: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.message.contains("terminal"))
            .collect();
        assert_eq!(terminal.len(), 1, "{:#?}", report.findings);
        assert_eq!(terminal[0].line, 4);
        // The broadcast loop is missing around… no: Shutdown is in a loop
        // over `txs` which does not mention `shard_txs` — that finding
        // fires too, proving the broadcast check reads the header.
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("broadcast")),
            "{:#?}",
            report.findings
        );
    }
}
