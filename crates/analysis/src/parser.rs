//! The parser layer: an item/fn-granularity AST over the token streams of
//! [`crate::lexer`].
//!
//! The topology extractor works straight off the token stream; the
//! protocol verifier and the atomic-ordering auditor need *structure*:
//! which `fn` a call sits in, whether a send is inside a broadcast loop,
//! what a `match` scrutinizes and which variants its arms cover. This
//! module builds exactly that much structure — and no more:
//!
//! * **items** — `enum` definitions (name + variant list), struct fields
//!   whose type is an `Atomic*` (name + atomic type, tuple fields as
//!   `Type.0`), and `fn` items with their enclosing `impl` type;
//! * **fn bodies** — a statement/call tree of [`Node`]s: loops (`for` /
//!   `while` / `loop`, with their header text), `match` expressions with
//!   per-arm patterns and bodies, calls (free and method, with receiver
//!   chains and nested argument nodes), and transparent blocks;
//! * **match arms** — the pattern's leading path (`ShardMsg::Batch` →
//!   `["ShardMsg", "Batch"]`), wildcard detection, and the arm body as a
//!   node tree.
//!
//! Same zero-dependency discipline as the rest of the crate: hand-rolled
//! over the lexer, conventions over full Rust semantics. Nested functions
//! are *not* re-parsed into their outer body (each gets its own [`FnDef`]),
//! so walking every `FnDef` visits each call site exactly once.

use crate::lexer::{matching_close, structural, Token, TokenKind};
use crate::SourceFile;

/// An `enum` item: its name and variant names (payloads dropped).
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// The enum's name.
    pub name: String,
    /// Variant names, in declaration order.
    pub variants: Vec<String>,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
}

/// A struct field (named or tuple) whose declared type mentions an
/// `Atomic*` — the atomics auditor's type oracle.
#[derive(Debug, Clone)]
pub struct AtomicFieldDef {
    /// The field's name: `shutdown` for named fields, `Counter.0` for the
    /// payload of a tuple struct.
    pub name: String,
    /// The atomic type name (`AtomicBool`, `AtomicU64`, …).
    pub atomic: String,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// One `fn` item with its parsed body.
#[derive(Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The `impl` target type the fn sits in, if any (`impl Counter` →
    /// `Counter`, `impl Trait for Gauge` → `Gauge`).
    pub impl_type: Option<String>,
    /// 1-based first line.
    pub start_line: u32,
    /// 1-based last line.
    pub end_line: u32,
    /// The body as a statement/call tree.
    pub body: Vec<Node>,
}

/// One node of a fn-body statement/call tree.
#[derive(Debug)]
pub enum Node {
    /// A `for`/`while`/`loop`. Header-position calls (`rx.recv()` in a
    /// `while let`) are parsed into the body, prepended — they execute per
    /// iteration.
    Loop {
        /// The header's joined token text (`link in & appliers`, empty for
        /// bare `loop`).
        header: String,
        /// A per-file unique id, for "same enclosing loop" queries.
        id: u32,
        /// The loop body (header nodes first).
        body: Vec<Node>,
        /// 1-based line of the loop keyword.
        line: u32,
    },
    /// A `match` expression with its arms.
    Match {
        /// The scrutinee's joined token text.
        scrutinee: String,
        /// The arms, in source order.
        arms: Vec<Arm>,
        /// 1-based line of the `match` keyword.
        line: u32,
    },
    /// A call — free (`shard_of(peer, n)`), path (`ShardMsg::Batch(b)` —
    /// enum constructors parse as calls, which is exactly what the protocol
    /// verifier wants), or method (`tx.send(msg)`).
    Call(CallNode),
    /// A transparent brace group (if/else bodies, bare blocks, struct
    /// literals) — grouping only, no semantics attached.
    Block {
        /// The contained nodes.
        body: Vec<Node>,
        /// 1-based line of the `{`.
        line: u32,
    },
}

/// A call site inside a fn body.
#[derive(Debug)]
pub struct CallNode {
    /// The called path: `[shard_of]` for free calls, `[ShardMsg, Batch]`
    /// for path calls, `[send]` for method calls.
    pub path: Vec<String>,
    /// `true` for method-call syntax (`recv.name(...)`).
    pub method: bool,
    /// The receiver's ident chain for method calls, index expressions
    /// stripped (`self.shared.depth[shard].fetch_add` → `[self, shared,
    /// depth]`; tuple fields kept: `self.0.load` → `[self, 0]`).
    pub receiver: Vec<String>,
    /// Token range of the argument list (exclusive of the parens), for
    /// payload scans against the file's token stream.
    pub args_lo: usize,
    /// Exclusive upper bound of the argument token range.
    pub args_hi: usize,
    /// Nested nodes inside the argument list (nested calls, closures…).
    pub args: Vec<Node>,
    /// 1-based line of the call name.
    pub line: u32,
}

/// One arm of a [`Node::Match`].
#[derive(Debug)]
pub struct Arm {
    /// The pattern's joined token text (guard included).
    pub pattern: String,
    /// The pattern's leading ident path (`ApplierMsg::Register { .. }` →
    /// `[ApplierMsg, Register]`; `Some(x)` → `[Some]`; empty for tuples,
    /// literals and `_`).
    pub path: Vec<String>,
    /// `true` if the pattern is exactly the wildcard `_`.
    pub wildcard: bool,
    /// The arm body as a node tree.
    pub body: Vec<Node>,
    /// Token range of the arm body (for ident-level scans the node tree
    /// drops, e.g. `done += 1` counters).
    pub body_lo: usize,
    /// Exclusive upper bound of the arm-body token range.
    pub body_hi: usize,
    /// 1-based line the pattern starts on.
    pub line: u32,
}

/// The parsed AST of one file.
#[derive(Debug)]
pub struct Ast {
    /// Every `enum` item.
    pub enums: Vec<EnumDef>,
    /// Every struct field of `Atomic*` type.
    pub atomic_fields: Vec<AtomicFieldDef>,
    /// Every `fn` item (nested fns get their own entry and are skipped in
    /// the outer body).
    pub fns: Vec<FnDef>,
}

/// The atomic integer/bool type names the field scan recognises.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
];

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "move", "as", "ref", "mut",
];

/// Parses `file` into an [`Ast`].
pub fn parse(file: &SourceFile) -> Ast {
    let toks = &file.tokens;
    let mut ast = Ast {
        enums: Vec::new(),
        atomic_fields: Vec::new(),
        fns: Vec::new(),
    };
    collect_enums(toks, &mut ast.enums);
    collect_atomic_fields(toks, &mut ast.atomic_fields);
    let impls = collect_impl_ranges(toks);
    let mut loop_id = 0u32;
    for span in &file.fns {
        // Locate the body's `{` (bodiless signatures have none).
        let mut open = None;
        for (k, t) in toks
            .iter()
            .enumerate()
            .take(span.end_tok + 1)
            .skip(span.start_tok)
        {
            if structural(t) == "{" {
                open = Some(k);
                break;
            }
            if structural(t) == ";" {
                break;
            }
        }
        let body = match open {
            Some(open) => parse_nodes(toks, open + 1, span.end_tok, &mut loop_id),
            None => Vec::new(),
        };
        let impl_type = impls
            .iter()
            .filter(|(lo, hi, _)| *lo <= span.start_tok && span.end_tok <= *hi)
            .min_by_key(|(lo, hi, _)| hi - lo)
            .map(|(_, _, name)| name.clone());
        ast.fns.push(FnDef {
            name: span.name.clone(),
            impl_type,
            start_line: span.start_line,
            end_line: span.end_line,
            body,
        });
    }
    ast
}

/// Collects `enum Name { Variant, … }` items (attributes and payloads
/// skipped; generic parameters on the enum skipped).
fn collect_enums(toks: &[Token], out: &mut Vec<EnumDef>) {
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !(toks[i].kind == TokenKind::Ident
            && toks[i].text == "enum"
            && toks[i + 1].kind == TokenKind::Ident)
        {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;
        // Find the body `{`, skipping a generics group.
        let mut k = i + 2;
        let mut angle = 0i32;
        let mut open = None;
        while k < toks.len() {
            match structural(&toks[k]) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => {
                    open = Some(k);
                    break;
                }
                ";" => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let close = matching_close(toks, open).min(toks.len());
        let mut variants = Vec::new();
        let mut j = open + 1;
        while j < close {
            // Skip attributes on the variant.
            while j + 1 < close && structural(&toks[j]) == "#" && structural(&toks[j + 1]) == "[" {
                j = matching_close(toks, j + 1) + 1;
            }
            if j >= close {
                break;
            }
            if toks[j].kind == TokenKind::Ident {
                variants.push(toks[j].text.clone());
            }
            // Skip to the next `,` at this depth (past any payload group).
            while j < close {
                match structural(&toks[j]) {
                    "(" | "{" | "[" => j = matching_close(toks, j).min(close),
                    "," => break,
                    _ => {}
                }
                j += 1;
            }
            j += 1;
        }
        out.push(EnumDef {
            name,
            variants,
            line,
        });
        i = close + 1;
    }
}

/// Collects struct fields whose declared type is an `Atomic*`: walks back
/// from each `Atomic*` token through wrapper-type syntax (`Arc<`, `Vec<`,
/// `Box<`) to a `name :` field declaration, or to a tuple-struct `Name(`
/// (recorded as `Name.0`). Paths (`atomic::AtomicBool`) and `use` lists are
/// rejected by the walk.
fn collect_atomic_fields(toks: &[Token], out: &mut Vec<AtomicFieldDef>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || !ATOMIC_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // `Atomic*::new(...)` in an initializer still names the field when
        // the initializer sits in a struct literal (`shutdown:
        // AtomicBool::new(false)`), so the walk-back below covers both the
        // declaration and that construction form.
        let mut j = i;
        let floor = i.saturating_sub(10);
        let mut found = None;
        while j > floor {
            j -= 1;
            let p = &toks[j];
            match p.text.as_str() {
                "<" => continue,
                "Arc" | "Vec" | "Box" | "Mutex" | "RefCell" => continue,
                ":" => {
                    // `::` means a path segment, not a field declaration.
                    if j > 0 && toks[j - 1].text == ":" {
                        break;
                    }
                    if j > 0 && toks[j - 1].kind == TokenKind::Ident {
                        found = Some(toks[j - 1].text.clone());
                    }
                    break;
                }
                "(" => {
                    // Tuple struct: require the `struct` keyword nearby so
                    // ordinary calls (`Arc::new(AtomicUsize::new(0))`) do
                    // not register a phantom field.
                    if j >= 2
                        && toks[j - 1].kind == TokenKind::Ident
                        && toks[j - 2].text == "struct"
                    {
                        found = Some(format!("{}.0", toks[j - 1].text));
                    }
                    break;
                }
                _ => break,
            }
        }
        if let Some(name) = found {
            if !out.iter().any(|f: &AtomicFieldDef| f.name == name) {
                out.push(AtomicFieldDef {
                    name,
                    atomic: t.text.clone(),
                    line: t.line,
                });
            }
        }
    }
}

/// Collects `(start_tok, end_tok, target_type)` for every `impl` block.
fn collect_impl_ranges(toks: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokenKind::Ident && toks[i].text == "impl") {
            i += 1;
            continue;
        }
        // Scan to the body `{` at angle depth 0, noting a `for` (trait
        // impls name the target after it).
        let mut k = i + 1;
        let mut angle = 0i32;
        let mut after_for = None;
        let mut first_ident = None;
        let mut open = None;
        while k < toks.len() {
            let t = &toks[k];
            match structural(t) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "for" if angle <= 0 => after_for = Some(k),
                "{" if angle <= 0 => {
                    open = Some(k);
                    break;
                }
                ";" => break,
                _ => {
                    if t.kind == TokenKind::Ident && angle <= 0 && first_ident.is_none() {
                        first_ident = Some(k);
                    }
                }
            }
            k += 1;
        }
        let Some(open) = open else {
            i = k + 1;
            continue;
        };
        let close = matching_close(toks, open).min(toks.len() - 1);
        let target = match after_for {
            Some(f) => toks[f + 1..open]
                .iter()
                .find(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone()),
            None => first_ident.map(|k| toks[k].text.clone()),
        };
        if let Some(target) = target {
            out.push((i, close, target));
        }
        i = open + 1; // impls nest only through fns; keep scanning inside
    }
    out
}

/// Parses the token range `[lo, hi)` into a node tree.
fn parse_nodes(toks: &[Token], lo: usize, hi: usize, loop_id: &mut u32) -> Vec<Node> {
    let hi = hi.min(toks.len());
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                // A nested fn gets its own FnDef — skip its whole span so
                // its calls are not attributed to the outer body too.
                "fn" if toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident) => {
                    let mut k = i + 2;
                    while k < hi && structural(&toks[k]) != "{" && structural(&toks[k]) != ";" {
                        k += 1;
                    }
                    i = if k < hi && structural(&toks[k]) == "{" {
                        matching_close(toks, k) + 1
                    } else {
                        k + 1
                    };
                    continue;
                }
                "for" | "while" => {
                    let Some(open) = find_body_brace(toks, i + 1, hi) else {
                        i += 1;
                        continue;
                    };
                    let close = matching_close(toks, open).min(hi);
                    let header = join(&toks[i + 1..open]);
                    *loop_id += 1;
                    let id = *loop_id;
                    // Header calls (`rx.recv()` in `while let`) run per
                    // iteration: parse them into the body, first.
                    let mut body = parse_nodes(toks, i + 1, open, loop_id);
                    body.extend(parse_nodes(toks, open + 1, close, loop_id));
                    out.push(Node::Loop {
                        header,
                        id,
                        body,
                        line: t.line,
                    });
                    i = close + 1;
                    continue;
                }
                "loop" if toks.get(i + 1).is_some_and(|t| structural(t) == "{") => {
                    let close = matching_close(toks, i + 1).min(hi);
                    *loop_id += 1;
                    let id = *loop_id;
                    let body = parse_nodes(toks, i + 2, close, loop_id);
                    out.push(Node::Loop {
                        header: String::new(),
                        id,
                        body,
                        line: t.line,
                    });
                    i = close + 1;
                    continue;
                }
                "match" => {
                    let Some(open) = find_body_brace(toks, i + 1, hi) else {
                        i += 1;
                        continue;
                    };
                    let close = matching_close(toks, open).min(hi);
                    // Scrutinee-position calls (`rx.recv()`) are real sites:
                    // surface them before the match node.
                    out.extend(parse_nodes(toks, i + 1, open, loop_id));
                    let arms = parse_arms(toks, open + 1, close, loop_id);
                    out.push(Node::Match {
                        scrutinee: join(&toks[i + 1..open]),
                        arms,
                        line: t.line,
                    });
                    i = close + 1;
                    continue;
                }
                "if" => {
                    let Some(open) = find_body_brace(toks, i + 1, hi) else {
                        i += 1;
                        continue;
                    };
                    let close = matching_close(toks, open).min(hi);
                    out.extend(parse_nodes(toks, i + 1, open, loop_id));
                    out.push(Node::Block {
                        body: parse_nodes(toks, open + 1, close, loop_id),
                        line: toks[open].line,
                    });
                    i = close + 1;
                    continue;
                }
                name if !NON_CALL_KEYWORDS.contains(&name)
                    && toks.get(i + 1).is_some_and(|t| structural(t) == "(") =>
                {
                    let open = i + 1;
                    let close = matching_close(toks, open).min(hi);
                    let method = i > 0 && toks[i - 1].text == ".";
                    let path = if method {
                        vec![t.text.clone()]
                    } else {
                        leading_path(toks, i)
                    };
                    let receiver = if method {
                        receiver_chain(toks, i - 1)
                    } else {
                        Vec::new()
                    };
                    let args = parse_nodes(toks, open + 1, close, loop_id);
                    out.push(Node::Call(CallNode {
                        path,
                        method,
                        receiver,
                        args_lo: open + 1,
                        args_hi: close,
                        args,
                        line: t.line,
                    }));
                    i = close + 1;
                    continue;
                }
                _ => {}
            }
        } else if structural(t) == "{" {
            let close = matching_close(toks, i).min(hi);
            out.push(Node::Block {
                body: parse_nodes(toks, i + 1, close, loop_id),
                line: t.line,
            });
            i = close + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Finds the `{` opening a control-flow body: the first `{` at
/// paren/bracket depth 0 after `from` (loop/match/if headers cannot contain
/// bare struct literals, so the first such brace is the body).
fn find_body_brace(toks: &[Token], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(hi.min(toks.len())).skip(from) {
        match structural(t) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(k),
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Parses the arms of a `match` body in `[lo, hi)`.
fn parse_arms(toks: &[Token], lo: usize, hi: usize, loop_id: &mut u32) -> Vec<Arm> {
    let hi = hi.min(toks.len());
    let mut out = Vec::new();
    let mut i = lo;
    loop {
        while i < hi && matches!(structural(&toks[i]), "," | "|") {
            i += 1;
        }
        if i >= hi {
            break;
        }
        let pat_lo = i;
        // Scan for the `=>` at depth 0 (patterns may contain groups and
        // or-patterns; guards sit before the arrow).
        let mut depth = 0i32;
        let mut arrow = None;
        let mut k = i;
        while k < hi {
            match structural(&toks[k]) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 && toks.get(k + 1).is_some_and(|t| structural(t) == ">") => {
                    arrow = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(arrow) = arrow else {
            break;
        };
        let pattern = join(&toks[pat_lo..arrow]);
        let path = leading_arm_path(&toks[pat_lo..arrow]);
        let wildcard = arrow == pat_lo + 1 && structural(&toks[pat_lo]) == "_";
        let after_arrow = arrow + 2;
        let (body, range, next) = if toks.get(after_arrow).is_some_and(|t| structural(t) == "{") {
            let close = matching_close(toks, after_arrow).min(hi);
            (
                parse_nodes(toks, after_arrow + 1, close, loop_id),
                (after_arrow + 1, close),
                close + 1,
            )
        } else {
            // Expression arm: ends at the `,` at depth 0 (or the match's
            // closing brace).
            let mut depth = 0i32;
            let mut end = hi;
            let mut k = after_arrow;
            while k < hi {
                match structural(&toks[k]) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => {
                        end = k;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            (
                parse_nodes(toks, after_arrow, end, loop_id),
                (after_arrow, end),
                end + 1,
            )
        };
        out.push(Arm {
            pattern,
            path,
            wildcard,
            body,
            body_lo: range.0,
            body_hi: range.1,
            line: toks[pat_lo].line,
        });
        i = next;
    }
    out
}

/// The `A::B::name` path ending at the ident token `at` (walking back
/// through `::` pairs).
fn leading_path(toks: &[Token], at: usize) -> Vec<String> {
    let mut path = vec![toks[at].text.clone()];
    let mut i = at;
    while i >= 3
        && structural(&toks[i - 1]) == ":"
        && structural(&toks[i - 2]) == ":"
        && toks[i - 3].kind == TokenKind::Ident
    {
        path.insert(0, toks[i - 3].text.clone());
        i -= 3;
    }
    path
}

/// The leading ident path of a pattern (`ApplierMsg :: Register { … }` →
/// `[ApplierMsg, Register]`; empty when the pattern opens with a group,
/// literal or wildcard).
fn leading_arm_path(pat: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < pat.len() {
        let t = &pat[i];
        if t.kind == TokenKind::Ident && t.text != "_" {
            out.push(t.text.clone());
            if pat.get(i + 1).is_some_and(|t| structural(t) == ":")
                && pat.get(i + 2).is_some_and(|t| structural(t) == ":")
            {
                i += 3;
                continue;
            }
        }
        break;
    }
    out
}

/// The receiver's ident chain before the `.` at `dot`, index expressions
/// (`[shard]`) stripped, tuple-field numbers kept.
fn receiver_chain(toks: &[Token], dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = dot;
    let floor = dot.saturating_sub(24);
    while j > floor {
        j -= 1;
        let t = &toks[j];
        match structural(t) {
            "." => continue,
            "]" => {
                // Walk back over the index group.
                let mut depth = 1i32;
                while j > floor && depth > 0 {
                    j -= 1;
                    match structural(&toks[j]) {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
                continue;
            }
            _ if t.kind == TokenKind::Ident || t.kind == TokenKind::Num => {
                chain.push(t.text.clone());
                // Only a `.` continues the chain leftwards.
                if j == 0 || structural(&toks[j - 1]) != "." {
                    break;
                }
            }
            _ => break,
        }
    }
    chain.reverse();
    chain
}

/// Joins token texts with single spaces (for headers/patterns in reports).
fn join(toks: &[Token]) -> String {
    toks.iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// One enclosing loop on a call visitor's stack: `(loop id, header text)`.
pub type LoopFrame<'a> = (u32, &'a str);

/// Visitor passed to [`for_each_call`]: the call node plus the stack of
/// enclosing loops, outermost first.
pub type CallVisitor<'a, 'f> = &'f mut dyn FnMut(&'a CallNode, &[LoopFrame<'a>]);

/// Depth-first walk over `nodes` calling `f` on every call site with the
/// stack of enclosing loops (`(id, header)` pairs, outermost first). Match
/// arms and argument lists are descended into.
pub fn for_each_call<'a>(nodes: &'a [Node], f: CallVisitor<'a, '_>) {
    fn walk<'a>(nodes: &'a [Node], loops: &mut Vec<LoopFrame<'a>>, f: CallVisitor<'a, '_>) {
        for n in nodes {
            match n {
                Node::Loop {
                    header, id, body, ..
                } => {
                    loops.push((*id, header.as_str()));
                    walk(body, loops, f);
                    loops.pop();
                }
                Node::Match { arms, .. } => {
                    for a in arms {
                        walk(&a.body, loops, f);
                    }
                }
                Node::Call(c) => {
                    f(c, loops);
                    walk(&c.args, loops, f);
                }
                Node::Block { body, .. } => walk(body, loops, f),
            }
        }
    }
    walk(nodes, &mut Vec::new(), f);
}

/// Depth-first walk over `nodes` calling `f` on every `match` node
/// (scrutinee text, arms, line), descending into arms, loops, blocks and
/// call arguments.
pub fn for_each_match<'a>(nodes: &'a [Node], f: &mut dyn FnMut(&'a str, &'a [Arm], u32)) {
    for n in nodes {
        match n {
            Node::Loop { body, .. } | Node::Block { body, .. } => for_each_match(body, f),
            Node::Match {
                scrutinee,
                arms,
                line,
            } => {
                f(scrutinee.as_str(), arms, *line);
                for a in arms {
                    for_each_match(&a.body, f);
                }
            }
            Node::Call(c) => for_each_match(&c.args, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ast_of(src: &str) -> Ast {
        parse(&SourceFile::parse("crates/runtime/src/worker.rs", src))
    }

    /// Delimiters inside char literals are data, not structure: a `'{'`
    /// pushed onto a buffer must not open a block, a `'('` matched in an
    /// arm must not open a group, and `'_'` is a char pattern, not a
    /// wildcard (regression: the JSON writer in swift-telemetry made the
    /// old text-only matching tear the token stream apart).
    #[test]
    fn char_literal_delimiters_are_not_structural() {
        let ast = ast_of(
            "fn emit(buf: &mut String, c: char) {\n\
                 buf.push('{');\n\
                 match c {\n\
                     '(' => buf.push(')'),\n\
                     '_' => buf.push('}'),\n\
                     _ => other(c),\n\
                 }\n\
                 buf.push('}');\n\
             }\n",
        );
        assert_eq!(ast.fns.len(), 1);
        let mut calls = Vec::new();
        for_each_call(&ast.fns[0].body, &mut |c, _| {
            calls.push(c.path.join("::"));
        });
        assert_eq!(
            calls.iter().filter(|p| *p == "push").count(),
            4,
            "every push survives: {calls:?}"
        );
        assert_eq!(calls.iter().filter(|p| *p == "other").count(), 1);
        let mut arms = Vec::new();
        for_each_match(&ast.fns[0].body, &mut |_, a, _| {
            arms.extend(a.iter().map(|arm| (arm.pattern.clone(), arm.wildcard)));
        });
        assert_eq!(arms.len(), 3, "{arms:?}");
        assert_eq!(
            arms.iter().filter(|(_, w)| *w).count(),
            1,
            "only the bare `_` is a wildcard: {arms:?}"
        );
    }

    #[test]
    fn enums_parse_names_and_variants() {
        let ast = ast_of(
            "enum ShardMsg { Batch(Vec<u8>), Register(Box<R>), Teardown(u32), Barrier(u64), \
             Shutdown }\n",
        );
        assert_eq!(ast.enums.len(), 1);
        assert_eq!(ast.enums[0].name, "ShardMsg");
        assert_eq!(
            ast.enums[0].variants,
            ["Batch", "Register", "Teardown", "Barrier", "Shutdown"]
        );
    }

    #[test]
    fn atomic_fields_map_named_and_tuple_forms() {
        let ast = ast_of(
            "struct Shared { shutdown: AtomicBool, depth: Vec<Arc<AtomicUsize>> }\n\
             pub struct Counter(Arc<AtomicU64>);\n\
             fn f() { let x = Arc::new(AtomicUsize::new(0)); }\n",
        );
        let names: Vec<(&str, &str)> = ast
            .atomic_fields
            .iter()
            .map(|f| (f.name.as_str(), f.atomic.as_str()))
            .collect();
        assert!(names.contains(&("shutdown", "AtomicBool")), "{names:?}");
        assert!(names.contains(&("depth", "AtomicUsize")), "{names:?}");
        assert!(names.contains(&("Counter.0", "AtomicU64")), "{names:?}");
        assert_eq!(ast.atomic_fields.len(), 3, "no phantom field: {names:?}");
    }

    #[test]
    fn fns_carry_their_impl_type() {
        let ast = ast_of(
            "impl Counter { fn add(&self) {} }\n\
             impl Default for Gauge { fn default() -> Gauge { Gauge } }\n\
             fn free() {}\n",
        );
        let by_name = |n: &str| {
            ast.fns
                .iter()
                .find(|f| f.name == n)
                .unwrap_or_else(|| panic!("fn {n}"))
        };
        assert_eq!(by_name("add").impl_type.as_deref(), Some("Counter"));
        assert_eq!(by_name("default").impl_type.as_deref(), Some("Gauge"));
        assert_eq!(by_name("free").impl_type, None);
    }

    #[test]
    fn calls_record_path_method_and_receiver() {
        let ast = ast_of(
            "fn f(link: &Link) {\n\
               link.tx.send(ApplierMsg::Batch(batch));\n\
               self.shared.depth[shard].fetch_add(1, Ordering::Relaxed);\n\
             }\n",
        );
        let mut calls = Vec::new();
        for_each_call(&ast.fns[0].body, &mut |c, _| {
            calls.push((c.path.join("::"), c.method, c.receiver.join(".")));
        });
        assert!(
            calls.contains(&("send".into(), true, "link.tx".into())),
            "{calls:?}"
        );
        assert!(
            calls.contains(&("ApplierMsg::Batch".into(), false, String::new())),
            "enum constructors in args parse as path calls: {calls:?}"
        );
        assert!(
            calls.contains(&("fetch_add".into(), true, "self.shared.depth".into())),
            "index expressions stripped: {calls:?}"
        );
    }

    #[test]
    fn loops_wrap_their_sites_and_headers_survive() {
        let ast = ast_of(
            "fn f(appliers: &[Link]) {\n\
               for link in appliers.iter() { link.tx.send(ApplierMsg::Barrier(seq)); }\n\
               one.tx.send(ApplierMsg::Teardown(peer));\n\
             }\n",
        );
        let mut in_loop = None;
        let mut out_of_loop = None;
        for_each_call(&ast.fns[0].body, &mut |c, loops| {
            if c.path.last().is_some_and(|p| p == "send") {
                if loops.is_empty() {
                    out_of_loop = Some(c.line);
                } else {
                    in_loop = Some(loops[0].1.to_string());
                }
            }
        });
        assert!(
            in_loop.is_some_and(|h| h.contains("appliers")),
            "loop header names the fan-out collection"
        );
        assert_eq!(out_of_loop, Some(3));
    }

    #[test]
    fn match_arms_carry_paths_wildcards_and_bodies() {
        let ast = ast_of(
            "fn f(rx: Receiver<ShardMsg>) {\n\
               while let Ok(msg) = rx.recv() {\n\
                 match msg {\n\
                   ShardMsg::Batch(b) => { handle(b); }\n\
                   ShardMsg::Register { peer, asn } => register(peer, asn),\n\
                   _ => {}\n\
                 }\n\
               }\n\
             }\n",
        );
        let mut seen = Vec::new();
        for_each_match(&ast.fns[0].body, &mut |scrutinee, arms, _| {
            for a in arms {
                seen.push((scrutinee.to_string(), a.path.join("::"), a.wildcard));
            }
        });
        assert_eq!(
            seen,
            [
                ("msg".into(), "ShardMsg::Batch".into(), false),
                ("msg".into(), "ShardMsg::Register".into(), false),
                ("msg".into(), String::new(), true),
            ]
        );
    }

    #[test]
    fn nested_fns_are_not_double_counted() {
        let ast = ast_of("fn outer() {\n  fn inner() { target(); }\n  other();\n}\n");
        let outer = ast
            .fns
            .iter()
            .find(|f| f.name == "outer")
            .expect("outer parsed");
        let mut calls = Vec::new();
        for_each_call(&outer.body, &mut |c, _| calls.push(c.path.join("::")));
        assert_eq!(calls, ["other"], "inner's body belongs to inner only");
    }
}
