//! Criterion micro-benchmarks of the static-analysis pipeline over the
//! runtime crate's real sources: lexing, item/fn parsing, and the full
//! semantic check (pragmas + topology + protocol verifier + atomics
//! auditor).
//!
//! The CI budget gate asserts the whole-workspace release run stays under
//! 10 s; this group is where regressions in the per-layer costs show up
//! before that gate trips. Inputs are the checked-in `crates/runtime/src`
//! files so the numbers track the code the analyzer actually guards.
//!
//! Run with `-- --quick-check` (CI) to execute every body once instead of
//! timing it — a rot check for the harness, not a measurement.

use criterion::{criterion_group, criterion_main, Criterion};
use std::path::{Path, PathBuf};
use swift_analysis::{
    atomics, check_pragmas, lexer, parser, protocol, topology, SourceFile, Workspace,
};

/// The workspace root, resolved from this crate's manifest dir.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// Every `crates/runtime/src` file as (workspace-relative path, source).
fn runtime_sources() -> Vec<(String, String)> {
    let dir = workspace_root().join("crates/runtime/src");
    let mut out = Vec::new();
    let entries = std::fs::read_dir(&dir).expect("runtime src dir readable");
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("utf-8 file name");
            let src = std::fs::read_to_string(&path).expect("runtime source readable");
            out.push((format!("crates/runtime/src/{name}"), src));
        }
    }
    assert!(!out.is_empty(), "no runtime sources found in {dir:?}");
    out.sort();
    out
}

/// Raw token-stream production over every runtime source.
fn bench_lex(c: &mut Criterion) {
    let sources = runtime_sources();
    let bytes: usize = sources.iter().map(|(_, s)| s.len()).sum();
    let mut group = c.benchmark_group("analysis/lex_runtime_src");
    group.bench_function(
        format!("{}_files_{}_kb", sources.len(), bytes / 1024),
        |b| {
            b.iter(|| {
                let mut tokens = 0usize;
                for (_, src) in &sources {
                    tokens += lexer::lex(src).tokens.len();
                }
                tokens
            })
        },
    );
    group.finish();
}

/// Item/fn AST construction on top of the lexed files (the parse includes
/// the lex — criterion's comparison against the group above isolates it).
fn bench_parse(c: &mut Criterion) {
    let sources = runtime_sources();
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, src)| SourceFile::parse(rel, src))
        .collect();
    let mut group = c.benchmark_group("analysis/parse_runtime_src");
    group.bench_function("ast", |b| {
        b.iter(|| {
            let mut fns = 0usize;
            for f in &files {
                fns += parser::parse(f).fns.len();
            }
            fns
        })
    });
    group.finish();
}

/// The full semantic pass the CI leg runs, minus process startup: the
/// pragma check and the topology checker over the loaded workspace, plus
/// the protocol verifier and atomics auditor.
fn bench_check(c: &mut Criterion) {
    let ws = Workspace::load(&workspace_root()).expect("workspace loads");
    let mut group = c.benchmark_group("analysis/check_workspace");
    group.bench_function("full", |b| {
        b.iter(|| {
            let mut findings = 0usize;
            for file in &ws.files {
                findings += check_pragmas(file).len();
            }
            findings += topology::check(&ws).findings.len();
            findings += protocol::check(&ws).findings.len();
            findings += atomics::check(&ws).findings.len();
            findings
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lex, bench_parse, bench_check);
criterion_main!(benches);
