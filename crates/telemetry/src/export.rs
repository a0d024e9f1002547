//! Hand-rolled JSON emission, validation, and trajectory files.
//!
//! The crate is dependency-free, so JSON support is written out by hand over
//! the closed schema we emit: a [`JsonObject`] builder for rendering, a
//! minimal recursive-descent [`Json`] parser so harnesses and CI can
//! round-trip-validate what they wrote (no python in the CI leg), a
//! [`JsonLinesWriter`] for periodic snapshot streams, and
//! [`append_trajectory`] for the append-only `BENCH_*.json` run history the
//! ROADMAP asks for.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Escapes `s` for inclusion in a JSON string literal (quotes not included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an iterator of pre-rendered JSON values as a JSON array.
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Builder for a single-line JSON object with insertion-ordered fields.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn key(&mut self, k: &str) {
        if self.buf.is_empty() {
            self.buf.push('{');
        } else {
            self.buf.push_str(", ");
        }
        self.buf.push('"');
        self.buf.push_str(&json_escape(k));
        self.buf.push_str("\": ");
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a float field, rendered with up to 3 decimal places (non-finite
    /// values become `null` — JSON has no NaN).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.3}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&json_escape(v));
        self.buf.push('"');
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON (nested object or
    /// array). The caller guarantees `raw` is valid JSON.
    pub fn raw(mut self, k: &str, raw: &str) -> Self {
        self.key(k);
        self.buf.push_str(raw);
        self
    }

    /// Finishes the object and returns the rendered string (`{}` if empty).
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            return String::from("{}");
        }
        self.buf.push('}');
        self.buf
    }
}

/// Renders a [`HistogramSummary`](crate::HistogramSummary) as a JSON object.
pub fn summary_object(s: &crate::HistogramSummary) -> String {
    JsonObject::new()
        .u64("count", s.count)
        .u64("p50", s.p50)
        .u64("p90", s.p90)
        .u64("p99", s.p99)
        .u64("max", s.max)
        .f64("mean", s.mean)
        .finish()
}

/// A parsed JSON value — the read half of the closed schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; our schema stays within 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with field order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` on non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object keys in document order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at offset {pos}"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs do not occur in our schema; map
                        // lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so this is safe to
                // slice at char boundaries found via the leading byte).
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().ok_or_else(|| "empty char".to_string())?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    if start == *pos {
        return Err(format!("expected value at offset {start}"));
    }
    std::str::from_utf8(&b[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map_err(|e| format!("bad number at offset {start}: {e}"))
}

/// A writer emitting one JSON object per line (the exporter's stream format).
#[derive(Debug)]
pub struct JsonLinesWriter {
    out: BufWriter<File>,
    lines: usize,
}

impl JsonLinesWriter {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonLinesWriter {
            out: BufWriter::new(File::create(path)?),
            lines: 0,
        })
    }

    /// Writes one pre-rendered JSON object as a line.
    pub fn emit(&mut self, line: &str) -> std::io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.lines += 1;
        Ok(())
    }

    /// Number of lines emitted so far.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Flushes buffered lines to disk.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Appends one run record to an append-only JSON-array trajectory file.
///
/// If the file is missing, empty, or does not parse as a JSON array, a fresh
/// single-record array is
/// written; otherwise the record is spliced in before the closing bracket so
/// the history grows one entry per run. Returns the number of records now in
/// the file.
pub fn append_trajectory(path: &Path, record: &str) -> std::io::Result<usize> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let prior = match Json::parse(&existing) {
        Ok(Json::Arr(items)) => items.len(),
        _ => 0,
    };
    let mut out = String::from("[\n");
    if prior > 0 {
        // Keep the existing records verbatim: everything between the
        // outermost brackets.
        let open = existing.find('[').map_or(0, |i| i + 1);
        let close = existing.rfind(']').unwrap_or(existing.len());
        out.push_str(existing[open..close].trim_matches(['\n', ' ', '\t', '\r']));
        out.push_str(",\n");
    }
    out.push_str(record);
    out.push_str("\n]\n");
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    f.write_all(out.as_bytes())?;
    Ok(prior + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_renders_ordered_fields() {
        let s = JsonObject::new()
            .u64("a", 1)
            .str("b", "x\"y")
            .f64("c", 1.5)
            .bool("d", true)
            .raw("e", "[1, 2]")
            .finish();
        assert_eq!(
            s,
            r#"{"a": 1, "b": "x\"y", "c": 1.500, "d": true, "e": [1, 2]}"#
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn parser_round_trips_builder_output() {
        let s = JsonObject::new()
            .u64("count", 42)
            .f64("mean", 1.25)
            .str("mode", "sharded/4")
            .raw("stages", "[{\"p50\": 3}]")
            .finish();
        let v = Json::parse(&s).expect("valid");
        assert_eq!(v.keys(), ["count", "mean", "mode", "stages"]);
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("mean").and_then(Json::as_f64), Some(1.25));
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("sharded/4"));
        let stages = v.get("stages").and_then(Json::as_array).expect("array");
        assert_eq!(stages[0].get("p50").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parser_unescapes_strings() {
        let v = Json::parse(r#""a\n\t\"\\ b\u0041""#).expect("valid");
        assert_eq!(v.as_str(), Some("a\n\t\"\\ bA"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\u{1} ünïcode";
        let rendered = format!("\"{}\"", json_escape(nasty));
        assert_eq!(Json::parse(&rendered).expect("valid").as_str(), Some(nasty));
    }

    #[test]
    fn trajectory_appends_and_replaces_legacy_content() {
        let dir = std::env::temp_dir().join(format!("swift-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traj.json");

        // Legacy (non-array) content is replaced by a fresh trajectory.
        std::fs::write(&path, "not json").expect("seed");
        assert_eq!(append_trajectory(&path, "{\"run\": 1}").expect("append"), 1);
        assert_eq!(append_trajectory(&path, "{\"run\": 2}").expect("append"), 2);
        assert_eq!(append_trajectory(&path, "{\"run\": 3}").expect("append"), 3);

        let content = std::fs::read_to_string(&path).expect("read");
        let v = Json::parse(&content).expect("trajectory stays valid JSON");
        let runs: Vec<u64> = v
            .as_array()
            .expect("array")
            .iter()
            .map(|r| r.get("run").and_then(Json::as_u64).expect("run key"))
            .collect();
        assert_eq!(runs, [1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_lines_writer_counts_lines() {
        let dir = std::env::temp_dir().join(format!("swift-telemetry-jl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("metrics.jsonl");
        let mut w = JsonLinesWriter::create(&path).expect("create");
        w.emit(&JsonObject::new().u64("a", 1).finish())
            .expect("emit");
        w.emit(&JsonObject::new().u64("a", 2).finish())
            .expect("emit");
        w.flush().expect("flush");
        assert_eq!(w.lines(), 2);
        let content = std::fs::read_to_string(&path).expect("read");
        let parsed: Vec<Json> = content
            .lines()
            .map(|l| Json::parse(l).expect("each line parses"))
            .collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].get("a").and_then(Json::as_u64), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }
}
