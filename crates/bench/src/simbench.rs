//! Shared plumbing for the `sim_*` network-simulation harnesses.
//!
//! Every simulation bench follows the same contract: parse a couple of
//! positional arguments, run each deterministic scenario **twice** and
//! compare a fingerprint to prove the run replays byte-identically from
//! its seed, then write a small dependency-free JSON document that CI
//! greps for the acceptance gates. The three pieces of that contract live
//! here so the binaries only contain what is unique to their scenario
//! matrix. Every `BENCH_*.json` artifact, `bench_mining`'s included, is
//! laid out by one writer, [`JsonObject`]: a bin lists its fields and the
//! writer places every brace, comma and indent.

use std::fmt::{Display, Write as _};

/// Parses positional argument `index` as a `u64`, falling back to
/// `default` when absent or unparsable.
pub fn positional_arg(index: usize, default: u64) -> u64 {
    std::env::args()
        .nth(index)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(default)
}

/// Logical CPUs of the bench host (1 when the count is unavailable).
pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |cores| cores.get())
}

/// Parses positional argument `index` as a worker-thread count. Absent,
/// unparsable or `0` means "all logical cores" — so bench sweeps choose
/// parallelism explicitly while the default exercises the host fully.
pub fn threads_arg(index: usize) -> usize {
    match positional_arg(index, 0) {
        0 => logical_cores(),
        threads => threads as usize,
    }
}

/// The host-metadata object every `BENCH_*.json` embeds as `"host"`: the
/// machine's logical core count and the thread count the bench actually
/// used. A single-CPU host showing no parallel speedup is then
/// explainable from the artifact alone.
pub fn host_json(threads_used: usize) -> JsonObject {
    let mut host = JsonObject::default();
    host.field("logical_cores", logical_cores())
        .field("threads_used", threads_used);
    host
}

/// A JSON value, laid out as every `BENCH_*.json` artifact is.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number or a boolean, written as this text.
    Raw(String),
    /// A string, written quoted.
    Text(String),
    /// Written on one line, or one item per line when an item is an
    /// object.
    Array(Vec<Json>),
    /// Written one entry per line.
    Object(JsonObject),
}

impl From<JsonObject> for Json {
    fn from(object: JsonObject) -> Self {
        Json::Object(object)
    }
}

impl Json {
    /// Appends this value to `out`; a value spanning lines starts at the
    /// current position and indents its lines by `indent + 2` spaces.
    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Raw(text) => out.push_str(text),
            Json::Text(text) => quote(out, text),
            Json::Array(items) if !items.iter().any(|item| matches!(item, Json::Object(_))) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, indent);
                }
                out.push(']');
            }
            Json::Array(items) => {
                write_lines(out, indent, ['[', ']'], items.iter().map(|i| (None, i)))
            }
            Json::Object(object) => object.write(out, indent),
        }
    }
}

/// An ordered JSON object: its entries in the order they were added.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject(Vec<(String, Json)>);

impl JsonObject {
    /// Adds `key` with `value`'s display text: a number or a boolean.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.value(key, Json::Raw(value.to_string()))
    }

    /// Adds `key` with `value` written to `decimals` places.
    pub fn fixed(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        self.value(key, Json::Raw(format!("{value:.decimals$}")))
    }

    /// Adds `key` with `value` quoted.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.value(key, Json::Text(value.to_owned()))
    }

    /// Adds `key` with an array of `items`.
    pub fn array<T: Into<Json>>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
    ) -> &mut Self {
        self.value(
            key,
            Json::Array(items.into_iter().map(Into::into).collect()),
        )
    }

    /// Adds `key` with any value.
    pub fn value(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.0.push((key.to_owned(), value.into()));
        self
    }

    /// The object as a whole document, ending in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// [`Json::write`] for an object.
    fn write(&self, out: &mut String, indent: usize) {
        let entries = self
            .0
            .iter()
            .map(|(key, value)| (Some(key.as_str()), value));
        write_lines(out, indent, ['{', '}'], entries);
    }
}

/// Writes `open`, one entry per line indented `indent + 2` with a comma
/// after all but the last, then `close` on a line indented `indent`. No
/// entries write `open` and `close` alone.
fn write_lines<'a>(
    out: &mut String,
    indent: usize,
    [open, close]: [char; 2],
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    let last = entries.len();
    for (index, (key, value)) in entries.enumerate() {
        out.push('\n');
        out.push_str(&" ".repeat(indent + 2));
        if let Some(key) = key {
            quote(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 2);
        if index + 1 < last {
            out.push(',');
        }
    }
    if last > 0 {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

/// Writes `text` as a JSON string.
fn quote(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Runs `run` twice and compares the two results under `fingerprint`.
///
/// Returns the first result and whether the second replayed identically.
/// The fingerprint closure decides how strict "identical" is — the
/// network bench compares `SimReport::fingerprint`, the adversary and
/// difficulty benches the extended variant, optionally folding in
/// scenario-level figures (bit-exact floats via [`f64::to_bits`]).
pub fn run_twice<R>(mut run: impl FnMut() -> R, fingerprint: impl Fn(&R) -> String) -> (R, bool) {
    let first = run();
    let second = run();
    let identical = fingerprint(&first) == fingerprint(&second);
    (first, identical)
}

/// Writes a rendered JSON document to `path` and announces it on stdout —
/// the closing step of every simulation bench.
///
/// # Panics
///
/// When `path` is not writable: a bench that cannot record its results
/// has failed.
pub fn write_json(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|error| panic!("{path} is writable: {error}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positional_args_fall_back_to_defaults() {
        assert_eq!(positional_arg(99, 42), 42);
    }

    #[test]
    fn threads_arg_defaults_to_all_cores() {
        assert_eq!(threads_arg(99), logical_cores());
        assert!(logical_cores() >= 1);
    }

    #[test]
    fn host_json_embeds_cores_and_threads() {
        let json = host_json(3).render();
        assert_eq!(
            json,
            format!(
                "{{\n  \"logical_cores\": {},\n  \"threads_used\": 3\n}}\n",
                logical_cores()
            )
        );
    }

    #[test]
    fn an_empty_object_is_one_pair_of_braces() {
        assert_eq!(JsonObject::default().render(), "{}\n");
    }

    #[test]
    fn nested_objects_and_arrays_are_laid_out_one_entry_per_line() {
        let mut inner = JsonObject::default();
        inner.field("threads", 2).fixed("ratio", 2.0 / 3.0, 3);
        let rows = (1..=2).map(|index| {
            let mut row = JsonObject::default();
            row.field("index", index)
                .array("depths", (0..index).map(|d| Json::Raw(d.to_string())));
            row
        });
        let mut json = JsonObject::default();
        json.text("bench", "demo")
            .value("host", inner)
            .array("rows", rows)
            .array("none", Vec::<Json>::new())
            .value("empty", JsonObject::default())
            .field("held", true);
        assert_eq!(
            json.render(),
            "{\n  \"bench\": \"demo\",\n  \"host\": {\n    \"threads\": 2,\n    \
             \"ratio\": 0.667\n  },\n  \"rows\": [\n    {\n      \"index\": 1,\n      \
             \"depths\": [0]\n    },\n    {\n      \"index\": 2,\n      \
             \"depths\": [0, 1]\n    }\n  ],\n  \"none\": [],\n  \"empty\": {},\n  \
             \"held\": true\n}\n"
        );
    }

    #[test]
    fn no_comma_follows_the_last_entry() {
        let mut row = JsonObject::default();
        row.field("a", 1).field("b", 2);
        let mut json = JsonObject::default();
        json.field("first", 1)
            .array("rows", [row.clone(), row])
            .field("last", 3);
        let json = json.render();
        let lines: Vec<&str> = json.lines().collect();
        for pair in lines.windows(2) {
            let closes = pair[1].trim_start().starts_with(['}', ']']);
            assert_eq!(
                pair[0].ends_with(','),
                !closes && !pair[0].ends_with(['{', '['])
            );
        }
        assert_eq!(json.matches(',').count(), 5);
    }

    #[test]
    fn text_is_quoted_and_escaped() {
        let mut json = JsonObject::default();
        json.text("name", "say \"hi\"\\ \n");
        assert_eq!(
            json.render(),
            "{\n  \"name\": \"say \\\"hi\\\"\\\\ \\u000a\"\n}\n"
        );
    }

    #[test]
    fn a_document_ends_with_a_closing_brace_and_a_newline() {
        let mut json = JsonObject::default();
        json.field("runs_identical", true);
        let json = json.render();
        assert!(json.ends_with("}\n"));
        assert!(!json.ends_with("\n\n"));
    }

    #[test]
    fn run_twice_detects_divergence() {
        let mut calls = 0u64;
        let (first, identical) = run_twice(
            || {
                calls += 1;
                7u64
            },
            |r| r.to_string(),
        );
        assert_eq!((first, identical, calls), (7, true, 2));

        let mut counter = 0u64;
        let (_, identical) = run_twice(
            || {
                counter += 1;
                counter
            },
            |r| r.to_string(),
        );
        assert!(!identical, "a nondeterministic run must be flagged");
    }
}
