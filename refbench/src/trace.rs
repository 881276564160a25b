//! In-memory spans around the calls into each layer, written out as Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`).

use std::fmt::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-qualified name (`run`, `dag.plan`, `bench.sweep.cell`).
    name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    start_ns: u64,
    /// Duration in nanoseconds (0 while open).
    dur_ns: u64,
    /// Span arguments: key and an already-serialized JSON value.
    args: Vec<(String, String)>,
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Open a span under the innermost open one; returns its id.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            args: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id];
        s.dur_ns = now - s.start_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let r = f(self);
        self.end(id);
        r
    }

    /// Attach an argument (a serialized JSON value) to span `id`.
    pub fn arg(&mut self, id: usize, key: impl Into<String>, json: String) {
        self.spans[id].args.push((key.into(), json));
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e9)
            .collect()
    }

    /// Total seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        // Folded from +0.0: an empty `f64` sum is -0.0.
        self.durations(name).iter().fold(0.0, |a, d| a + d)
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// timestamps in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{",
                json_str(s.name),
                json_str(s.name.split('.').next().unwrap_or(s.name)),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            );
            for (j, (k, v)) in s.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_str(k), v);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `s` as a quoted JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON; non-finite values (which JSON cannot hold)
/// become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("l1\nl2\t\r"), "\"l1\\nl2\\t\\r\"");
        assert_eq!(json_str("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(json_str("SVD++ µs"), "\"SVD++ µs\"");
        for s in ["a\"b", "\\", "\u{0}x\n", "SVD++"] {
            assert_eq!(json::parse(&json_str(s)), Ok(json::Value::Str(s.into())));
        }
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn nested_spans_serialize_to_well_formed_json() {
        let mut t = Tracer::default();
        let root = t.begin("paper_sweep");
        t.span("setup", |t| t.span("dag.plan", |_| ()));
        let run = t.begin("run");
        for key in ["KM/LRU/f0.1500/s42", "SVD++/\"odd\"\\key\n"] {
            let cell = t.begin("bench.sweep.cell");
            t.arg(cell, "key", json_str(key));
            t.arg(
                cell,
                "core.on_access",
                "{\"calls\":3,\"total_ns\":90,\"max_ns\":40}".into(),
            );
            t.end(cell);
        }
        t.end(run);
        t.end(root);
        assert_eq!(t.durations("bench.sweep.cell").len(), 2);

        let doc = json::parse(&t.to_chrome_json()).expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(events.len(), 6);
        // Complete events nest by time: each child lies within its parent.
        let interval = |e: &json::Value| match (e.get("ts"), e.get("dur")) {
            (Some(json::Value::Num(ts)), Some(json::Value::Num(dur))) => (*ts, ts + dur),
            _ => panic!("event without ts/dur: {e:?}"),
        };
        let within = |child: usize, parent: usize| {
            let (c, p) = (interval(&events[child]), interval(&events[parent]));
            p.0 <= c.0 && c.1 <= p.1
        };
        assert!(
            within(1, 0) && within(2, 1),
            "dag.plan sits under setup under the root"
        );
        assert!(within(4, run) && within(5, run), "cells sit under run");
        let cell = &events[5];
        assert_eq!(
            cell.get("name"),
            Some(&json::Value::Str("bench.sweep.cell".into()))
        );
        assert_eq!(cell.get("cat"), Some(&json::Value::Str("bench".into())));
        assert_eq!(cell.get("ph"), Some(&json::Value::Str("X".into())));
        let args = cell.get("args").unwrap();
        assert_eq!(
            args.get("key"),
            Some(&json::Value::Str("SVD++/\"odd\"\\key\n".into()))
        );
        assert_eq!(
            args.get("core.on_access").and_then(|a| a.get("calls")),
            Some(&json::Value::Num(3.0))
        );
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_must_nest() {
        let mut t = Tracer::default();
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
