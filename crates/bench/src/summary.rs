//! The machine-readable bench trajectory: a single JSON file
//! (`BENCH_PR10.json`) mapping experiment → key statistics, written next to
//! the CSVs by `all_experiments` and `cluster_health` so successive runs
//! can be diffed by tooling instead of eyeballed from tables.
//!
//! The format is deliberately tiny — two levels of objects with numeric
//! leaves — and both the writer and the parser live here, with no JSON
//! dependency:
//!
//! ```json
//! {
//!   "schema": "whisper-bench-summary/1",
//!   "experiments": {
//!     "fig4": { "linearity_r2": 0.99987, "points": 11 },
//!     "cluster_health": { "mttr_ms": 1312.0, "availability": 0.9972 }
//!   }
//! }
//! ```

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Identifies the emitted format; bumped on incompatible changes.
pub const SCHEMA: &str = "whisper-bench-summary/1";

/// Experiment → ordered list of `(stat, value)` pairs.
///
/// # Examples
///
/// ```
/// use whisper_bench::BenchSummary;
///
/// let mut s = BenchSummary::new();
/// s.record("fig4", "linearity_r2", 0.999);
/// s.record("fig4", "points", 11.0);
/// let parsed = BenchSummary::parse(&s.to_json()).unwrap();
/// assert_eq!(parsed.get("fig4", "points"), Some(11.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchSummary {
    experiments: Vec<(String, Vec<(String, f64)>)>,
}

impl BenchSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or overwrites) one statistic. Non-finite values are
    /// dropped: they have no JSON representation and a NaN in a trajectory
    /// file would poison every downstream comparison.
    pub fn record(&mut self, experiment: &str, stat: &str, value: f64) {
        if !value.is_finite() {
            return;
        }
        let stats = match self.experiments.iter_mut().find(|(n, _)| n == experiment) {
            Some((_, stats)) => stats,
            None => {
                self.experiments.push((experiment.to_string(), Vec::new()));
                &mut self.experiments.last_mut().expect("just pushed").1
            }
        };
        match stats.iter_mut().find(|(k, _)| k == stat) {
            Some((_, v)) => *v = value,
            None => stats.push((stat.to_string(), value)),
        }
    }

    /// Looks up one statistic.
    pub fn get(&self, experiment: &str, stat: &str) -> Option<f64> {
        self.experiments
            .iter()
            .find(|(n, _)| n == experiment)?
            .1
            .iter()
            .find(|(k, _)| k == stat)
            .map(|&(_, v)| v)
    }

    /// Experiment names, in insertion order.
    pub fn experiment_names(&self) -> impl Iterator<Item = &str> {
        self.experiments.iter().map(|(n, _)| n.as_str())
    }

    /// The `(stat, value)` pairs of one experiment, in insertion order
    /// (empty if the experiment was never recorded).
    pub fn stats(&self, experiment: &str) -> impl Iterator<Item = (&str, f64)> {
        self.experiments
            .iter()
            .find(|(n, _)| n == experiment)
            .into_iter()
            .flat_map(|(_, stats)| stats.iter().map(|(k, v)| (k.as_str(), *v)))
    }

    /// Number of recorded experiments.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// Copies every statistic of `other` into `self` (overwriting clashes).
    pub fn merge(&mut self, other: &BenchSummary) {
        for (exp, stats) in &other.experiments {
            for (k, v) in stats {
                self.record(exp, k, *v);
            }
        }
    }

    /// Renders the summary as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", quote(SCHEMA)));
        out.push_str("  \"experiments\": {");
        for (ei, (exp, stats)) in self.experiments.iter().enumerate() {
            if ei > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {{", quote(exp)));
            for (si, (k, v)) in stats.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n      {}: {}", quote(k), fmt_num(*v)));
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses JSON produced by [`BenchSummary::to_json`] (any whitespace
    /// layout): an object with a `"schema"` string and an `"experiments"`
    /// object of objects with numeric values.
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema violation.
    pub fn parse(input: &str) -> Result<Self, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.expect(b'{')?;
        let mut schema_seen = false;
        let mut summary = BenchSummary::new();
        loop {
            p.skip_ws();
            if p.eat(b'}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            match key.as_str() {
                "schema" => {
                    let v = p.string()?;
                    if v != SCHEMA {
                        return Err(format!("unsupported schema {v:?}"));
                    }
                    schema_seen = true;
                }
                "experiments" => {
                    p.expect(b'{')?;
                    loop {
                        p.skip_ws();
                        if p.eat(b'}') {
                            break;
                        }
                        let exp = p.string()?;
                        p.skip_ws();
                        p.expect(b':')?;
                        p.skip_ws();
                        p.expect(b'{')?;
                        loop {
                            p.skip_ws();
                            if p.eat(b'}') {
                                break;
                            }
                            let stat = p.string()?;
                            p.skip_ws();
                            p.expect(b':')?;
                            p.skip_ws();
                            let v = p.number()?;
                            summary.record(&exp, &stat, v);
                            p.skip_ws();
                            if !p.eat(b',') {
                                p.expect(b'}')?;
                                break;
                            }
                        }
                        p.skip_ws();
                        if !p.eat(b',') {
                            p.expect(b'}')?;
                            break;
                        }
                    }
                }
                other => return Err(format!("unexpected key {other:?}")),
            }
            p.skip_ws();
            if !p.eat(b',') {
                p.expect(b'}')?;
                break;
            }
        }
        if !schema_seen {
            return Err("missing \"schema\" field".to_string());
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(summary)
    }

    /// Writes the summary to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        if let Some(dir) = path.as_ref().parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        fs::write(path, self.to_json())
    }

    /// Writes the summary under `target/experiments/BENCH_PR10.json` (next
    /// to the experiment CSVs), merging into whatever an earlier run left
    /// there so the file accumulates the whole trajectory. Returns the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_merged(&self) -> io::Result<PathBuf> {
        let path = crate::table::experiments_dir().join("BENCH_PR10.json");
        let mut merged = fs::read_to_string(&path)
            .ok()
            .and_then(|s| BenchSummary::parse(&s).ok())
            .unwrap_or_default();
        merged.merge(self);
        merged.save_to(&path)?;
        Ok(path)
    }
}

/// Mean wall-clock microseconds over `iters` calls of `f`, after one
/// warm-up call. The Criterion-style benches use this for the quick
/// fixed-iteration pass that feeds [`BenchSummary::save_merged`]: one
/// headline trajectory number per benchmark, alongside Criterion's own
/// statistics.
pub fn time_mean_us(iters: u32, mut f: impl FnMut()) -> f64 {
    assert!(iters > 0, "need at least one timed iteration");
    f();
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

/// Formats an f64 so it parses back to the same value: integers without a
/// fraction would be ambiguous with int-only parsers, so keep Rust's
/// shortest round-trip form and make sure a fraction or exponent appears.
fn fmt_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// JSON-quotes a string (the keys here are plain ASCII, but be correct).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 passes through byte by byte; the
                    // input is a &str so the bytes are valid.
                    let start = self.pos;
                    let len = if b < 0x80 {
                        1
                    } else if b < 0xe0 {
                        2
                    } else if b < 0xf0 {
                        3
                    } else {
                        4
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map_err(|e| format!("bad number: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_including_awkward_values() {
        let mut s = BenchSummary::new();
        s.record("fig4", "linearity_r2", 0.999_874_123);
        s.record("fig4", "points", 11.0);
        s.record("cluster_health", "mttr_ms", 1312.25);
        s.record("cluster_health", "availability", 1e-9);
        s.record("rtt", "mean_ms", -0.5); // negatives must survive too
        let json = s.to_json();
        let parsed = BenchSummary::parse(&json).expect("parses");
        assert_eq!(parsed, s);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let mut s = BenchSummary::new();
        s.record("x", "nan", f64::NAN);
        s.record("x", "inf", f64::INFINITY);
        assert!(s.is_empty(), "no experiment should materialise: {s:?}");
    }

    #[test]
    fn record_overwrites_and_merge_combines() {
        let mut a = BenchSummary::new();
        a.record("e", "k", 1.0);
        a.record("e", "k", 2.0);
        assert_eq!(a.get("e", "k"), Some(2.0));
        let mut b = BenchSummary::new();
        b.record("e", "k", 3.0);
        b.record("other", "x", 4.0);
        a.merge(&b);
        assert_eq!(a.get("e", "k"), Some(3.0));
        assert_eq!(a.get("other", "x"), Some(4.0));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchSummary::parse("").is_err());
        assert!(BenchSummary::parse("{}").is_err(), "schema is mandatory");
        assert!(BenchSummary::parse("{\"schema\": \"other/9\"}").is_err());
        let valid = BenchSummary::new().to_json();
        assert!(BenchSummary::parse(&format!("{valid}x")).is_err());
    }

    #[test]
    fn parse_survives_whitespace_and_escapes() {
        let json =
            "{\"schema\":\"whisper-bench-summary/1\",\"experiments\":{\"a b\\\"c\":{\"k\":1.5e3}}}";
        let s = BenchSummary::parse(json).expect("parses");
        assert_eq!(s.get("a b\"c", "k"), Some(1500.0));
    }

    #[test]
    fn empty_summary_round_trips() {
        let s = BenchSummary::new();
        let parsed = BenchSummary::parse(&s.to_json()).expect("parses");
        assert!(parsed.is_empty());
    }
}
