//! The benchmark's one copy of each measuring primitive: the percentile
//! summary, the open-loop pacer, counter-snapshot diffing, the seeded
//! generator, and the JSON value (writer and reader). Every workload,
//! the traced walk, `all` and `compare` use these and nothing else.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------

/// Samples beyond a percentile that make it worth reporting.
const MIN_BEYOND: usize = 10;

/// A timing sample reduced to what the benchmark reports: the median,
/// the highest percentile that still has [`MIN_BEYOND`] samples beyond
/// it, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (0 when there are no samples).
    pub p50: f64,
    /// `(percentile, value)` of the higher of the 99th and 90th
    /// percentile that is supported, if either is.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// The 99th percentile, or `None` when fewer than ten samples lie
    /// beyond it (a tail nobody should compare).
    pub fn p99(&self) -> Option<f64> {
        match self.tail {
            Some((99.0, v)) => Some(v),
            _ => None,
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
fn rank(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64) * p / 100.0).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

/// Summarise a sample (sorted in place).
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return Summary {
            n,
            p50: 0.0,
            tail: None,
        };
    }
    let supported = |p: f64| (n as f64 * (1.0 - p / 100.0)).floor() as usize >= MIN_BEYOND;
    let tail = [99.0, 90.0]
        .into_iter()
        .find(|p| supported(*p))
        .map(|p| (p, rank(samples, p)));
    Summary {
        n,
        p50: rank(samples, 50.0),
        tail,
    }
}

/// Median of a sample, for callers that need nothing else.
pub fn median(samples: &mut [f64]) -> f64 {
    summarize(samples).p50
}

/// Run-to-run spread of a metric: interquartile range over median, with
/// the quartiles Python's `statistics.quantiles(values, n=4)` gives (the
/// benchmark contract's definition). `None` below four values.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = (k * (sorted.len() + 1)) as f64 / 4.0 - 1.0;
        let lo = (pos.floor() as usize).min(sorted.len() - 2);
        sorted[lo] + (sorted[lo + 1] - sorted[lo]) * (pos - lo as f64)
    };
    let mid = quartile(2);
    (mid > 0.0).then(|| (quartile(3) - quartile(1)) / mid)
}

// ---------------------------------------------------------------------
// Open-loop pacer
// ---------------------------------------------------------------------

/// Issues operations on a fixed schedule that does not slow when the
/// system does. Operation `i` is due at `start + i * interval`; the
/// caller times it from that due instant, so a stall is charged to every
/// operation it delays, and the pacer records how late each was sent.
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    interval: Duration,
    issued: u64,
    max_late: Duration,
}

impl Pacer {
    /// A schedule whose first operation is due at `start`.
    pub fn new(start: Instant, interval: Duration) -> Pacer {
        Pacer {
            start,
            interval,
            issued: 0,
            max_late: Duration::ZERO,
        }
    }

    /// When the next operation is due, without issuing it.
    pub fn peek_due(&self) -> Instant {
        self.start + self.interval.mul_f64(self.issued as f64)
    }

    /// Wait until the next operation is due (returning at once when it
    /// already is) and return its due instant.
    pub fn wait_next(&mut self) -> Instant {
        let due = self.peek_due();
        self.issued += 1;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else {
            self.max_late = self.max_late.max(now - due);
        }
        due
    }

    /// The worst lateness so far.
    pub fn max_late(&self) -> Duration {
        self.max_late
    }
}

// ---------------------------------------------------------------------
// Counter snapshots
// ---------------------------------------------------------------------

/// A named set of monotone counters read at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    /// Record one counter.
    pub fn push(&mut self, name: &'static str, value: u64) {
        self.0.push((name, value));
    }

    /// Value of `name` (0 when absent, as for an engine without a WAL).
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// What happened between `earlier` and `self`: per-counter
    /// difference, saturating so that a counter missing earlier counts
    /// from zero.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(n, v)| (*n, v.saturating_sub(earlier.get(n))))
                .collect(),
        )
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------
// Seeded generator
// ---------------------------------------------------------------------

/// SplitMix64: the workloads' only source of randomness, so one seed
/// gives one input sequence on every host.
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    /// A generator for `(seed, stream)`; distinct streams of one seed do
    /// not overlap in practice.
    pub fn new(seed: u64, stream: u64) -> Prng {
        let mut p = Prng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        p.next();
        p
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A JSON value. Objects keep insertion order so that output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; whole values print without a fraction.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Serialise on one line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust prints the shortest text that reads back to the same
            // f64, so a measured value keeps all its digits; non-finite
            // values have no JSON form.
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn write_str(s: &str, out: &mut String) {
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.eat(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.eat(b'}')?;
                        return Ok(Json::Obj(pairs));
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_the_sample_count() {
        let mut few: Vec<f64> = (1..=50).map(f64::from).collect();
        let s = summarize(&mut few);
        assert_eq!((s.n, s.p50), (50, 25.0));
        assert_eq!(s.tail, None, "5 samples beyond p90 is too few");

        let mut some: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = summarize(&mut some);
        assert_eq!(s.tail, Some((90.0, 180.0)));
        assert_eq!(s.p99(), None);

        let mut many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&mut many);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99(), Some(990.0));
    }

    #[test]
    fn spread_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert!((spread(&values).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((spread(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap() - 10.5 / 4.0).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn empty_sample_summarises_to_zero() {
        let s = summarize(&mut []);
        assert_eq!((s.n, s.p50, s.tail), (0, 0.0, None));
    }

    #[test]
    fn pacer_keeps_its_schedule_through_a_stall_and_reports_lateness() {
        let start = Instant::now();
        let step = Duration::from_millis(5);
        let mut pacer = Pacer::new(start, step);
        assert_eq!(pacer.wait_next(), start);
        // A stall of four intervals: the following operations stay due
        // on the original grid, and are reported late.
        std::thread::sleep(step * 4);
        assert_eq!(pacer.wait_next(), start + step);
        assert_eq!(pacer.wait_next(), start + step * 2);
        let worst = pacer.max_late();
        assert!(worst >= step * 3, "{worst:?}");
        // Once caught up the pacer waits for each due instant again, and
        // on-time operations do not add to the worst lateness.
        for _ in 0..4 {
            pacer.wait_next();
        }
        assert!(Instant::now() >= start + step * 6);
        assert_eq!(pacer.max_late(), worst);
    }

    #[test]
    fn counters_diff_by_name() {
        let mut a = Counters::default();
        a.push("commits", 10);
        a.push("fsyncs", 4);
        let mut b = Counters::default();
        b.push("commits", 25);
        b.push("fsyncs", 4);
        b.push("checkpoints", 2);
        let d = b.since(&a);
        assert_eq!(d.get("commits"), 15);
        assert_eq!(d.get("fsyncs"), 0);
        assert_eq!(d.get("checkpoints"), 2);
        assert_eq!(d.get("absent"), 0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn prng_repeats_per_seed_and_differs_across_streams() {
        let a: Vec<u64> = {
            let mut p = Prng::new(7, 1);
            (0..4).map(|_| p.next()).collect()
        };
        let again: Vec<u64> = {
            let mut p = Prng::new(7, 1);
            (0..4).map(|_| p.next()).collect()
        };
        let other: Vec<u64> = {
            let mut p = Prng::new(7, 2);
            (0..4).map(|_| p.next()).collect()
        };
        assert_eq!(a, again);
        assert_ne!(a, other);
        assert!((0..100).all(|_| (0..10).contains(&Prng::new(1, 1).below(10))));
    }

    #[test]
    fn json_round_trips_and_keeps_all_digits() {
        let value = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("ratio", Json::Num(1.203_456_789_012_3)),
            ("name", Json::str("a \"quoted\"\n\\ name")),
            ("list", Json::Arr(vec![Json::Null, Json::Num(-2.5e-7)])),
            ("empty", Json::obj::<String>([])),
        ]);
        let line = value.to_line();
        assert!(line.contains("\"attempted\": 1000,"), "{line}");
        assert!(line.contains("1.2034567890123"), "{line}");
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), value);
        assert_eq!(
            value.get("ratio").and_then(Json::as_f64),
            Some(1.203_456_789_012_3)
        );
    }

    #[test]
    fn json_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1} x",
            "\"open",
            "tru",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
