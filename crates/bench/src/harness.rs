//! The shared harness of the `bench4` / `bench5` / `bench6` perf gates:
//! their command line, timing and calibration helpers, JSON number
//! formatting, and the `--check` regression gate against a checked-in
//! baseline. Baselines and `BENCH_*.json` files are read with the one
//! JSON reader below, which the `trend` bin uses too.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tolerated slowdown of a calibrated gate metric vs its baseline.
pub const REGRESSION_TOLERANCE: f64 = 0.20;

/// Minimum over `repeats` timed runs — the classical low-noise estimator
/// for a deterministic workload: every disturbance (scheduler, turbo,
/// noisy neighbors) only ever adds time, so the minimum is the best
/// available approximation of the undisturbed cost. This is what keeps
/// the CI regression gates from tripping on shared-runner jitter.
pub fn min_secs(repeats: usize, mut f: impl FnMut()) -> f64 {
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Fixed synthetic kernel: 64 MB of xorshift-mixed u64 sums. Pure ALU +
/// streaming memory, no lopacity code, deterministic iteration count —
/// the per-machine "speed unit" every gated metric is normalized by, so
/// CPU speed cancels and algorithmic regressions do not.
pub fn calibration_unit_secs() -> f64 {
    min_secs(7, || {
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut acc = 0u64;
        let mut buf = vec![0u64; 1 << 20];
        for round in 0..8u64 {
            for slot in buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *slot = slot.wrapping_add(x ^ round);
                acc = acc.wrapping_add(*slot);
            }
        }
        black_box(acc);
    })
}

/// A JSON number with 9 decimals, or `null` when not finite.
pub fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_string()
    }
}

/// The gates' command line:
///
/// ```text
/// cargo bench -p lopacity-bench --bench benchN -- \
///     [--scale NAME] [--out DIR] [--check BASELINE.json]
/// ```
pub struct BenchArgs {
    /// One of the bench's scales.
    pub scale: &'static str,
    /// Where `BENCH_N.json` goes (default `results`).
    pub out_dir: PathBuf,
    /// The baseline to gate against, if any.
    pub check: Option<PathBuf>,
}

impl BenchArgs {
    /// Parses the process arguments; `--scale` must be one of `scales`
    /// and defaults to `default`. `cargo bench` forwards its own flags
    /// (e.g. `--bench`) to every harness, so unknown arguments are
    /// ignored.
    pub fn from_env(scales: &[&'static str], default: &'static str) -> BenchArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut args =
            BenchArgs { scale: default, out_dir: PathBuf::from("results"), check: None };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let value = it.next().map(String::as_str);
                    args.scale = scales.iter().copied().find(|s| Some(*s) == value).unwrap_or_else(
                        || panic!("--scale takes {}, got {value:?}", scales.join("|")),
                    );
                }
                "--out" => args.out_dir = it.next().expect("--out takes a directory").into(),
                "--check" => args.check = Some(it.next().expect("--check takes a file").into()),
                _ => {}
            }
        }
        args
    }

    /// Writes `json` to `file` under the output directory.
    pub fn write(&self, bench: &str, file: &str, json: &str) {
        std::fs::create_dir_all(&self.out_dir).expect("create output directory");
        let path = self.out_dir.join(file);
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("{bench}: wrote {}", path.display());
    }

    /// Under `--check`, exits 1 when `measured` — the calibrated cost of
    /// `what` — exceeds the baseline's top-level `key` by more than
    /// [`REGRESSION_TOLERANCE`]. `measured` is `None` when this scale
    /// does not measure the gated quantity, which `--check` rejects.
    pub fn check(&self, bench: &str, what: &str, key: &str, measured: Option<f64>) {
        let Some(baseline) = &self.check else { return };
        let measured = measured.unwrap_or_else(|| panic!("--check: this scale measures no {key}"));
        let expected = gate_value(baseline, key).unwrap_or_else(|e| panic!("{e}"));
        let limit = expected * (1.0 + REGRESSION_TOLERANCE);
        eprintln!("{bench}: {what} {measured:.6} vs baseline {expected:.6} (limit {limit:.6})");
        if measured > limit {
            eprintln!(
                "{bench}: FAIL — {what} regressed {:.0}% (> {:.0}% tolerated)",
                (measured / expected - 1.0) * 100.0,
                REGRESSION_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
        eprintln!("{bench}: {what} within tolerance");
    }
}

/// The number under the top-level `key` of the JSON file at `path`: the
/// value a `--check` gate compares against.
pub fn gate_value(path: &Path, key: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("read baseline {}: {e}", path.display()))?;
    let json = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{} has no number under {key:?}", path.display()))
}

// ---------------------------------------------------------------------
// Minimal JSON reader (objects, arrays, strings, numbers, bools, null).
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader { bytes: text.as_bytes(), pos: 0 }
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' | b'f' | b'n' => self.keyword(),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
                Some(byte) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let len = match byte {
                        _ if byte < 0x80 => 1,
                        _ if byte >= 0xf0 => 4,
                        _ if byte >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.error("bad utf-8"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn keyword(&mut self) -> Result<Json, String> {
        for (word, value) in
            [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
        {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        Err(self.error("unknown keyword"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("bad number"))
    }
}

/// Parses one JSON document (objects, arrays, strings, numbers, bools,
/// null); trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(reader.error("trailing garbage"));
    }
    Ok(value)
}

impl Json {
    /// The value under `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number `self` holds, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the value each `--check` gate reads from each checked-in
    /// baseline.
    #[test]
    fn gates_read_the_checked_in_baselines() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
        for (file, key, expected) in [
            ("bench4_baseline.json", "normalized_scan_per_trial", 0.00200),
            ("bench5_baseline.json", "normalized_per_trial_gate", 0.00056),
            ("BENCH_5.json", "normalized_per_trial_gate", 0.000549953),
            ("bench6_baseline.json", "normalized_detect_gate", 0.00026),
            ("BENCH_6.json", "normalized_detect_gate", 0.000279234),
        ] {
            assert_eq!(gate_value(&dir.join(file), key), Ok(expected), "{file}");
        }
    }

    #[test]
    fn gate_keys_are_looked_up_at_the_top_level() {
        let json = parse_json(r#"{"rows": [{"gate": 1}], "note": "gate", "gate": 2.5}"#).unwrap();
        assert_eq!(json.get("gate").and_then(Json::as_f64), Some(2.5));
        assert_eq!(json.get("note").and_then(Json::as_f64), None);
        assert_eq!(json.get("missing"), None);
    }
}
