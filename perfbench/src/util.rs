//! Small shared pieces: a stable hash, a minimal JSON reader and
//! writer, run provenance and peak memory.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// 64-bit FNV-1a: a stable digest (unlike `DefaultHasher`, fixed across
/// Rust versions), used for outcome and workload digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Short digest of a workload's canonical cell list: each cell's
/// `rcb_sweep::fingerprint` (taken at seed 0, so the digest names the
/// workload's shape and not the seed of one run) with its trial count,
/// then the worker counts the workload runs at.
pub fn workload_digest(cells: &[(rcb_sweep::ScenarioSpec, u32)], workers: &[usize]) -> String {
    let mut h = Fnv::default();
    for (cell, trials) in cells {
        let shape = cell.clone().seed(0);
        h.write(rcb_sweep::fingerprint(&shape).to_string().as_bytes())
            .write(&trials.to_le_bytes());
    }
    for w in workers {
        h.write(&(*w as u64).to_le_bytes());
    }
    format!("{:012x}", h.finish() >> 16)
}

/// The `Scenario` builder a sweep cell lowers to (what
/// `ScenarioSpec::build` does, stopping before `build` so the caller
/// can still set worker counts or attach telemetry).
pub fn builder_of(spec: &rcb_sweep::ScenarioSpec) -> rcb_sim::ScenarioBuilder {
    use rcb_sim::Scenario;
    use rcb_sweep::ProtocolSpec;
    let mut builder = match &spec.protocol {
        ProtocolSpec::Broadcast(params) => Scenario::broadcast((**params).clone()),
        ProtocolSpec::Naive(s) => Scenario::naive(*s),
        ProtocolSpec::Epidemic(s) => Scenario::epidemic(*s),
        ProtocolSpec::Ksy(s) => Scenario::ksy(*s),
        ProtocolSpec::Hopping(s) => Scenario::hopping(*s),
        ProtocolSpec::EpochHopping(s) => Scenario::epoch_hopping(*s),
        ProtocolSpec::Kpsy(s) => Scenario::kpsy(*s),
    };
    builder = builder
        .engine(spec.engine)
        .adversary(spec.adversary)
        .channels(spec.channels)
        .seed(spec.seed);
    if let Some(units) = spec.carol_budget {
        builder = builder.carol_budget(units);
    }
    if let Some(slots) = spec.phase_len {
        builder = builder.phase_len(slots);
    }
    builder
}

/// A parsed JSON value (numbers as `f64`; objects keep key order sorted).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i).copied() {
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        Err("unterminated string".into())
    }
}

/// Renders `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite float with all its digits (`Debug` gives the
/// shortest exact round-trip form); non-finite values become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Where and on what a run was made.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub git_rev: String,
    pub source_digest: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub engine_era: String,
}

impl Provenance {
    pub fn collect() -> Self {
        let run = |prog: &str, args: &[&str]| {
            Command::new(prog)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".into())
        };
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            // Only a checkout's own repository, never an enclosing one.
            git_rev: if std::path::Path::new(".git").exists() {
                run("git", &["rev-parse", "--short=12", "HEAD"])
            } else {
                "none".into()
            },
            source_digest: source_digest(),
            rustc: run("rustc", &["--version"]),
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu_model,
            engine_era: rcb_sweep::ENGINE_ERA.to_string(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": {}, \"source_digest\": {}, \"rustc\": {}, \"nproc\": {}, \"cpu_model\": {}, \"engine_era\": {}}}",
            quote(&self.git_rev),
            quote(&self.source_digest),
            quote(&self.rustc),
            self.nproc,
            quote(&self.cpu_model),
            quote(&self.engine_era)
        )
    }
}

/// Digest of the program's sources (`crates/`, `vendor/` and the root
/// manifests), so runs outside a git checkout still name what they ran.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "vendor"] {
        collect_files(std::path::Path::new(root), &mut files);
    }
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write(f.to_string_lossy().as_bytes()).write(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(bytes: &[u8]) -> u64 {
        Fnv::default().write(bytes).finish()
    }

    #[test]
    fn fnv_is_the_reference_function() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn workload_digests_are_pinned_and_seed_free() {
        // A changed digest means a workload changed meaning: update the
        // pin only together with the benchmark's baseline.
        assert_eq!(crate::exact::digest(), "1f677b4650c9");
        assert_eq!(crate::phase::digest(), "935f3d303aa6");
        assert_eq!(crate::sweep::digest(), "bd2fd7636b03");
        let cell = |seed| {
            rcb_sweep::ScenarioSpec::naive(rcb_sim::NaiveSpec { n: 8, horizon: 50 }).seed(seed)
        };
        assert_eq!(
            workload_digest(&[(cell(1), 4)], &[1]),
            workload_digest(&[(cell(2), 4)], &[1])
        );
        assert_ne!(
            workload_digest(&[(cell(1), 4)], &[1]),
            workload_digest(&[(cell(1), 5)], &[1])
        );
        assert_ne!(
            workload_digest(&[(cell(1), 4)], &[1]),
            workload_digest(&[(cell(1), 4)], &[2])
        );
    }

    #[test]
    fn json_round_trips_what_the_benchmark_writes() {
        let text = format!(
            "{{\"a\": [1, 2.5e3, -0.125], \"b\": {{\"c\": {}}}, \"d\": true, \"e\": null}}",
            quote("x\"y\\z\n")
        );
        let v = Json::parse(&text).unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[1].as_f64(), Some(2500.0));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\"y\\z\n")
        );
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert_eq!(num(0.1), "0.1");
        assert_eq!(num(f64::NAN), "null");
    }
}
