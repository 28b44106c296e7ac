//! The persisted result store, format v2: one JSONL file per store
//! directory, one line per completed work unit, **content-addressed per
//! unit**.
//!
//! The workspace deliberately has no external dependencies, so the
//! store hand-rolls both directions of its JSON: a writer for the flat
//! records it produces and a small parser that reads exactly that
//! shape back.
//!
//! Each record is keyed by a 128-bit FNV-1a hash of the unit's full
//! identity — `(family, n, seed, detector id, detector configuration
//! fingerprint, budget)` — deliberately *not* the sweep grid or the
//! metric. Keying units instead of sweeps is what makes overlapping
//! grids share work: extending a size ladder by one rung, adding a
//! seed, or adding a detector leaves every previously computed unit's
//! key unchanged, so a resumed run replays the overlap with zero
//! detector invocations and only executes the new cells. Records carry
//! the full unified cost, so re-analyzing under another metric is a
//! pure replay too.
//!
//! Layout (`<dir>/units-v2.jsonl`):
//!
//! ```text
//! {"kind":"unit-store","version":2}
//! {"key":"8c1f…32 hex…","det":"classical/C4/…","n":64,"seed":0,"status":"ok","rejected":true,"value":220,…}
//! {"key":"1d90…","det":…}
//! ```
//!
//! A `units-v2.jsonl` whose header fails to parse is moved aside to a
//! `.corrupt` sidecar (preserving the bytes for inspection) before a
//! fresh store is started.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use congest_graph::{serialize, Graph};
use congest_telemetry::json_escape;

/// The store's file name inside its directory (format v2).
pub const STORE_FILE: &str = "units-v2.jsonl";

/// Formats an `f64` as a JSON value: Rust's shortest round-trip decimal
/// for finite values, `null` otherwise (JSON has no NaN/∞).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Appends `line` and a newline to the file at `path`, creating the
/// file (and its parent directory) when missing.
pub(crate) fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// 128-bit FNV-1a rendered as 32 hex characters — the content address
/// of one work unit. 128 bits make accidental collisions across a
/// store directory a non-concern; [`ResultStore::replay`] additionally
/// verifies `det`/`n`/`seed`.
pub fn unit_key(canonical: &str) -> String {
    format!("{:032x}", fnv1a_128(FNV1A_128_OFFSET, canonical.as_bytes()))
}

/// The content address of a graph: the [`unit_key`] of its edge-list
/// text ([`serialize::to_text`]), hashed as [`serialize::write_text`]
/// streams it, so the text is never built.
pub(crate) fn content_key(g: &Graph) -> String {
    let mut h = FNV1A_128_OFFSET;
    serialize::write_text(g, |line| h = fnv1a_128(h, line));
    format!("{h:032x}")
}

const FNV1A_128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;

/// Folds `bytes` into the 128-bit FNV-1a state `h`. Folding pieces in
/// order gives the state of their concatenation.
fn fnv1a_128(mut h: u128, bytes: &[u8]) -> u128 {
    for b in bytes {
        h ^= u128::from(*b);
        h = h.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    h
}

/// The canonical identity string of one work unit — every field that
/// changes what the unit computes, and nothing else. The metric is
/// deliberately absent (records carry the full unified cost); the
/// sweep grid is deliberately absent (that is the whole point of
/// per-unit addressing). Detector ids alone are not enough — two
/// tunings of the same algorithm share an id — so the configuration
/// fingerprint is folded in as well.
///
/// `family_key` is the family's **store key**
/// ([`GraphFamily::store_key`](crate::scenario::GraphFamily::store_key)):
/// the 128-bit spec fingerprint for catalog families (covering every
/// parameter) or `name@version` for custom builders. The canonical
/// prefix is `v3` for exactly this reason — records written by earlier
/// releases were keyed by the family's free-form *display name*, which
/// could not see parameter or builder changes; their keys can never
/// equal a v3 key, so legacy entries are ignored on resume rather than
/// misread.
pub fn canonical_unit(
    family_key: &str,
    n: usize,
    seed: u64,
    det_id: &str,
    det_config: &str,
    budget: &even_cycle::Budget,
) -> String {
    format!(
        "v3|family={family_key}|n={n}|seed={seed}|det={det_id}|config={det_config}|bandwidth={}|repetitions={:?}|run_to_budget={}|max_rounds={:?}|max_messages={:?}",
        budget.bandwidth,
        budget.repetitions,
        budget.run_to_budget,
        budget.max_rounds,
        budget.max_messages,
    )
}

/// The canonical identity string of one *stream checkpoint* work unit:
/// the schedule's 128-bit fingerprint (covering the base family with
/// parameters, the rate, the insert/delete mix, and the checkpoint
/// count), the checkpoint index, the instance coordinates, the detector
/// identity, and the budget. The `stream=` tag keeps these keys in a
/// namespace static sweep units (`family=`) can never produce, so a
/// store directory can hold both without collision. Any schedule
/// parameter change moves the fingerprint and with it every checkpoint
/// key — a re-run of an *unchanged* schedule replays every prefix with
/// zero detector invocations, while an edited one recomputes from
/// scratch rather than replaying stale verdicts.
pub fn canonical_stream_unit(
    schedule_key: &str,
    checkpoint: usize,
    n: usize,
    seed: u64,
    det_id: &str,
    det_config: &str,
    budget: &even_cycle::Budget,
) -> String {
    format!(
        "v3|stream={schedule_key}|checkpoint={checkpoint}|n={n}|seed={seed}|det={det_id}|config={det_config}|bandwidth={}|repetitions={:?}|run_to_budget={}|max_rounds={:?}|max_messages={:?}",
        budget.bandwidth,
        budget.repetitions,
        budget.run_to_budget,
        budget.max_rounds,
        budget.max_messages,
    )
}

/// One scalar field of a parsed flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Field {
    Str(String),
    /// Numbers keep their raw token so both `u64` and `f64` convert
    /// losslessly.
    Num(String),
    Bool(bool),
    Null,
}

impl Field {
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Field::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Field::Num(raw) => raw.parse().ok(),
            Field::Null => Some(f64::NAN),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Field::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Skips insignificant whitespace between tokens. The store's own
/// lines never contain any, but the [`serve`](crate::serve) protocol
/// accepts requests from arbitrary JSON emitters, which routinely put
/// spaces after `:` and `,`.
fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

/// Parses one flat JSON object (string/number/bool/null values only —
/// the shape this store writes, and the shape the [`serve`](crate::serve)
/// protocol accepts). Returns `None` on any malformed line, which
/// callers treat as "not resumable" (or, for serve, a protocol error):
/// members must be separated by single commas, and nothing but
/// whitespace may follow the closing brace.
pub(crate) fn parse_flat(line: &str) -> Option<HashMap<String, Field>> {
    let mut chars = line.trim().chars().peekable();
    if chars.next()? != '{' {
        return None;
    }
    let mut map = HashMap::new();
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return chars.next().is_none().then_some(map);
    }
    loop {
        // Key.
        if chars.next()? != '"' {
            return None;
        }
        let key = parse_string_body(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        // Value.
        let value = match chars.peek()? {
            '"' => {
                chars.next();
                Field::Str(parse_string_body(&mut chars)?)
            }
            't' => {
                for expect in "true".chars() {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                Field::Bool(true)
            }
            'f' => {
                for expect in "false".chars() {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                Field::Bool(false)
            }
            'n' => {
                for expect in "null".chars() {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                Field::Null
            }
            _ => {
                let mut raw = String::new();
                while let Some(&c) = chars.peek() {
                    if c == ',' || c == '}' || c.is_ascii_whitespace() {
                        break;
                    }
                    raw.push(c);
                    chars.next();
                }
                if raw.is_empty() {
                    return None;
                }
                Field::Num(raw)
            }
        };
        map.insert(key, value);
        // A comma and the next member, or the closing brace and the end
        // of the line (the line is trimmed, so nothing may follow).
        skip_ws(&mut chars);
        match chars.next()? {
            ',' => skip_ws(&mut chars),
            '}' => return chars.next().is_none().then_some(map),
            _ => return None,
        }
    }
}

/// Parses the body of a JSON string whose opening quote was consumed.
fn parse_string_body(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let code: String = (0..4).filter_map(|_| chars.next()).collect();
                    let v = u32::from_str_radix(&code, 16).ok()?;
                    out.push(char::from_u32(v)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// How a work unit ended.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitStatus {
    /// The detector returned a detection within budget.
    Ok,
    /// The run was aborted by a [`Budget`](even_cycle::Budget) cap.
    BudgetExceeded,
    /// The simulator failed (the message is the `SimError` rendering).
    Error(String),
}

/// One completed work unit: the content address (`key`), the
/// human-readable identity (`det`, `n`, `seed`), the extracted metric
/// `value`, and the full unified cost so stored sweeps can be
/// re-analyzed under other metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRecord {
    /// The unit's 32-hex content address ([`unit_key`] of
    /// [`canonical_unit`]).
    pub key: String,
    /// The detector's registry id.
    pub det: String,
    /// Requested instance size.
    pub n: usize,
    /// Instance seed.
    pub seed: u64,
    /// How the run ended.
    pub status: UnitStatus,
    /// Vertices of the graph actually built (families snap sizes).
    pub node_count: u64,
    /// The metric value extracted at record time (informational —
    /// aggregation re-derives values from the cost fields, which is
    /// what lets one store serve every metric).
    pub value: f64,
    /// Whether the detector rejected (found a cycle).
    pub rejected: bool,
    /// Unified cost: rounds charged.
    pub rounds: u64,
    /// Unified cost: supersteps executed.
    pub supersteps: u64,
    /// Unified cost: total messages.
    pub messages: u64,
    /// Unified cost: total words.
    pub words: u64,
    /// Unified cost: peak per-edge words in a superstep.
    pub max_congestion: u64,
    /// Unified cost: outer-loop iterations.
    pub iterations: u64,
}

impl UnitRecord {
    /// The record's cost fields as a unified
    /// [`RunCost`](even_cycle::RunCost) — what metric
    /// extraction runs on, for replayed and fresh units alike.
    pub fn cost(&self) -> even_cycle::RunCost {
        even_cycle::RunCost {
            rounds: self.rounds,
            supersteps: self.supersteps,
            messages: self.messages,
            words: self.words,
            max_congestion: self.max_congestion,
            iterations: self.iterations,
        }
    }

    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let status = match &self.status {
            UnitStatus::Ok => "ok",
            UnitStatus::BudgetExceeded => "budget-exceeded",
            UnitStatus::Error(_) => "error",
        };
        let mut line = format!(
            "{{\"key\":\"{}\",\"det\":\"{}\",\"n\":{},\"seed\":{},\"status\":\"{}\",\"rejected\":{},\"value\":{},\"node_count\":{},\"rounds\":{},\"supersteps\":{},\"messages\":{},\"words\":{},\"max_congestion\":{},\"iterations\":{}",
            json_escape(&self.key),
            json_escape(&self.det),
            self.n,
            self.seed,
            status,
            self.rejected,
            json_f64(self.value),
            self.node_count,
            self.rounds,
            self.supersteps,
            self.messages,
            self.words,
            self.max_congestion,
            self.iterations,
        );
        if let UnitStatus::Error(msg) = &self.status {
            line.push_str(&format!(",\"error\":\"{}\"", json_escape(msg)));
        }
        line.push('}');
        line
    }

    /// Parses a record line written by [`UnitRecord::to_line`].
    pub fn from_line(line: &str) -> Option<UnitRecord> {
        let map = parse_flat(line)?;
        let status = match map.get("status")?.as_str()? {
            "ok" => UnitStatus::Ok,
            "budget-exceeded" => UnitStatus::BudgetExceeded,
            "error" => UnitStatus::Error(
                map.get("error")
                    .and_then(Field::as_str)
                    .unwrap_or("")
                    .to_string(),
            ),
            _ => return None,
        };
        Some(UnitRecord {
            key: map.get("key")?.as_str()?.to_string(),
            det: map.get("det")?.as_str()?.to_string(),
            n: map.get("n")?.as_u64()? as usize,
            seed: map.get("seed")?.as_u64()?,
            status,
            node_count: map.get("node_count")?.as_u64()?,
            value: map.get("value")?.as_f64()?,
            rejected: map.get("rejected")?.as_bool()?,
            rounds: map.get("rounds")?.as_u64()?,
            supersteps: map.get("supersteps")?.as_u64()?,
            messages: map.get("messages")?.as_u64()?,
            words: map.get("words")?.as_u64()?,
            max_congestion: map.get("max_congestion")?.as_u64()?,
            iterations: map.get("iterations")?.as_u64()?,
        })
    }
}

/// The on-disk per-unit store for one store directory.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    loaded: HashMap<String, UnitRecord>,
}

impl ResultStore {
    /// Opens (or creates) the store under `dir`, loading every
    /// resumable record.
    ///
    /// * A crash-truncated trailing line (no final newline) is sealed
    ///   on open so the partial record is skipped once and later
    ///   appends land on a fresh line instead of concatenating.
    /// * A `units-v2.jsonl` whose header is not a valid v2 header is
    ///   moved to a `.corrupt` sidecar (noted on stderr) instead of
    ///   being destroyed — the data may be hand-edited or otherwise
    ///   worth inspecting.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or file.
    pub fn open(dir: &Path) -> std::io::Result<ResultStore> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(STORE_FILE);
        let mut loaded = HashMap::new();
        let mut valid_header = false;
        if path.exists() {
            let content = std::fs::read_to_string(&path)?;
            if !content.is_empty() && !content.ends_with('\n') {
                // Killed mid-append: seal the partial line. It fails to
                // parse below (recomputed), and future appends start
                // clean.
                std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)?
                    .write_all(b"\n")?;
            }
            for (idx, line) in content.lines().enumerate() {
                if idx == 0 {
                    valid_header = parse_flat(line).is_some_and(|m| {
                        m.get("kind").and_then(Field::as_str) == Some("unit-store")
                            && m.get("version").and_then(Field::as_u64) == Some(2)
                    });
                    if !valid_header {
                        break;
                    }
                    continue;
                }
                if let Some(record) = UnitRecord::from_line(line) {
                    loaded.insert(record.key.clone(), record);
                }
            }
            // An empty file (a crash between create and the header
            // write) holds no data worth preserving — reinitialize it
            // in place. Anything else unreadable moves aside intact.
            if !valid_header && !content.is_empty() {
                let sidecar = corrupt_sidecar(&path);
                std::fs::rename(&path, &sidecar)?;
                eprintln!(
                    "warning: {} has an unreadable header; moved it to {} and started a fresh store",
                    path.display(),
                    sidecar.display(),
                );
            }
        }
        if !valid_header {
            loaded.clear();
            let mut file = std::fs::File::create(&path)?;
            writeln!(file, "{{\"kind\":\"unit-store\",\"version\":2}}")?;
        }
        Ok(ResultStore { path, loaded })
    }

    /// The records replayable from disk, keyed by content address.
    pub fn loaded(&self) -> &HashMap<String, UnitRecord> {
        &self.loaded
    }

    /// Looks up one record by its content address.
    pub fn get(&self, key: &str) -> Option<&UnitRecord> {
        self.loaded.get(key)
    }

    /// The record stored under `key`, if it is detector `det`'s unit at
    /// `(n, seed)`: checking the identity the key was hashed from guards
    /// against a 128-bit key collision replaying another unit.
    pub fn replay(&self, key: &str, det: &str, n: usize, seed: u64) -> Option<&UnitRecord> {
        self.loaded
            .get(key)
            .filter(|r| r.det == det && r.n == n && r.seed == seed)
    }

    /// Number of replayable records.
    pub fn len(&self) -> usize {
        self.loaded.len()
    }

    /// Whether the store holds no replayable records.
    pub fn is_empty(&self) -> bool {
        self.loaded.is_empty()
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends freshly computed records and makes them resumable.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append(&mut self, records: &[UnitRecord]) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        for record in records {
            writeln!(file, "{}", record.to_line())?;
        }
        for record in records {
            self.loaded.insert(record.key.clone(), record.clone());
        }
        Ok(())
    }
}

/// A free `.corrupt` sidecar name next to `path` (numbered when a
/// previous corruption already claimed the plain one).
fn corrupt_sidecar(path: &Path) -> PathBuf {
    let base = PathBuf::from(format!("{}.corrupt", path.display()));
    if !base.exists() {
        return base;
    }
    for i in 1.. {
        let numbered = PathBuf::from(format!("{}.corrupt-{i}", path.display()));
        if !numbered.exists() {
            return numbered;
        }
    }
    unreachable!("some sidecar index is free")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(key: &str) -> UnitRecord {
        UnitRecord {
            key: key.to_string(),
            det: "classical/C4/color-bfs".to_string(),
            n: 64,
            seed: 3,
            status: UnitStatus::Ok,
            node_count: 64,
            value: 220.5,
            rejected: true,
            rounds: 220,
            supersteps: 40,
            messages: 1000,
            words: 1200,
            max_congestion: 9,
            iterations: 2,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ec-store-{tag}-{}", std::process::id()))
    }

    #[test]
    fn record_roundtrips_through_its_line() {
        for status in [
            UnitStatus::Ok,
            UnitStatus::BudgetExceeded,
            UnitStatus::Error("step limit \"64\" exceeded".to_string()),
        ] {
            let mut r = sample("00aa");
            r.status = status;
            let parsed = UnitRecord::from_line(&r.to_line()).expect("roundtrip");
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn parse_flat_tolerates_inter_token_whitespace() {
        // The serve protocol feeds this parser lines from arbitrary
        // JSON emitters, which put spaces after ':' and ',' (python's
        // json.dumps default, most pretty-printers).
        let spaced = "{ \"op\" : \"detect\", \"n\" : 24 ,\"deep\" :\ttrue , \"x\": null }";
        let map = parse_flat(spaced).expect("spaced object parses");
        assert_eq!(map.get("op").and_then(Field::as_str), Some("detect"));
        assert_eq!(map.get("n").and_then(Field::as_u64), Some(24));
        assert_eq!(map.get("deep").and_then(Field::as_bool), Some(true));
        assert!(matches!(map.get("x"), Some(Field::Null)));
        // Whitespace never glues two values together.
        assert!(parse_flat("{\"a\":1 2}").is_none());
    }

    #[test]
    fn parse_flat_rejects_malformed_input() {
        // Store lines can be torn by a crash and serve requests come
        // from outside the program: every malformed line is `None`,
        // never a panic and never a partial object.
        const MALFORMED: &[&str] = &[
            "",
            "{",
            "}",
            "[]",
            "null",
            "{\"a\":1}{\"b\":2}",
            "{\"a\":1}garbage",
            "{\"a\":1} x",
            "{\"a\":1}}",
            "{\"a\":1 \"b\":2}",
            "{\"a\":1 2}",
            "{,\"a\":1}",
            "{ , \"a\":1}",
            "{,}",
            "{\"a\":1,}",
            "{\"a\":1,,\"b\":2}",
            "{\"a\" 1}",
            "{\"a\":}",
            "{\"a\":,\"b\":2}",
            "{a:1}",
            "{\"a\":tru}",
            "{\"a\":nul}",
            "{\"a\":falsy}",
            "{\"a\":\"x}",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\u12\"}",
        ];
        let record = sample("00ff").to_line();
        let request = r#"{"op":"detect","name":"g","detector":"color-bfs","seed":0}"#;
        assert!(parse_flat(&record).is_some() && parse_flat(request).is_some());
        let prefixes = [record.as_str(), request]
            .into_iter()
            .flat_map(|line| line.char_indices().map(move |(i, _)| &line[..i]));
        for line in MALFORMED.iter().copied().chain(prefixes) {
            assert!(parse_flat(line).is_none(), "parsed {line:?}");
        }
        // Whitespace around the object and between tokens still parses.
        for line in [
            "  {\"a\":1}  ",
            "{ }",
            "{}",
            "{ \"a\" : 1 , \"b\" : \"x\" }",
        ] {
            assert!(parse_flat(line).is_some(), "rejected {line:?}");
        }
    }

    #[test]
    fn f64_values_roundtrip_exactly() {
        let mut r = sample("00bb");
        r.value = 1.0 / 3.0;
        let parsed = UnitRecord::from_line(&r.to_line()).unwrap();
        assert_eq!(parsed.value.to_bits(), r.value.to_bits());
    }

    #[test]
    fn legacy_name_keyed_canonicals_never_collide_with_v3() {
        // Pre-refactor stores keyed units by the family display name
        // under a v2 prefix; the v3 prefix + fingerprint key can never
        // reproduce such a key, so legacy records are dead weight, not
        // a misread hazard.
        let legacy = "v2|family=planted C4 on trees|n=64|seed=3|det=d|config=c|bandwidth=1|repetitions=None|run_to_budget=false|max_rounds=None|max_messages=None";
        let current = canonical_unit(
            "spec:0123456789abcdef0123456789abcdef",
            64,
            3,
            "d",
            "c",
            &even_cycle::Budget::classical(),
        );
        assert!(current.starts_with("v3|"));
        assert_ne!(unit_key(legacy), unit_key(&current));
    }

    #[test]
    fn unit_key_is_stable_and_sensitive() {
        let canonical = canonical_unit(
            "spec:planted4",
            64,
            3,
            "classical/C4/color-bfs",
            "Params { k: 2 }",
            &even_cycle::Budget::classical(),
        );
        let a = unit_key(&canonical);
        assert_eq!(a.len(), 32, "32 hex chars of 128-bit FNV-1a");
        assert_eq!(a, unit_key(&canonical));
        // Every identity component must move the key.
        let b = even_cycle::Budget::classical().with_bandwidth(2);
        for other in [
            canonical_unit(
                "spec:trees",
                64,
                3,
                "classical/C4/color-bfs",
                "Params { k: 2 }",
                &even_cycle::Budget::classical(),
            ),
            canonical_unit(
                "spec:planted4",
                65,
                3,
                "classical/C4/color-bfs",
                "Params { k: 2 }",
                &even_cycle::Budget::classical(),
            ),
            canonical_unit(
                "spec:planted4",
                64,
                4,
                "classical/C4/color-bfs",
                "Params { k: 2 }",
                &even_cycle::Budget::classical(),
            ),
            canonical_unit(
                "spec:planted4",
                64,
                3,
                "classical/C6/color-bfs",
                "Params { k: 2 }",
                &even_cycle::Budget::classical(),
            ),
            canonical_unit(
                "spec:planted4",
                64,
                3,
                "classical/C4/color-bfs",
                "Params { k: 3 }",
                &even_cycle::Budget::classical(),
            ),
            canonical_unit(
                "spec:planted4",
                64,
                3,
                "classical/C4/color-bfs",
                "Params { k: 2 }",
                &b,
            ),
        ] {
            assert_ne!(a, unit_key(&other));
        }
    }

    #[test]
    fn content_keys_equal_the_key_of_the_text() {
        use congest_graph::generators;
        for g in [
            Graph::empty(0),
            Graph::empty(9),
            Graph::from_edges(10_001, [(0, 10_000), (9, 10), (99, 100), (999, 1000)]).unwrap(),
            generators::erdos_renyi(300, 0.05, 2),
        ] {
            assert_eq!(content_key(&g), unit_key(&serialize::to_text(&g)));
        }
    }

    #[test]
    fn content_keys_are_pinned() {
        use congest_graph::FamilySpec;
        for (family, n, seed, key) in [
            ("planted:4", 24, 3, "067373234920240b107a7d76d8bd1b7d"),
            ("trees", 5000, 7, "12166962840cf1f949748e70d4ac7343"),
            ("trees", 1001, 0, "bf5e39ee701e26e1d6325fc41423bf70"),
        ] {
            let g = FamilySpec::parse(family).unwrap().build(n, seed);
            assert_eq!(unit_key(&serialize::to_text(&g)), key, "{family} n={n}");
            assert_eq!(content_key(&g), key, "{family} n={n}");
        }
    }

    #[test]
    fn stream_unit_keys_are_sensitive_and_disjoint_from_sweep_keys() {
        let budget = even_cycle::Budget::classical();
        let a = unit_key(&canonical_stream_unit(
            "00ff00ff", 2, 64, 3, "d", "c", &budget,
        ));
        // Every identity component must move the key.
        for other in [
            canonical_stream_unit("11ff00ff", 2, 64, 3, "d", "c", &budget),
            canonical_stream_unit("00ff00ff", 3, 64, 3, "d", "c", &budget),
            canonical_stream_unit("00ff00ff", 2, 65, 3, "d", "c", &budget),
            canonical_stream_unit("00ff00ff", 2, 64, 4, "d", "c", &budget),
            canonical_stream_unit("00ff00ff", 2, 64, 3, "e", "c", &budget),
            canonical_stream_unit("00ff00ff", 2, 64, 3, "d", "x", &budget),
            canonical_stream_unit(
                "00ff00ff",
                2,
                64,
                3,
                "d",
                "c",
                &even_cycle::Budget::classical().with_bandwidth(2),
            ),
        ] {
            assert_ne!(a, unit_key(&other));
        }
        // The stream namespace can never collide with a static sweep
        // unit, whatever the family key looks like.
        let sweep = canonical_unit("spec:00ff00ff", 64, 3, "d", "c", &budget);
        assert!(sweep.starts_with("v3|family="));
        assert!(
            canonical_stream_unit("00ff00ff", 2, 64, 3, "d", "c", &budget)
                .starts_with("v3|stream=")
        );
        assert_ne!(a, unit_key(&sweep));
    }

    #[test]
    fn truncated_trailing_line_is_sealed_not_concatenated() {
        let dir = temp_dir("trunc");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir).unwrap();
        store.append(&[sample("aa00")]).unwrap();

        // Simulate a crash mid-append: a partial record with no newline.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(store.path())
                .unwrap();
            write!(f, "{{\"key\":\"bb11\",\"det\":\"classi").unwrap();
        }

        // Reopen: aa00 replays, the partial bb11 does not.
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.get("aa00").is_some());

        // Appending the recomputed record must land on its own line.
        store.append(&[sample("bb11")]).unwrap();
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("bb11"), Some(&sample("bb11")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_append_reopen_replays() {
        let dir = temp_dir("reopen");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        store.append(&[sample("aa00"), sample("bb11")]).unwrap();

        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("aa00"), Some(&sample("aa00")));
        // A key never stored must not replay.
        assert!(reopened.get("cc22").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_header_moves_to_sidecar() {
        let dir = temp_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(STORE_FILE);
        std::fs::write(&path, "this is not a store\n").unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty(), "corrupt data must not replay");
        let sidecar = dir.join(format!("{STORE_FILE}.corrupt"));
        assert_eq!(
            std::fs::read_to_string(&sidecar).unwrap(),
            "this is not a store\n",
            "the original bytes must be preserved, not destroyed"
        );

        // A second corruption gets a numbered sidecar.
        std::fs::write(&path, "still not a store\n").unwrap();
        let _ = ResultStore::open(&dir).unwrap();
        assert!(dir.join(format!("{STORE_FILE}.corrupt-1")).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_is_reinitialized_not_quarantined() {
        // A crash between File::create and the header write leaves a
        // 0-byte file; it holds nothing worth preserving, so open must
        // rewrite it in place instead of minting .corrupt sidecars.
        let dir = temp_dir("empty");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(STORE_FILE), "").unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert!(!dir.join(format!("{STORE_FILE}.corrupt")).exists());
        assert!(std::fs::read_to_string(store.path())
            .unwrap()
            .starts_with("{\"kind\":\"unit-store\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_v1_files_are_ignored_untouched() {
        let dir = temp_dir("legacy");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = dir.join("old-sweep-0123456789abcdef.jsonl");
        let v1_content = "{\"kind\":\"sweep-store\",\"config\":\"0123456789abcdef\",\"scenario\":\"old\",\"family\":\"trees\",\"metric\":\"rounds\",\"units\":4}\n{\"unit\":0,\"det\":\"x\",\"n\":24,\"seed\":0,\"status\":\"ok\",\"rejected\":false,\"value\":1,\"node_count\":24,\"rounds\":1,\"supersteps\":1,\"messages\":1,\"words\":1,\"max_congestion\":1,\"iterations\":1}\n";
        std::fs::write(&v1, v1_content).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert!(
            store.is_empty(),
            "v1 records must not be misread as v2 units"
        );
        assert_eq!(
            std::fs::read_to_string(&v1).unwrap(),
            v1_content,
            "v1 files are ignored, not rewritten"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
