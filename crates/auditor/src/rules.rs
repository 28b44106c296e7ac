//! The determinism rule catalog (R1–R6).
//!
//! Each rule is a token-scan over a scrubbed file (see [`crate::lexer`])
//! plus a file classification describing which surfaces the file
//! touches. The rules are deliberately heuristic — they over-approximate
//! (that is what waivers are for) but they must never *miss* the
//! canonical nondeterminism shapes:
//!
//! | id | shape | why it breaks byte-identity |
//! |----|-------|------------------------------|
//! | R1 | `HashMap`/`HashSet` iteration in an output-producing file | iteration order is randomized per process; any byte derived from it differs across runs |
//! | R2 | `Instant::now`/`SystemTime::now` outside the timing allowlist | results that read the clock differ across machines and runs |
//! | R3 | `thread::spawn`/`thread::scope` outside the pool modules/serve | ad-hoc threads race on shared state the engine cannot order |
//! | R4 | bare `.unwrap()` on the serve protocol surface | malformed network input must produce an error reply, not a worker panic |
//! | R5 | lossy casts / float `format!` in key- or fingerprint-building functions | truncation and locale-free-but-rounded decimals silently merge distinct units |
//! | R6 | `impl Detector for T` with `T` absent from `src/registry.rs` | unregistered detectors escape the conformance suite and the sweep grid |

use crate::lexer::{in_spans, Token};
use std::collections::BTreeMap;

/// Every rule id the engine knows, with a one-line summary (used by
/// the JSON report and by waiver validation).
pub const RULES: [(&str, &str); 6] = [
    (
        "R1",
        "no HashMap/HashSet iteration in files that produce serialized, reported, or fingerprinted output",
    ),
    (
        "R2",
        "Instant::now/SystemTime::now only in the timing allowlist (engine pool, schedule, serve, bin drivers, telemetry, bench, sim worker pool and superstep core)",
    ),
    (
        "R3",
        "thread::spawn and scoped spawns only in the engine pool, the simulator's superstep pool, and serve modules",
    ),
    (
        "R4",
        "no bare unwrap() on the serve protocol surface; use error replies or expect(\"documented invariant\")",
    ),
    (
        "R5",
        "fingerprint hygiene: no truncating as-u32/as-usize casts and no float formatting inside key/fingerprint/canonical/hash builders",
    ),
    (
        "R6",
        "every concrete `impl Detector for T` must be registered in src/registry.rs",
    ),
];

/// Whether `id` names a rule in the catalog.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

/// One diagnostic produced by a rule, positioned in the audited file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub line: usize,
    pub col: usize,
    pub message: String,
}

/// Which rule surfaces a file belongs to, derived from its
/// workspace-relative path (see [`crate::classify`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileClass {
    /// Test or bench code (under a `tests/`/`benches/` component):
    /// every rule is exempt — test threads, clocks, and unwraps touch
    /// no shipped byte.
    pub test_code: bool,
    /// The file produces serialized/reported/fingerprinted bytes (R1).
    pub output_scope: bool,
    /// The file may read wall clocks (R2 allowlist).
    pub timing_allowed: bool,
    /// The file may spawn threads (R3 allowlist).
    pub spawn_allowed: bool,
    /// The file parses network input (R4: the serve protocol surface).
    pub protocol_surface: bool,
    /// R5 applies (everything except the vendored compat shims, which
    /// reproduce upstream rand algorithms full of intentional u32 ops).
    pub key_hygiene: bool,
}

/// A concrete (non-generic) `impl … Detector for TypeName` site, for
/// the cross-file R6 registry check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorImpl {
    pub type_name: String,
    pub line: usize,
    pub col: usize,
}

/// Runs every per-file rule. R6 collection is separate (see
/// [`detector_impls`]) because its check needs the registry file.
pub fn run_file_rules(
    tokens: &[Token],
    test_spans: &[(usize, usize)],
    class: &FileClass,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if class.test_code {
        return violations;
    }
    if class.output_scope {
        violations.extend(r1_map_iteration(tokens));
    }
    if !class.timing_allowed {
        violations.extend(r2_wall_clock(tokens));
    }
    if !class.spawn_allowed {
        violations.extend(r3_thread_spawn(tokens));
    }
    if class.protocol_surface {
        violations.extend(r4_bare_unwrap(tokens));
    }
    if class.key_hygiene {
        violations.extend(r5_key_hygiene(tokens));
    }
    violations.retain(|v| !in_spans(test_spans, v.line));
    violations.sort_by_key(|v| (v.line, v.col, v.rule));
    violations
}

const UNORDERED_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];
const SORT_EVIDENCE: [&str; 8] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
];

/// R1: iteration over identifiers bound to `HashMap`/`HashSet` in an
/// output-scoped file, unless sorted within the next few statements.
fn r1_map_iteration(tokens: &[Token]) -> Vec<Violation> {
    let tracked = tracked_idents(tokens, &UNORDERED_TYPES);
    let mut violations = Vec::new();
    let flag = |violations: &mut Vec<Violation>, t: &Token, ident: &str, decl_line: usize| {
        violations.push(Violation {
            rule: "R1",
            line: t.line,
            col: t.col,
            message: format!(
                "iteration over `{ident}` (declared as an unordered map/set on line \
                 {decl_line}) in an output-producing file: switch to BTreeMap/BTreeSet \
                 or sort before any byte leaves the process"
            ),
        });
    };
    let mut i = 0;
    while i < tokens.len() {
        // `tracked.iter()` / `tracked.keys()` / … method calls.
        if tokens[i].is(".")
            && i > 0
            && tokens[i - 1].word
            && tokens.get(i + 1).is_some_and(|t| t.word)
            && tokens.get(i + 2).is_some_and(|t| t.is("("))
        {
            let recv = &tokens[i - 1];
            let method = &tokens[i + 1];
            if ITER_METHODS.contains(&method.text.as_str()) {
                if let Some(&decl_line) = tracked.get(recv.text.as_str()) {
                    if !sorted_nearby(tokens, i) {
                        flag(&mut violations, method, &recv.text, decl_line);
                    }
                }
            }
        }
        // `for pat in [&][mut] path.ending.in.tracked {`.
        if tokens[i].is("for") {
            if let Some((t, ident, decl_line)) = for_in_tracked(tokens, i, &tracked) {
                if !sorted_nearby(tokens, i) {
                    flag(&mut violations, t, ident, decl_line);
                }
            }
        }
        i += 1;
    }
    violations
}

/// Identifiers whose declaration window mentions one of `types`:
/// `ident: …Type…` (fields, params, let ascriptions) and
/// `let [mut] ident = …Type…;` initializers. Returns ident → first
/// declaration line.
fn tracked_idents(tokens: &[Token], types: &[&str]) -> BTreeMap<String, usize> {
    let mut tracked: BTreeMap<String, usize> = BTreeMap::new();
    for i in 0..tokens.len() {
        // Pattern A: `ident :` followed by a type window.
        if tokens[i].word && tokens.get(i + 1).is_some_and(|t| t.is(":")) {
            let mut angle = 0i32;
            let mut paren = 0i32;
            let mut bracket = 0i32;
            for t in tokens.iter().skip(i + 2).take(48) {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" if angle > 0 => angle -= 1,
                    "(" => paren += 1,
                    "[" => bracket += 1,
                    "]" if bracket > 0 => bracket -= 1,
                    ")" => {
                        if paren == 0 {
                            break;
                        }
                        paren -= 1;
                    }
                    "," | ";" | "{" | "=" if angle == 0 && paren == 0 && bracket == 0 => break,
                    _ => {
                        if t.word && types.contains(&t.text.as_str()) {
                            tracked
                                .entry(tokens[i].text.clone())
                                .or_insert(tokens[i].line);
                            break;
                        }
                    }
                }
            }
        }
        // Pattern B: `let [mut] ident = … Type … ;`.
        if tokens[i].is("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is("mut")) {
                j += 1;
            }
            let Some(name) = tokens.get(j).filter(|t| t.word) else {
                continue;
            };
            if !tokens.get(j + 1).is_some_and(|t| t.is("=") || t.is(":")) {
                continue;
            }
            let mut brace = 0i32;
            for t in tokens.iter().skip(j + 1).take(120) {
                match t.text.as_str() {
                    "{" => brace += 1,
                    "}" => brace -= 1,
                    ";" if brace <= 0 => break,
                    _ => {
                        if t.word && types.contains(&t.text.as_str()) {
                            tracked.entry(name.text.clone()).or_insert(name.line);
                            break;
                        }
                    }
                }
            }
        }
    }
    tracked
}

/// For a `for` keyword at `i`, resolves `for pat in expr {` where
/// `expr` is a plain (optionally borrowed) path: returns the path's
/// final segment token if that segment is tracked.
fn for_in_tracked<'t>(
    tokens: &'t [Token],
    i: usize,
    tracked: &BTreeMap<String, usize>,
) -> Option<(&'t Token, &'t str, usize)> {
    // Find `in` at pattern depth 0 (the pattern may contain parens).
    let mut depth = 0i32;
    let mut j = i + 1;
    loop {
        let t = tokens.get(j)?;
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 => break,
            "{" | ";" => return None,
            _ => {}
        }
        j += 1;
    }
    j += 1;
    while tokens.get(j).is_some_and(|t| t.is("&") || t.is("mut")) {
        j += 1;
    }
    // A plain path: words joined by `.`/`::`, terminated by `{`.
    let mut last_word: Option<&Token> = None;
    while let Some(t) = tokens.get(j) {
        if t.word {
            last_word = Some(t);
        } else if !(t.is(".") || t.is("::")) {
            break;
        }
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is("{")) {
        return None;
    }
    let t = last_word?;
    let decl = *tracked.get(t.text.as_str())?;
    Some((t, t.text.as_str(), decl))
}

/// Whether evidence of sorting (or a sorted collection target) appears
/// shortly after token `i` — the collect-and-sort escape hatch.
fn sorted_nearby(tokens: &[Token], i: usize) -> bool {
    tokens
        .iter()
        .skip(i)
        .take(60)
        .any(|t| t.word && SORT_EVIDENCE.contains(&t.text.as_str()))
}

/// R2: `Instant::now()` / `SystemTime::now()` outside the allowlist.
fn r2_wall_clock(tokens: &[Token]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for i in 0..tokens.len() {
        let clock = tokens[i].text.as_str();
        if (clock == "Instant" || clock == "SystemTime")
            && tokens.get(i + 1).is_some_and(|t| t.is("::"))
            && tokens.get(i + 2).is_some_and(|t| t.is("now"))
        {
            violations.push(Violation {
                rule: "R2",
                line: tokens[i].line,
                col: tokens[i].col,
                message: format!(
                    "{clock}::now() outside the timing allowlist: detector and graph \
                     code must not read wall clocks — route timing through the pool, \
                     scheduler, or telemetry layers"
                ),
            });
        }
    }
    violations
}

/// R3: `thread::spawn`, `thread::scope`, and `.spawn(` calls outside
/// the pool/backend/serve allowlist.
fn r3_thread_spawn(tokens: &[Token]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is("thread")
            && tokens.get(i + 1).is_some_and(|t| t.is("::"))
            && tokens
                .get(i + 2)
                .is_some_and(|t| t.is("spawn") || t.is("scope"))
        {
            let what = &tokens[i + 2].text;
            violations.push(Violation {
                rule: "R3",
                line: tokens[i].line,
                col: tokens[i].col,
                message: format!(
                    "thread::{what} outside the pool/backend/serve allowlist: ad-hoc \
                     threads bypass the deterministic work distribution"
                ),
            });
            continue;
        }
        // Scoped handles: `scope.spawn(…)`, `builder.spawn(…)`.
        if tokens[i].is(".")
            && tokens.get(i + 1).is_some_and(|t| t.is("spawn"))
            && tokens.get(i + 2).is_some_and(|t| t.is("("))
        {
            violations.push(Violation {
                rule: "R3",
                line: tokens[i + 1].line,
                col: tokens[i + 1].col,
                message: ".spawn(…) outside the pool/backend/serve allowlist: ad-hoc \
                     threads bypass the deterministic work distribution"
                    .to_string(),
            });
        }
    }
    violations
}

/// R4: bare `.unwrap()` on the protocol surface. `.expect("…")` is the
/// sanctioned form for internal invariants (the message documents why
/// the panic is unreachable from network input), and `unwrap_or*` is
/// total — neither is flagged.
fn r4_bare_unwrap(tokens: &[Token]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is(".")
            && tokens.get(i + 1).is_some_and(|t| t.is("unwrap"))
            && tokens.get(i + 2).is_some_and(|t| t.is("("))
        {
            violations.push(Violation {
                rule: "R4",
                line: tokens[i + 1].line,
                col: tokens[i + 1].col,
                message: "bare unwrap() on the serve protocol surface: reply with a \
                     protocol error for malformed input, or expect(\"…\") a documented \
                     internal invariant"
                    .to_string(),
            });
        }
    }
    violations
}

const KEY_FN_MARKERS: [&str; 4] = ["key", "fingerprint", "canonical", "hash"];
const FLOAT_TYPES: [&str; 2] = ["f64", "f32"];
const FORMAT_MACROS: [&str; 4] = ["format", "write", "writeln", "print"];

/// R5: inside functions whose names mark them as key/fingerprint
/// builders, flag truncating casts and floats reaching a formatting
/// macro (floats in key material must go through a bit-exact encoder).
fn r5_key_hygiene(tokens: &[Token]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is("fn") {
            i += 1;
            continue;
        }
        let Some(name) = tokens.get(i + 1).filter(|t| t.word) else {
            i += 1;
            continue;
        };
        let lowered = name.text.to_lowercase();
        if !KEY_FN_MARKERS.iter().any(|m| lowered.contains(m)) {
            i += 1;
            continue;
        }
        // Find the body: first `{` before a depth-0 `;` (trait method
        // declarations have no body).
        let mut j = i + 2;
        let mut body: Option<(usize, usize)> = None;
        while let Some(t) = tokens.get(j) {
            if t.is(";") {
                break;
            }
            if t.is("{") {
                let mut depth = 0i32;
                let start = j;
                while let Some(b) = tokens.get(j) {
                    if b.is("{") {
                        depth += 1;
                    } else if b.is("}") {
                        depth -= 1;
                        if depth == 0 {
                            body = Some((start, j));
                            break;
                        }
                    }
                    j += 1;
                }
                break;
            }
            j += 1;
        }
        let Some((start, end)) = body else {
            i = j + 1;
            continue;
        };
        let body_tokens = &tokens[start..=end];
        // Track floats over the whole item (signature included): a
        // `p: f64` parameter is as hazardous as a local.
        let floats = tracked_idents(&tokens[i..=end], &FLOAT_TYPES);
        for (k, t) in body_tokens.iter().enumerate() {
            if t.is("as") {
                if let Some(target) = body_tokens.get(k + 1) {
                    if target.is("u32") || target.is("usize") {
                        violations.push(Violation {
                            rule: "R5",
                            line: t.line,
                            col: t.col,
                            message: format!(
                                "truncating `as {}` cast inside key builder `{}`: keys \
                                 must hash full-width values (use u64/u128 or try_from)",
                                target.text, name.text
                            ),
                        });
                    }
                }
            }
            // A formatting macro whose argument span touches a float.
            if t.word
                && FORMAT_MACROS.contains(&t.text.as_str())
                && body_tokens.get(k + 1).is_some_and(|n| n.is("!"))
                && body_tokens.get(k + 2).is_some_and(|n| n.is("("))
            {
                let mut depth = 0i32;
                for a in body_tokens.iter().skip(k + 2) {
                    if a.is("(") {
                        depth += 1;
                    } else if a.is(")") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if a.word
                        && (FLOAT_TYPES.contains(&a.text.as_str())
                            || floats.contains_key(a.text.as_str()))
                    {
                        violations.push(Violation {
                            rule: "R5",
                            line: t.line,
                            col: t.col,
                            message: format!(
                                "float `{}` formatted inside key builder `{}`: decimal \
                                 rendering rounds — encode via to_bits() for byte-stable \
                                 keys",
                                a.text, name.text
                            ),
                        });
                        break;
                    }
                }
            }
        }
        i = end + 1;
    }
    violations
}

/// Collects concrete `impl … Detector for TypeName` sites for R6.
/// Generic impls (`impl<…>`) are skipped: those are the blanket
/// forwarding impls (`&D`, `Box<D>`), not detectors.
pub fn detector_impls(tokens: &[Token], test_spans: &[(usize, usize)]) -> Vec<DetectorImpl> {
    let mut impls = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is("impl") {
            i += 1;
            continue;
        }
        if tokens.get(i + 1).is_some_and(|t| t.is("<")) {
            i += 1;
            continue;
        }
        // Scan the trait path up to `for`; bail at a body/semicolon
        // (inherent impls have no `for`).
        let mut j = i + 1;
        let mut last_trait_word: Option<&str> = None;
        let mut found_for = false;
        while let Some(t) = tokens.get(j) {
            if t.is("for") {
                found_for = true;
                break;
            }
            if t.is("{") || t.is(";") {
                break;
            }
            if t.word {
                last_trait_word = Some(t.text.as_str());
            }
            j += 1;
        }
        if !found_for || last_trait_word != Some("Detector") {
            i = j + 1;
            continue;
        }
        // The implementing type: last path segment before `<`/`{`/`where`.
        j += 1;
        let mut type_tok: Option<&Token> = None;
        while let Some(t) = tokens.get(j) {
            if t.word && !t.is("where") {
                type_tok = Some(t);
            } else if !(t.is("::") || t.is("&") || t.is("mut")) {
                break;
            }
            j += 1;
        }
        if let Some(t) = type_tok {
            if !in_spans(test_spans, t.line) {
                impls.push(DetectorImpl {
                    type_name: t.text.clone(),
                    line: t.line,
                    col: t.col,
                });
            }
        }
        i = j;
    }
    impls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{scrub, test_spans, tokenize};

    fn toks(src: &str) -> Vec<Token> {
        tokenize(&scrub(src).text)
    }

    fn run(src: &str, class: &FileClass) -> Vec<Violation> {
        let tokens = toks(src);
        let spans = test_spans(&tokens);
        run_file_rules(&tokens, &spans, class)
    }

    fn output_class() -> FileClass {
        FileClass {
            output_scope: true,
            key_hygiene: true,
            ..FileClass::default()
        }
    }

    #[test]
    fn r1_flags_iteration_methods_and_for_loops() {
        let src = "use std::collections::HashMap;\n\
                   struct S { map: HashMap<String, u32> }\n\
                   fn f(s: &S) { for (k, v) in &s.map { emit(k, v); } }\n\
                   fn g(s: &S) { let _ = s.map.keys().count(); }\n";
        let v = run(src, &output_class());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "R1"));
        assert_eq!(v[0].line, 3);
        assert_eq!(v[1].line, 4);
    }

    #[test]
    fn r1_ignores_lookups_and_sorted_iteration() {
        let src = "use std::collections::HashMap;\n\
                   fn f(map: &HashMap<String, u32>) -> Option<u32> {\n\
                       map.get(\"k\").copied()\n\
                   }\n\
                   fn g(map: &HashMap<String, u32>) -> Vec<(String, u32)> {\n\
                       let mut rows: Vec<_> = map.iter().map(|(k, v)| (k.clone(), *v)).collect();\n\
                       rows.sort();\n\
                       rows\n\
                   }\n";
        let v = run(src, &output_class());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r1_only_applies_in_output_scope() {
        let src = "fn f(m: &std::collections::HashMap<u32, u32>) { for x in m { use_(x); } }";
        assert!(run(src, &FileClass::default()).is_empty());
        assert_eq!(run(src, &output_class()).len(), 1);
    }

    #[test]
    fn r2_flags_clocks_unless_allowlisted() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n\
                   fn g() { let t = SystemTime::now(); }\n";
        let v = run(src, &FileClass::default());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "R2"));
        let allowed = FileClass {
            timing_allowed: true,
            ..FileClass::default()
        };
        assert!(run(src, &allowed).is_empty());
    }

    #[test]
    fn r3_flags_spawn_shapes() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n\
                   fn g() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        let v = run(src, &FileClass::default());
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "R3"));
    }

    #[test]
    fn r4_flags_bare_unwrap_but_not_expect() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"invariant: set at accept\") }\n\
                   fn h(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        let class = FileClass {
            protocol_surface: true,
            ..FileClass::default()
        };
        let v = run(src, &class);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R4");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn r5_flags_truncating_casts_and_float_formatting_in_key_fns() {
        let src = "fn store_key(n: u64) -> String { format!(\"{}\", n as u32) }\n\
                   fn fingerprint(p: f64) -> String { format!(\"{p}\", p = p) }\n\
                   fn unrelated(p: f64, n: u64) -> String { format!(\"{p}:{}\", n as u32) }\n";
        let v = run(src, &output_class());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "R5"));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn r5_allows_bit_exact_key_material() {
        let src = "fn unit_key(canonical: &str) -> String {\n\
                       let mut h: u128 = 3;\n\
                       for b in canonical.as_bytes() { h ^= u128::from(*b); }\n\
                       format!(\"{h:032x}\")\n\
                   }\n\
                   fn noisy_key(p: f64) -> String { format!(\"{}\", p.to_bits()) }\n";
        let v = run(src, &output_class());
        // `p` is float-tracked and appears in the format span: the
        // heuristic flags it even through `.to_bits()` — that case is
        // what waivers document. Everything in `unit_key` is clean.
        assert!(v.iter().all(|v| v.line == 6), "{v:?}");
    }

    #[test]
    fn rules_skip_cfg_test_modules_and_test_files() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let x: Option<u32> = None; x.unwrap(); std::thread::spawn(|| {}); }\n}\n";
        let class = FileClass {
            protocol_surface: true,
            ..FileClass::default()
        };
        assert!(run(src, &class).is_empty());
        let test_file = FileClass {
            test_code: true,
            protocol_surface: true,
            ..FileClass::default()
        };
        let bare = "fn t(x: Option<u32>) { x.unwrap(); }";
        assert!(run(bare, &test_file).is_empty());
    }

    #[test]
    fn r6_collects_concrete_impls_and_skips_blankets() {
        let src = "impl Detector for CycleDetector {}\n\
                   impl crate::Detector for LowProbDetector {}\n\
                   impl<D: Detector + ?Sized> Detector for &D {}\n\
                   impl CycleDetector { fn inherent(&self) {} }\n\
                   impl Display for CycleDetector {}\n";
        let tokens = toks(src);
        let impls = detector_impls(&tokens, &[]);
        let names: Vec<&str> = impls.iter().map(|d| d.type_name.as_str()).collect();
        assert_eq!(names, ["CycleDetector", "LowProbDetector"], "{impls:?}");
        assert_eq!(impls[1].line, 2);
    }
}
