//! Determinism auditor for the even-cycle workspace.
//!
//! Every guarantee this reproduction ships — byte-identical reports
//! across backends and worker counts, zero-re-execution replay from
//! content-addressed stores, result-invariant telemetry — is a
//! *determinism* invariant. This crate enforces those invariants at
//! the source level: a std-only lexer ([`lexer`]) scrubs comments and
//! literals out of each `.rs` file, a rule catalog ([`rules`],
//! R1–R6) token-scans the remainder, and this module stitches the
//! per-file passes into a workspace audit with waiver handling.
//!
//! Waivers are inline comments of the form
//! `// audit:allow(<rule-id>): <reason>` (ids comma-separated; the
//! reason is mandatory). A waiver written on its own line covers the
//! next code line; a trailing waiver covers its own line. A waiver
//! that matches no violation is itself an error — **stale-waiver
//! detection** — so the waiver baseline can only shrink.
//!
//! Fixture files (the auditor's own test corpus) start with a
//! `// audit:fixture(as: <pretend-path>)` directive: during workspace
//! walks any file containing that directive is skipped outright, and
//! when such a file is passed explicitly on the command line it is
//! audited *as if* it lived at the pretend path, exercising the real
//! classifier.

pub mod lexer;
pub mod report;
pub mod rules;

use rules::{DetectorImpl, FileClass, Violation};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One reportable problem: a rule violation, a stale waiver, or a
/// malformed waiver/directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    pub line: usize,
    pub col: usize,
    /// `R1`–`R6`, `stale-waiver`, or `bad-waiver`.
    pub rule: String,
    pub message: String,
}

impl Diagnostic {
    /// The canonical one-line rendering: `file:line:col [rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{} [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// A violation that an in-tree waiver acknowledged (reported for
/// transparency, not failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaivedViolation {
    pub path: String,
    pub line: usize,
    pub rule: String,
    pub reason: String,
}

/// The result of one audit run.
#[derive(Debug, Default)]
pub struct AuditOutcome {
    pub files_scanned: usize,
    /// Fixture files skipped during the workspace walk.
    pub fixtures_skipped: usize,
    /// Everything that fails the audit, sorted by (path, line, col).
    pub diagnostics: Vec<Diagnostic>,
    /// Violations acknowledged by a waiver, same order.
    pub waived: Vec<WaivedViolation>,
}

impl AuditOutcome {
    /// Whether the audited tree passes (no violations, no stale or
    /// malformed waivers).
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Counts split by diagnostic kind: (violations, stale, bad).
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut v = 0;
        let mut stale = 0;
        let mut bad = 0;
        for d in &self.diagnostics {
            match d.rule.as_str() {
                "stale-waiver" => stale += 1,
                "bad-waiver" => bad += 1,
                _ => v += 1,
            }
        }
        (v, stale, bad)
    }
}

/// Classifies a workspace-relative path (forward slashes) onto the
/// rule surfaces. This is the single source of truth for the
/// allowlists documented in the README's rule catalog.
pub fn classify(rel: &str) -> FileClass {
    let has_component = |name: &str| rel.split('/').any(|c| c == name);
    let starts = |prefixes: &[&str]| prefixes.iter().any(|p| rel.starts_with(p));
    FileClass {
        test_code: has_component("tests") || has_component("benches"),
        // Files whose bytes reach reports, stores, traces, or wire
        // replies — where iteration order becomes output order.
        output_scope: starts(&[
            "src/engine/",
            "src/serve.rs",
            "src/scenario.rs",
            "src/stream.rs",
            "src/suite.rs",
            "src/registry.rs",
            "crates/graph/src/serialize.rs",
            "crates/graph/src/spec.rs",
            "crates/graph/src/stream.rs",
            "crates/telemetry/src/",
        ]),
        // The layers allowed to read wall clocks: work distribution,
        // scheduling caps, the server, CLI drivers, telemetry, bench,
        // the simulator's worker pool (busy/idle accounting), and its
        // superstep core (the `sim.run` span and its phase timers).
        timing_allowed: starts(&[
            "src/engine/pool.rs",
            "src/engine/schedule.rs",
            "src/serve.rs",
            "src/bin/",
            "crates/telemetry/",
            "crates/bench/",
            "crates/congest/src/pool.rs",
            "crates/congest/src/core.rs",
        ]),
        // The layers allowed to create threads: the engine's sweep
        // pool, the server, CLI drivers, and the simulator's persistent
        // superstep pool — and nothing else in the simulator.
        spawn_allowed: starts(&[
            "src/engine/pool.rs",
            "src/serve.rs",
            "src/bin/",
            "crates/congest/src/pool.rs",
        ]),
        protocol_surface: rel == "src/serve.rs",
        // The vendored compat shims reproduce upstream rand algorithms
        // (ChaCha is all deliberate u32 arithmetic); everything else
        // answers for its key hygiene.
        key_hygiene: !rel.starts_with("crates/compat/"),
    }
}

/// A parsed waiver comment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Waiver {
    rule_ids: Vec<String>,
    reason: String,
    /// Line/col of the comment itself (where stale errors point).
    line: usize,
    col: usize,
    /// The code line this waiver covers.
    target_line: Option<usize>,
}

const ALLOW_PREFIX: &str = "audit:allow(";
const FIXTURE_PREFIX: &str = "audit:fixture(";

/// What a comment means to the auditor.
enum Directive {
    Allow {
        rule_ids: Vec<String>,
        reason: String,
    },
    Fixture(String),
    Bad(String),
    None,
}

fn parse_directive(text: &str) -> Directive {
    // Only comments that *begin* with a directive count, so prose that
    // mentions the syntax mid-sentence is inert. Doc-comment markers
    // (`///`, `//!`) are part of the text and stripped here.
    let t = text
        .trim_start_matches(|c: char| c == '/' || c == '!' || c.is_whitespace())
        .trim_end();
    if let Some(rest) = t.strip_prefix(ALLOW_PREFIX) {
        let Some(close) = rest.find(')') else {
            return Directive::Bad("waiver is missing its closing parenthesis".to_string());
        };
        let ids: Vec<String> = rest[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .collect();
        if ids.iter().any(|id| !rules::known_rule(id)) {
            return Directive::Bad(format!(
                "waiver names an unknown rule id in ({}); known ids are R1..R6",
                &rest[..close]
            ));
        }
        let after = rest[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix(':') else {
            return Directive::Bad(
                "waiver is missing `: reason` after the rule list — every waiver must \
                 say why the violation is acceptable"
                    .to_string(),
            );
        };
        let reason = reason.trim();
        if reason.is_empty() {
            return Directive::Bad(
                "waiver has an empty reason — every waiver must say why the violation \
                 is acceptable"
                    .to_string(),
            );
        }
        Directive::Allow {
            rule_ids: ids,
            reason: reason.to_string(),
        }
    } else if let Some(rest) = t.strip_prefix(FIXTURE_PREFIX) {
        let Some(close) = rest.find(')') else {
            return Directive::Bad("fixture directive is missing its closing parenthesis".into());
        };
        let inner = rest[..close].trim();
        let Some(path) = inner.strip_prefix("as:") else {
            return Directive::Bad(
                "fixture directive must read `as: <pretend-path>` so the file is \
                 classified like a real workspace file"
                    .to_string(),
            );
        };
        Directive::Fixture(path.trim().to_string())
    } else {
        Directive::None
    }
}

/// Per-file audit state before cross-file checks.
struct FileAudit {
    rel: String,
    violations: Vec<Violation>,
    waivers: Vec<Waiver>,
    bad: Vec<Diagnostic>,
    impls: Vec<DetectorImpl>,
    /// A well-formed fixture directive's pretend path, if any. The
    /// detection is comment-anchored — a file that merely *mentions*
    /// the directive syntax in prose or a string literal is not a
    /// fixture.
    fixture_as: Option<String>,
}

/// Whether to honor fixture directives: explicit CLI file arguments
/// reclassify; workspace walks skip fixture files entirely.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FixtureMode {
    Reclassify,
    Ignore,
}

fn audit_source(rel: &str, source: &str, mode: FixtureMode) -> FileAudit {
    let scrubbed = lexer::scrub(source);
    let code = lexer::code_lines(&scrubbed.text);
    let mut waivers = Vec::new();
    let mut bad = Vec::new();
    let mut fixture_as = None;
    for c in &scrubbed.comments {
        match parse_directive(&c.text) {
            Directive::Allow { rule_ids, reason } => {
                let target_line = if c.own_line {
                    // A standalone waiver covers the next code line.
                    (c.line..code.len())
                        .find(|&l| code.get(l).copied().unwrap_or(false))
                        .map(|l| l + 1)
                } else {
                    Some(c.line)
                };
                waivers.push(Waiver {
                    rule_ids,
                    reason,
                    line: c.line,
                    col: c.col,
                    target_line,
                });
            }
            Directive::Bad(message) => bad.push(Diagnostic {
                path: rel.to_string(),
                line: c.line,
                col: c.col,
                rule: "bad-waiver".to_string(),
                message,
            }),
            Directive::Fixture(pretend) => {
                if fixture_as.is_none() {
                    fixture_as = Some(pretend);
                }
            }
            Directive::None => {}
        }
    }

    let class = match (&fixture_as, mode) {
        (Some(pretend), FixtureMode::Reclassify) => classify(pretend),
        _ => classify(rel),
    };
    let tokens = lexer::tokenize(&scrubbed.text);
    let spans = lexer::test_spans(&tokens);
    let violations = rules::run_file_rules(&tokens, &spans, &class);
    let impls = if class.test_code {
        Vec::new()
    } else {
        rules::detector_impls(&tokens, &spans)
    };

    FileAudit {
        rel: rel.to_string(),
        violations,
        waivers,
        bad,
        impls,
        fixture_as,
    }
}

/// Applies `audit.waivers` to `audit.violations`: matched violations
/// move to `waived`; waiver ids that match nothing become stale-waiver
/// diagnostics. Returns (diagnostics, waived).
fn apply_waivers(audit: FileAudit) -> (Vec<Diagnostic>, Vec<WaivedViolation>) {
    let FileAudit {
        rel,
        mut violations,
        waivers,
        mut bad,
        ..
    } = audit;
    let mut waived = Vec::new();
    for w in &waivers {
        for id in &w.rule_ids {
            let before = violations.len();
            violations.retain(|v| {
                let hit = v.rule == id && Some(v.line) == w.target_line;
                if hit {
                    waived.push(WaivedViolation {
                        path: rel.clone(),
                        line: v.line,
                        rule: id.clone(),
                        reason: w.reason.clone(),
                    });
                }
                !hit
            });
            if violations.len() == before {
                bad.push(Diagnostic {
                    path: rel.clone(),
                    line: w.line,
                    col: w.col,
                    rule: "stale-waiver".to_string(),
                    message: format!(
                        "waiver for {id} matches no violation on its target line \
                         ({}): the code was fixed or moved — delete the waiver",
                        w.target_line
                            .map_or("<none>".to_string(), |l| l.to_string())
                    ),
                });
            }
        }
    }
    let mut diagnostics = bad;
    diagnostics.extend(violations.into_iter().map(|v| Diagnostic {
        path: rel.clone(),
        line: v.line,
        col: v.col,
        rule: v.rule.to_string(),
        message: v.message,
    }));
    diagnostics.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    (diagnostics, waived)
}

/// The identifier set of `src/registry.rs`, for R6. `None` when the
/// root has no registry file (then R6 has nothing to check against).
fn registry_idents(root: &Path) -> Option<BTreeSet<String>> {
    let source = fs::read_to_string(root.join("src/registry.rs")).ok()?;
    let tokens = lexer::tokenize(&lexer::scrub(&source).text);
    Some(
        tokens
            .into_iter()
            .filter(|t| t.word)
            .map(|t| t.text)
            .collect(),
    )
}

/// Appends R6 violations for detector impls absent from the registry.
fn check_registry(audits: &mut [FileAudit], registry: Option<&BTreeSet<String>>) {
    let Some(registry) = registry else {
        return;
    };
    for audit in audits.iter_mut() {
        for imp in &audit.impls {
            if !registry.contains(&imp.type_name) {
                audit.violations.push(Violation {
                    rule: "R6",
                    line: imp.line,
                    col: imp.col,
                    message: format!(
                        "`impl Detector for {}` is not registered in src/registry.rs: \
                         unregistered detectors escape the conformance suite and the \
                         sweep grid",
                        imp.type_name
                    ),
                });
            }
        }
    }
}

/// Recursively collects `.rs` files under `root/{src,crates,tests}`,
/// skipping `target/` and hidden directories, in sorted order.
fn walk_rs(root: &Path) -> io::Result<Vec<PathBuf>> {
    fn recurse(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if path.is_dir() {
                recurse(&path, out)?;
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    for sub in ["src", "crates", "tests"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            recurse(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn to_rel(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn finish(mut audits: Vec<FileAudit>, root: &Path, outcome: &mut AuditOutcome) {
    let registry = registry_idents(root);
    check_registry(&mut audits, registry.as_ref());
    for audit in audits {
        let (diagnostics, waived) = apply_waivers(audit);
        outcome.diagnostics.extend(diagnostics);
        outcome.waived.extend(waived);
    }
}

/// Audits every workspace source file under `root`. Files containing
/// a fixture directive are skipped (they are negative test corpora,
/// not workspace code).
pub fn audit_workspace(root: &Path) -> io::Result<AuditOutcome> {
    let mut outcome = AuditOutcome::default();
    let mut audits = Vec::new();
    for path in walk_rs(root)? {
        let source = fs::read_to_string(&path)?;
        let audit = audit_source(&to_rel(root, &path), &source, FixtureMode::Ignore);
        if audit.fixture_as.is_some() {
            // Negative test corpora, not workspace code. (A *malformed*
            // fixture directive does not skip: it surfaces as a
            // bad-waiver diagnostic, loudly.)
            outcome.fixtures_skipped += 1;
            continue;
        }
        outcome.files_scanned += 1;
        audits.push(audit);
    }
    finish(audits, root, &mut outcome);
    Ok(outcome)
}

/// Audits exactly `files`. A `audit:fixture(as: <path>)` directive
/// reclassifies the file as if it lived at `<path>` — this is how the
/// negative fixtures exercise scoped rules from inside the auditor's
/// own test tree. R6 still resolves against `root`'s registry.
pub fn audit_files(root: &Path, files: &[PathBuf]) -> io::Result<AuditOutcome> {
    let mut outcome = AuditOutcome::default();
    let mut audits = Vec::new();
    for path in files {
        let source = fs::read_to_string(path)?;
        outcome.files_scanned += 1;
        audits.push(audit_source(
            &to_rel(root, path),
            &source,
            FixtureMode::Reclassify,
        ));
    }
    finish(audits, root, &mut outcome);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_documented_surfaces() {
        let engine = classify("src/engine/mod.rs");
        assert!(engine.output_scope && !engine.timing_allowed && !engine.spawn_allowed);
        let pool = classify("src/engine/pool.rs");
        assert!(pool.timing_allowed && pool.spawn_allowed);
        let serve = classify("src/serve.rs");
        assert!(serve.protocol_surface && serve.timing_allowed && serve.spawn_allowed);
        let graph = classify("crates/graph/src/spec.rs");
        assert!(graph.output_scope && !graph.timing_allowed);
        let detector = classify("crates/core/src/randomized.rs");
        assert!(!detector.output_scope && !detector.timing_allowed && !detector.spawn_allowed);
        let sim_pool = classify("crates/congest/src/pool.rs");
        assert!(sim_pool.timing_allowed && sim_pool.spawn_allowed);
        // The superstep core times its phases but spawns nothing.
        let sim_core = classify("crates/congest/src/core.rs");
        assert!(sim_core.timing_allowed && !sim_core.spawn_allowed);
        // The rest of the simulator may neither spawn nor read clocks
        // without a reviewed waiver.
        for rel in [
            "crates/congest/src/executor.rs",
            "crates/congest/src/parallel.rs",
            "crates/congest/src/backend.rs",
        ] {
            let c = classify(rel);
            assert!(!c.spawn_allowed && !c.timing_allowed, "{rel}");
        }
        let compat = classify("crates/compat/rand_chacha/src/lib.rs");
        assert!(!compat.key_hygiene);
        let test = classify("crates/telemetry/tests/noop_overhead.rs");
        assert!(test.test_code);
    }

    #[test]
    fn waiver_parsing_accepts_good_and_rejects_bad() {
        match parse_directive(" audit:allow(R1): counting only, order-free") {
            Directive::Allow { rule_ids, reason } => {
                assert_eq!(rule_ids, ["R1"]);
                assert_eq!(reason, "counting only, order-free");
            }
            _ => panic!("good waiver rejected"),
        }
        match parse_directive(" audit:allow(R2, R3): scoped simulation threads") {
            Directive::Allow { rule_ids, .. } => assert_eq!(rule_ids, ["R2", "R3"]),
            _ => panic!("multi-id waiver rejected"),
        }
        assert!(matches!(
            parse_directive(" audit:allow(R9): nope"),
            Directive::Bad(_)
        ));
        assert!(matches!(
            parse_directive(" audit:allow(R1)"),
            Directive::Bad(_)
        ));
        assert!(matches!(
            parse_directive(" audit:allow(R1):   "),
            Directive::Bad(_)
        ));
        // Prose that merely mentions the syntax is inert.
        assert!(matches!(
            parse_directive(" waivers look like audit:allow(R1): reason"),
            Directive::None
        ));
    }

    #[test]
    fn trailing_waiver_covers_its_line_and_standalone_covers_next() {
        let src = "fn f(m: &std::collections::HashMap<u32, u32>) {\n\
                   for x in m { use_(x); } // audit:allow(R1): documented\n\
                   // audit:allow(R1): also documented\n\
                   for y in m { use_(y); }\n\
                   }\n";
        let audit = audit_source("src/engine/x.rs", src, FixtureMode::Ignore);
        assert_eq!(audit.violations.len(), 2);
        let (diags, waived) = apply_waivers(audit);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(waived.len(), 2);
    }

    #[test]
    fn unmatched_waiver_goes_stale() {
        let src = "fn f() {} // audit:allow(R2): nothing here times anything\n";
        let audit = audit_source("src/engine/x.rs", src, FixtureMode::Ignore);
        let (diags, waived) = apply_waivers(audit);
        assert!(waived.is_empty());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "stale-waiver");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn multi_id_waiver_is_stale_per_unused_id() {
        let src = "// audit:allow(R2, R3): only the clock is real\n\
                   fn f() { let t = std::time::Instant::now(); }\n";
        let audit = audit_source("crates/core/src/x.rs", src, FixtureMode::Ignore);
        let (diags, waived) = apply_waivers(audit);
        assert_eq!(waived.len(), 1);
        assert_eq!(waived[0].rule, "R2");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "stale-waiver");
        assert!(diags[0].message.contains("R3"), "{diags:?}");
    }
}
