//! Flat-JSON rendering of an [`AuditOutcome`],
//! matching the house style used by the sweep reports and the serve
//! protocol: one object, scalar fields first, arrays of flat objects,
//! keys in a fixed order, no pretty-printing — so two identical audits
//! render byte-identical reports.

use crate::AuditOutcome;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders the outcome as one line of flat JSON.
pub fn render_json(outcome: &AuditOutcome) -> String {
    let (violations, stale, bad) = outcome.counts();
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"kind\":\"audit-report\",\"version\":1,\"files_scanned\":{},\
         \"fixtures_skipped\":{},\"violations\":{},\"stale_waivers\":{},\
         \"bad_waivers\":{},\"waived\":{},\"clean\":{}",
        outcome.files_scanned,
        outcome.fixtures_skipped,
        violations,
        stale,
        bad,
        outcome.waived.len(),
        outcome.clean(),
    ));
    out.push_str(",\"diagnostics\":[");
    for (i, d) in outcome.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&d.path),
            d.line,
            d.col,
            json_escape(&d.rule),
            json_escape(&d.message),
        ));
    }
    out.push_str("],\"waivers\":[");
    for (i, w) in outcome.waived.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"reason\":\"{}\"}}",
            json_escape(&w.path),
            w.line,
            json_escape(&w.rule),
            json_escape(&w.reason),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Diagnostic, WaivedViolation};

    #[test]
    fn report_is_flat_single_line_and_escaped() {
        let outcome = AuditOutcome {
            files_scanned: 2,
            fixtures_skipped: 1,
            diagnostics: vec![Diagnostic {
                path: "src/engine/mod.rs".to_string(),
                line: 3,
                col: 7,
                rule: "R1".to_string(),
                message: "iteration over `pending` with \"quotes\"".to_string(),
            }],
            waived: vec![WaivedViolation {
                path: "src/engine/cache.rs".to_string(),
                line: 171,
                rule: "R1".to_string(),
                reason: "counting only".to_string(),
            }],
        };
        let json = render_json(&outcome);
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"kind\":\"audit-report\",\"version\":1,"));
        assert!(json.contains("\"violations\":1"));
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"waivers\":[{\"path\":\"src/engine/cache.rs\""));
    }

    #[test]
    fn empty_outcome_is_clean() {
        let outcome = AuditOutcome::default();
        let json = render_json(&outcome);
        assert!(json.contains("\"clean\":true"));
        assert!(json.ends_with("\"diagnostics\":[],\"waivers\":[]}"));
    }
}
