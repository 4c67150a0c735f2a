//! Finding emitters: human text, JSON lines, and SARIF 2.1.0.
//!
//! JSON is hand-rolled (same convention as `lss-netlist::json` and the
//! bench harness) so machine-readable output needs no external crates.

use std::fmt::Write as _;

use lss_ast::SourceMap;

use crate::diag::{Code, Finding};

/// Renders findings as human-readable lines, one per finding, with
/// supporting notes indented underneath.
pub fn to_text(findings: &[Finding]) -> String {
    to_text_located(findings, None)
}

/// Like [`to_text`], but findings that carry a source span get a
/// `--> file:line:col` locator line resolved through `sources`.
pub fn to_text_located(findings: &[Finding], sources: Option<&SourceMap>) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
        if let (Some(span), Some(map)) = (f.span, sources) {
            if !span.is_synthetic() {
                let _ = writeln!(out, "    --> {}", map.describe(span));
            }
        }
        for note in &f.related {
            let _ = writeln!(out, "    note: {note}");
        }
    }
    out
}

/// Renders findings as JSON lines: one object per finding per line.
/// Findings carrying a span include a `"span": [file, start, end]` triple
/// of raw byte offsets.
pub fn to_jsonl(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let related: Vec<String> = f.related.iter().map(|n| quote(n)).collect();
        let span = match f.span {
            Some(s) if !s.is_synthetic() => {
                format!(", \"span\": [{}, {}, {}]", s.file.0, s.start, s.end)
            }
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "{{\"code\": {}, \"severity\": {}, \"subject\": {}, \"message\": {}, \"related\": [{}]{span}}}",
            quote(f.code.id()),
            quote(f.severity.as_str()),
            quote(&f.subject),
            quote(&f.message),
            related.join(", ")
        );
    }
    out
}

/// Renders findings as a SARIF 2.1.0 log with one run.
///
/// Every diagnostic code appears in the rule table (so viewers can show
/// titles and help for clean runs too); each result carries the instance
/// path as a logical location's `fullyQualifiedName`.
pub fn to_sarif(findings: &[Finding]) -> String {
    to_sarif_located(findings, None)
}

/// Like [`to_sarif`], but findings with spans also carry a
/// `physicalLocation` (artifact uri + region) resolved through `sources`.
pub fn to_sarif_located(findings: &[Finding], sources: Option<&SourceMap>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"lssc\",\n");
    out.push_str("          \"informationUri\": \"https://example.org/liberty-lss\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, code) in Code::ALL.iter().enumerate() {
        let comma = if i + 1 == Code::ALL.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "            {{\"id\": {}, \"name\": {}, \"shortDescription\": {{\"text\": {}}}, \
             \"help\": {{\"text\": {}}}, \"defaultConfiguration\": {{\"level\": {}}}}}{comma}",
            quote(code.id()),
            quote(code.name()),
            quote(code.title()),
            quote(code.help()),
            quote(code.default_severity().sarif_level()),
        );
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 == findings.len() { "" } else { "," };
        let rule_index = Code::ALL.iter().position(|&c| c == f.code).unwrap();
        let mut text = f.message.clone();
        for note in &f.related {
            text.push_str("; ");
            text.push_str(note);
        }
        let physical = match (f.span, sources) {
            (Some(span), Some(map)) if !span.is_synthetic() => match map.get(span.file) {
                Some(file) => {
                    let (line, col) = file.line_col(span.start);
                    format!(
                        ", \"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
                         \"region\": {{\"startLine\": {line}, \"startColumn\": {col}, \
                         \"byteOffset\": {}, \"byteLength\": {}}}}}",
                        quote(&file.name),
                        span.start,
                        span.end.saturating_sub(span.start),
                    )
                }
                None => String::new(),
            },
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "        {{\"ruleId\": {}, \"ruleIndex\": {rule_index}, \"level\": {}, \
             \"message\": {{\"text\": {}}}, \"locations\": [{{\"logicalLocations\": \
             [{{\"fullyQualifiedName\": {}}}]{physical}}}]}}{comma}",
            quote(f.code.id()),
            quote(f.severity.sarif_level()),
            quote(&text),
            quote(&f.subject),
        );
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// JSON string literal with escaping.
fn quote(s: &str) -> String {
    format!("\"{}\"", lss_netlist::json::escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;

    fn sample() -> Vec<Finding> {
        vec![
            Finding::new(Code::CombCycle, "a", "cycle a -> b -> a").with_note("break at b.in"),
            Finding::new(Code::UnconnectedInput, "x.in", "never \"driven\""),
        ]
    }

    #[test]
    fn text_includes_notes() {
        let text = to_text(&sample());
        assert!(text.contains("error[LSS101] a: cycle a -> b -> a"));
        assert!(text.contains("    note: break at b.in"));
        assert!(text.contains("warning[LSS201]"));
    }

    #[test]
    fn jsonl_is_one_object_per_line_with_escaping() {
        let jsonl = to_jsonl(&sample());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"code\": \"LSS101\""));
        assert!(lines[1].contains("never \\\"driven\\\""));
    }

    #[test]
    fn sarif_has_rules_and_results() {
        let sarif = to_sarif(&sample());
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        for code in Code::ALL {
            assert!(sarif.contains(code.id()), "rule table misses {code}");
        }
        assert!(sarif.contains("\"fullyQualifiedName\": \"x.in\""));
        assert!(sarif.contains("\"level\": \"error\""));
    }

    #[test]
    fn sarif_for_clean_run_still_lists_rules() {
        let sarif = to_sarif(&[]);
        assert!(sarif.contains("\"results\": [\n      ]"));
        assert!(sarif.contains("LSS303"));
    }
}
