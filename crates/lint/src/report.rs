//! Rendering: the human text report and the machine `--json` report.

use std::io::Write;

use crate::{Finding, WorkspaceOutcome};

/// Writes `s` to stdout, swallowing broken pipes (`cruz-lint ... | head`
/// must not panic).
pub fn out(s: &str) {
    let _ = std::io::stdout().write_all(s.as_bytes()); // cruz-lint: allow(swallowed-error)
}

/// One finding in `path:line: rule: message` form (clickable in editors).
pub fn render_finding(f: &Finding) -> String {
    format!("{}:{}: {}: {}", f.path, f.line, f.rule.name(), f.message)
}

/// The human report: findings, stale baseline entries, one summary line.
pub fn render_text(o: &WorkspaceOutcome) -> String {
    let mut s = String::new();
    for f in &o.kept {
        s.push_str(&render_finding(f));
        s.push('\n');
    }
    for e in &o.stale {
        s.push_str(&format!(
            "lint-baseline.txt: stale entry `{e}` matches no finding — remove it\n"
        ));
    }
    s.push_str(&format!(
        "cruz-lint: {} finding(s), {} baselined, {} stale, {} file(s) scanned\n",
        o.kept.len(),
        o.baselined,
        o.stale.len(),
        o.scanned
    ));
    s
}

/// The machine report consumed by CI (`lint-report.json`):
/// `{"findings": [...], "stale": [...], "summary": {...}}`. The summary
/// ends with `src_lines`, one `"<src dir>": <non-test lines>` entry per
/// line, so a diff of the committed report shows each crate's line change.
pub fn to_json(o: &WorkspaceOutcome) -> String {
    let mut s = String::from("{\n  \"findings\": [");
    for (i, f) in o.kept.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_str(&f.path),
            f.line,
            json_str(f.rule.name()),
            json_str(&f.message)
        ));
    }
    if !o.kept.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"stale\": [");
    for (i, e) in o.stale.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    {}", json_str(e)));
    }
    if !o.stale.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!(
        "],\n  \"summary\": {{\"findings\": {}, \"baselined\": {}, \"stale\": {}, \"scanned\": {}, \"src_lines\": {{",
        o.kept.len(),
        o.baselined,
        o.stale.len(),
        o.scanned
    ));
    for (i, (dir, lines)) in o.src_lines.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    {}: {lines}", json_str(dir)));
    }
    if !o.src_lines.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("}}\n}\n");
    s
}

/// JSON string literal with the escapes the report can actually contain
/// (quotes, backslashes, control characters from source excerpts).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn outcome() -> WorkspaceOutcome {
        WorkspaceOutcome {
            raw: Vec::new(),
            kept: vec![Finding {
                path: "crates/a/src/x.rs".to_string(),
                line: 3,
                rule: Rule::WallClock,
                message: "uses `Instant::now` — \"wall\" time\tbreaks replay".to_string(),
            }],
            baselined: 2,
            stale: vec!["b.rs:9:silent-unwrap".to_string()],
            scanned: 41,
            src_lines: [("crates/a/src".to_string(), 120), ("src".to_string(), 7)].into(),
        }
    }

    #[test]
    fn text_report_lists_findings_stale_and_summary() {
        let t = render_text(&outcome());
        assert!(t.contains("crates/a/src/x.rs:3: wall-clock: uses `Instant::now`"));
        assert!(t.contains("stale entry `b.rs:9:silent-unwrap`"));
        assert!(t.contains("cruz-lint: 1 finding(s), 2 baselined, 1 stale, 41 file(s) scanned"));
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let j = to_json(&outcome());
        assert!(j.contains("\"rule\": \"wall-clock\""));
        assert!(j.contains("\\\"wall\\\" time\\tbreaks replay"));
        // No raw control characters or unescaped quotes inside strings.
        assert!(!j.contains('\t'));
    }

    #[test]
    fn json_report_shape_is_pinned() {
        let mut o = outcome();
        o.kept[0].message = "m".to_string();
        assert_eq!(
            to_json(&o),
            r#"{
  "findings": [
    {"path": "crates/a/src/x.rs", "line": 3, "rule": "wall-clock", "message": "m"}
  ],
  "stale": [
    "b.rs:9:silent-unwrap"
  ],
  "summary": {"findings": 1, "baselined": 2, "stale": 1, "scanned": 41, "src_lines": {
    "crates/a/src": 120,
    "src": 7
  }}
}
"#
        );
        o.kept.clear();
        o.stale.clear();
        o.src_lines.clear();
        assert_eq!(
            to_json(&o),
            "{\n  \"findings\": [],\n  \"stale\": [],\n  \"summary\": {\"findings\": 0, \
             \"baselined\": 2, \"stale\": 0, \"scanned\": 41, \"src_lines\": {}}\n}\n"
        );
    }
}
