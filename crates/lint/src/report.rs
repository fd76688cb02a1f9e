//! Diagnostic aggregation, text/JSON/SARIF rendering, and the baseline
//! ratchet (`lint-baseline.json` may only shrink).

use crate::rules::{Diagnostic, RULES};
use std::collections::BTreeMap;

/// The outcome of a full lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Non-waived violations, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Violations suppressed by a reasoned waiver (kept for the report —
    /// the waiver inventory is part of the audit trail).
    pub waived: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when there is nothing to fail CI over.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Sorts both lists into the stable output order.
    pub fn finish(&mut self) {
        let key = |d: &Diagnostic| (d.file.clone(), d.line, d.rule);
        self.diagnostics.sort_by_key(key);
        self.waived.sort_by_key(key);
    }

    /// Human-readable rendering: one `file:line: [rule] message` per
    /// finding, then a summary line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                d.file, d.line, d.rule, d.message
            ));
        }
        if !self.waived.is_empty() {
            out.push_str(&format!("{} waived finding(s):\n", self.waived.len()));
            for d in &self.waived {
                out.push_str(&format!("  {}:{}: [{}] (waived)\n", d.file, d.line, d.rule));
            }
        }
        out.push_str(&format!(
            "pv-lint: {} file(s) scanned, {} violation(s), {} waived\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.waived.len()
        ));
        out
    }

    /// Machine-readable rendering (`--format json`): a single stable-keyed
    /// object. Hand-rolled — the workspace vendors no serde.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"rules\": [");
        for (i, r) in RULES.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"description\": {}}}",
                json_str(r.name),
                json_str(r.description)
            ));
        }
        out.push_str("],\n  \"diagnostics\": [");
        push_diags(&mut out, &self.diagnostics);
        out.push_str("],\n  \"waived\": [");
        push_diags(&mut out, &self.waived);
        out.push_str(&format!(
            "],\n  \"summary\": {{\"files_scanned\": {}, \"violations\": {}, \"waived\": {}}}\n}}\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.waived.len()
        ));
        out
    }

    /// SARIF 2.1.0 rendering (`--format sarif`): one run, the rule registry
    /// as `tool.driver.rules`, active findings as `error` results, waived
    /// findings as suppressed (`suppressions: [{kind: "inSource"}]`) `note`
    /// results — so code-scanning UIs show the waiver inventory without
    /// failing on it.
    pub fn to_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"version\": \"2.1.0\",\n  \"$schema\": \
             \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"runs\": [{\n    \
             \"tool\": {\"driver\": {\"name\": \"pv-lint\", \"rules\": [",
        );
        for (i, r) in RULES.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
                json_str(r.name),
                json_str(r.description)
            ));
        }
        out.push_str("]}},\n    \"results\": [");
        let mut first = true;
        for (diags, level, suppressed) in [
            (&self.diagnostics, "error", false),
            (&self.waived, "note", true),
        ] {
            for d in diags.iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "\n      {{\"ruleId\": {}, \"level\": \"{level}\", \"message\": {{\"text\": \
                     {}}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                     {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]{}}}",
                    json_str(d.rule),
                    json_str(&d.message),
                    json_str(&d.file),
                    d.line,
                    if suppressed {
                        ", \"suppressions\": [{\"kind\": \"inSource\"}]"
                    } else {
                        ""
                    }
                ));
            }
        }
        if !first {
            out.push_str("\n    ");
        }
        out.push_str("]\n  }]\n}\n");
        out
    }
}

/// Per-rule `(active, waived)` counts — the unit of the CI ratchet. The
/// committed `lint-baseline.json` records the accepted state; a run whose
/// counts *grow* for any rule fails, a run that shrinks them is invited to
/// re-write the baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Rule name → (active count, waived count).
    pub rules: BTreeMap<String, (u64, u64)>,
}

impl Baseline {
    /// Counts the current report into baseline form.
    pub fn from_report(report: &LintReport) -> Baseline {
        let mut rules: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for d in &report.diagnostics {
            rules.entry(d.rule.to_string()).or_default().0 += 1;
        }
        for d in &report.waived {
            rules.entry(d.rule.to_string()).or_default().1 += 1;
        }
        Baseline { rules }
    }

    /// The committed JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"rules\": {");
        for (i, (name, (active, waived))) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{ \"active\": {active}, \"waived\": {waived} }}",
                json_str(name)
            ));
        }
        if !self.rules.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses the JSON form written by [`Baseline::to_json`]. Forgiving
    /// scanner (no serde in the workspace): any `"name": {"active": N,
    /// "waived": M}` shape is picked up, the rest is ignored.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut rules = BTreeMap::new();
        let bytes = text.as_bytes();
        let mut i = 0usize;
        // Tokenize into strings, numbers, and single punctuation bytes.
        let mut toks: Vec<(u8, String)> = Vec::new(); // (kind: s/n/p, text)
        while i < bytes.len() {
            match bytes[i] {
                b'"' => {
                    let start = i + 1;
                    let mut j = start;
                    while j < bytes.len() && bytes[j] != b'"' {
                        if bytes[j] == b'\\' {
                            j += 1;
                        }
                        j += 1;
                    }
                    if j >= bytes.len() {
                        return Err("unterminated string in baseline".to_string());
                    }
                    toks.push((b's', text[start..j].to_string()));
                    i = j + 1;
                }
                b'0'..=b'9' => {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    toks.push((b'n', text[start..i].to_string()));
                }
                b'{' | b'}' | b':' | b',' | b'[' | b']' => {
                    toks.push((b'p', (bytes[i] as char).to_string()));
                    i += 1;
                }
                _ => i += 1, // whitespace and anything exotic
            }
        }
        let num =
            |t: &(u8, String)| -> Option<u64> { (t.0 == b'n').then(|| t.1.parse().ok()).flatten() };
        let mut k = 0usize;
        while k + 10 < toks.len() {
            let w = &toks[k..k + 11];
            let shape = w[0].0 == b's'
                && w[1].1 == ":"
                && w[2].1 == "{"
                && w[3].1 == "active"
                && w[4].1 == ":"
                && w[5].0 == b'n'
                && w[6].1 == ","
                && w[7].1 == "waived"
                && w[8].1 == ":"
                && w[9].0 == b'n'
                && w[10].1 == "}";
            if shape {
                let (Some(active), Some(waived)) = (num(&w[5]), num(&w[9])) else {
                    return Err(format!("bad counts for rule {:?}", w[0].1));
                };
                rules.insert(w[0].1.clone(), (active, waived));
                k += 11;
            } else {
                k += 1;
            }
        }
        Ok(Baseline { rules })
    }

    /// The ratchet: messages for every rule whose counts in `current`
    /// exceed this baseline (rules absent here count as zero — a new rule
    /// must enter clean). Empty ⇒ the ratchet holds.
    pub fn regressions(&self, current: &Baseline) -> Vec<String> {
        let mut out = Vec::new();
        for (name, &(active, waived)) in &current.rules {
            let &(base_active, base_waived) = self.rules.get(name).unwrap_or(&(0, 0));
            if active > base_active {
                out.push(format!(
                    "{name}: {active} active violation(s), baseline allows {base_active}"
                ));
            }
            if waived > base_waived {
                out.push(format!(
                    "{name}: {waived} waived finding(s), baseline allows {base_waived} — \
                     shrink the new waiver or re-baseline deliberately"
                ));
            }
        }
        out
    }
}

fn push_diags(out: &mut String, diags: &[Diagnostic]) {
    for (i, d) in diags.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str(&format!(
            "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
            json_str(d.rule),
            json_str(&d.file),
            d.line,
            json_str(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
}

/// Escapes a string for JSON.
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

    #[test]
    fn json_is_escaped_and_summarised() {
        let mut report = LintReport {
            diagnostics: vec![Diagnostic {
                rule: "hot-path-no-panic",
                file: "a/b.rs".to_string(),
                line: 3,
                message: "say \"no\"\n".to_string(),
            }],
            waived: Vec::new(),
            files_scanned: 1,
        };
        report.finish();
        let json = report.to_json();
        assert!(json.contains("\\\"no\\\"\\n"));
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"version\": 1"));
        assert!(!report.clean());
        assert!(report.to_text().contains("a/b.rs:3: [hot-path-no-panic]"));
    }

    #[test]
    fn sarif_has_results_and_suppressions() {
        let mut report = LintReport {
            diagnostics: vec![Diagnostic {
                rule: "hot-path-no-panic",
                file: "crates/geom/src/dist.rs".to_string(),
                line: 42,
                message: "indexing".to_string(),
            }],
            waived: vec![Diagnostic {
                rule: "hot-path-no-alloc",
                file: "crates/core/src/prob.rs".to_string(),
                line: 7,
                message: "unwrap".to_string(),
            }],
            files_scanned: 2,
        };
        report.finish();
        let sarif = report.to_sarif();
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"name\": \"pv-lint\""));
        assert!(sarif.contains("\"uri\": \"crates/geom/src/dist.rs\""));
        assert!(sarif.contains("\"startLine\": 42"));
        assert!(sarif.contains("\"suppressions\": [{\"kind\": \"inSource\"}]"));
        // every registered rule is described
        for r in RULES {
            assert!(sarif.contains(&format!("\"id\": \"{}\"", r.name)));
        }
    }

    #[test]
    fn baseline_roundtrip_and_ratchet() {
        let report = LintReport {
            diagnostics: vec![],
            waived: vec![
                Diagnostic {
                    rule: "hot-path-no-panic",
                    file: "f.rs".to_string(),
                    line: 1,
                    message: String::new(),
                },
                Diagnostic {
                    rule: "hot-path-no-panic",
                    file: "f.rs".to_string(),
                    line: 2,
                    message: String::new(),
                },
            ],
            files_scanned: 1,
        };
        let base = Baseline::from_report(&report);
        assert_eq!(base.rules["hot-path-no-panic"], (0, 2));
        let parsed = Baseline::parse(&base.to_json()).unwrap();
        assert_eq!(parsed, base);
        // same counts: ratchet holds
        assert!(base.regressions(&parsed).is_empty());
        // growth in either counter is a regression
        let mut worse = base.clone();
        worse.rules.insert("hot-path-no-panic".to_string(), (1, 3));
        let msgs = base.regressions(&worse);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        // a rule absent from the baseline must enter clean
        let mut new_rule = base.clone();
        new_rule
            .rules
            .insert("hot-path-no-alloc".to_string(), (1, 0));
        assert_eq!(base.regressions(&new_rule).len(), 1);
        // shrinking is fine
        let mut better = base.clone();
        better.rules.insert("hot-path-no-panic".to_string(), (0, 1));
        assert!(base.regressions(&better).is_empty());
    }
}
