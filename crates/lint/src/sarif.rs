//! SARIF 2.1.0 emission.
//!
//! The document is assembled as an explicit [`Value`] tree rather than a
//! derived struct: SARIF needs the literal `"$schema"` member name, and
//! building the insertion-ordered object by hand keeps the output
//! byte-stable — the golden tests and CI pin it.

use crate::{registry, Diagnostic, Severity};
use serde_json::Value;

/// The schema URI stamped into every report.
pub const SCHEMA_URI: &str = "https://json.schemastore.org/sarif-2.1.0.json";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::String(text.to_owned())
}

/// Build a SARIF `run` over per-file diagnostic lists (paths become
/// `artifactLocation.uri`s verbatim). `Allow`-level findings must already
/// be filtered out; `Warn` maps to SARIF `"warning"`, `Deny` to
/// `"error"`.
#[must_use]
pub fn to_sarif(files: &[(String, Vec<Diagnostic>)]) -> Value {
    let mut lints = registry();
    lints.sort_by_key(|l| l.name);
    let rules: Vec<Value> = lints
        .iter()
        .map(|l| {
            obj(vec![
                ("id", s(l.name)),
                ("shortDescription", obj(vec![("text", s(l.description))])),
            ])
        })
        .collect();

    let mut results = Vec::new();
    for (path, diags) in files {
        for d in diags {
            results.push(result(path, d));
        }
    }

    obj(vec![
        ("$schema", s(SCHEMA_URI)),
        ("version", s("2.1.0")),
        (
            "runs",
            Value::Array(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", s("iwa-lint")),
                            ("rules", Value::Array(rules)),
                        ]),
                    )]),
                ),
                ("results", Value::Array(results)),
            ])]),
        ),
    ])
}

fn result(path: &str, d: &Diagnostic) -> Value {
    let level = match d.severity {
        Severity::Deny => "error",
        // `Allow` is filtered before rendering; treat a leak as a note.
        Severity::Warn => "warning",
        Severity::Allow => "note",
    };
    let mut physical = vec![("artifactLocation", obj(vec![("uri", s(path))]))];
    if d.span.is_real() {
        physical.push((
            "region",
            obj(vec![
                ("startLine", Value::UInt(u64::from(d.span.line))),
                ("startColumn", Value::UInt(u64::from(d.span.col))),
                (
                    "endColumn",
                    Value::UInt(u64::from(d.span.col + d.span.len.max(1))),
                ),
            ]),
        ));
    }
    obj(vec![
        ("level", s(level)),
        (
            "locations",
            Value::Array(vec![obj(vec![("physicalLocation", obj(physical))])]),
        ),
        ("message", obj(vec![("text", s(&d.message))])),
        ("ruleId", s(&d.lint)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_core::Span;

    fn diag(sev: Severity, span: Span) -> Diagnostic {
        Diagnostic {
            lint: "self-send".into(),
            severity: sev,
            message: "m".into(),
            span,
        }
    }

    #[test]
    fn document_shape_is_sarif_2_1_0() {
        let v = to_sarif(&[("a.iwa".into(), vec![diag(Severity::Warn, Span::new(2, 5, 4))])]);
        assert_eq!(v.get("$schema").and_then(Value::as_str), Some(SCHEMA_URI));
        assert_eq!(v.get("version").and_then(Value::as_str), Some("2.1.0"));
        let run = &v.get("runs").unwrap().as_array().unwrap()[0];
        let driver = run.get("tool").unwrap().get("driver").unwrap();
        assert_eq!(driver.get("name").and_then(Value::as_str), Some("iwa-lint"));
        let rules = driver.get("rules").unwrap().as_array().unwrap();
        assert_eq!(rules.len(), registry().len(), "one rule per lint");
        let results = run.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.get("level").and_then(Value::as_str), Some("warning"));
        assert_eq!(r.get("ruleId").and_then(Value::as_str), Some("self-send"));
        let region = r.get("locations").unwrap().as_array().unwrap()[0]
            .get("physicalLocation")
            .unwrap()
            .get("region")
            .unwrap();
        assert_eq!(region.get("startLine").and_then(Value::as_u64), Some(2));
        assert_eq!(region.get("startColumn").and_then(Value::as_u64), Some(5));
        assert_eq!(region.get("endColumn").and_then(Value::as_u64), Some(9));
    }

    #[test]
    fn deny_maps_to_error_and_dummy_spans_omit_the_region() {
        let v = to_sarif(&[("a.iwa".into(), vec![diag(Severity::Deny, Span::DUMMY)])]);
        let run = &v.get("runs").unwrap().as_array().unwrap()[0];
        let r = &run.get("results").unwrap().as_array().unwrap()[0];
        assert_eq!(r.get("level").and_then(Value::as_str), Some("error"));
        let loc = &r.get("locations").unwrap().as_array().unwrap()[0];
        assert!(loc.get("physicalLocation").unwrap().get("region").is_none());
    }

    #[test]
    fn output_is_deterministic() {
        let files = vec![("a.iwa".to_owned(), vec![diag(Severity::Warn, Span::new(1, 1, 4))])];
        let one = serde_json::to_string_pretty(&to_sarif(&files)).unwrap();
        let two = serde_json::to_string_pretty(&to_sarif(&files)).unwrap();
        assert_eq!(one, two);
    }
}
