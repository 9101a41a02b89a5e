//! Test-only helpers shared across the workspace's integration tests.
//!
//! The JSON reports are byte-identical across runs and worker counts
//! *except* for their wall-clock timings. Determinism tests (and
//! `scripts/ci.sh`) compare reports only after zeroing those fields; this
//! crate is the single home of that mask so the CLI, engine, and root
//! test suites cannot drift apart on what counts as "timing".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde_json::Value;

/// The JSON keys a determinism comparison must ignore: the wall-clock
/// timings, the only report fields that vary between runs.
pub const MASKED_KEYS: &[&str] = &["elapsed_ms", "wall_ms"];

/// Recursively zero every [`MASKED_KEYS`] field in `v`.
pub fn mask_value(v: &mut Value) {
    match v {
        Value::Object(entries) => {
            for (k, v) in entries.iter_mut() {
                if MASKED_KEYS.contains(&k.as_str()) {
                    *v = Value::UInt(0);
                } else {
                    mask_value(v);
                }
            }
        }
        Value::Array(items) => {
            for v in items.iter_mut() {
                mask_value(v);
            }
        }
        _ => {}
    }
}

/// Parse `json`, zero the non-deterministic fields, and re-serialize in
/// the stable (insertion-ordered, pretty) form, ready for byte equality.
///
/// # Panics
///
/// Panics when `json` is not valid JSON — this is a test helper, and a
/// malformed report is itself the failure worth surfacing.
#[must_use]
pub fn masked(json: &str) -> String {
    let mut v = serde_json::from_str(json)
        .unwrap_or_else(|e| panic!("masked(): invalid JSON ({e})\ninput: {json}"));
    mask_value(&mut v);
    serde_json::to_string_pretty(&v).expect("Value serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_every_listed_key_at_any_depth() {
        let json = r#"{
            "elapsed_ms": 91,
            "files": [{"wall_ms": 12, "steps": 7}],
            "meta": {"metrics": {"pool_tasks": 3}}
        }"#;
        let out = masked(json);
        let v = serde_json::from_str(&out).unwrap();
        assert_eq!(v["elapsed_ms"], 0u64);
        assert_eq!(v["files"][0]["wall_ms"], 0u64);
        assert_eq!(v["files"][0]["steps"], 7u64, "non-timing fields survive");
        assert_eq!(v["meta"]["metrics"]["pool_tasks"], 3u64, "counters survive");
    }

    #[test]
    fn masked_output_is_byte_stable() {
        let a = masked(r#"{"elapsed_ms": 1, "x": 2}"#);
        let b = masked(r#"{"elapsed_ms":  999, "x": 2}"#);
        assert_eq!(a, b);
    }
}
