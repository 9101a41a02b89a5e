//! The tracked bench trajectory: `reports/bench_history.jsonl`.
//!
//! Every `iwa bench` run **appends** one JSON line here — the only record
//! it writes — and the newest prior record of the same mode is the
//! *trajectory* a run is validated against. Lines are never rewritten,
//! so the file can prove a speedup and catch a slow drift.
//!
//! A record carries only fields that are either deterministic for a given
//! source tree (steps, `scc_runs`, heads examined — the workload seeds are
//! baked into the suite, and rung selection is step-gated, never
//! wall-gated) or explicitly informational (`wall_ms`, the one
//! host-dependent column, kept so speedups can be *recorded* but never
//! used by validation). Validation gates on **steps only**: a run fails
//! when any family/size row needs more than
//! [`DEFAULT_STEP_REGRESSION_PCT`] percent extra steps over the recorded
//! trajectory.

use crate::suite::BenchReport;
use serde::Serialize;
use serde_json::Value;

/// Version of one `bench_history.jsonl` record. Bump on any field change.
pub const HISTORY_SCHEMA_VERSION: u32 = 1;

/// Default regression threshold: fail when a row's step count exceeds the
/// trajectory's by more than this percentage.
pub const DEFAULT_STEP_REGRESSION_PCT: u64 = 15;

/// Default on-disk location of the trajectory, relative to the repo root.
pub const DEFAULT_HISTORY_PATH: &str = "reports/bench_history.jsonl";

/// One trajectory point: the host-independent core of a
/// [`BenchRow`](crate::suite::BenchRow) plus the informational wall-clock
/// column.
#[derive(Clone, Debug, Serialize)]
pub struct HistoryRow {
    /// Stable family name.
    pub family: String,
    /// The family's scale parameter.
    pub size: u64,
    /// Deterministic budget steps — the only validated column.
    pub steps: u64,
    /// SCC passes the analysis performed (deterministic).
    pub scc_runs: u64,
    /// Head hypotheses examined (deterministic).
    pub heads_examined: u64,
    /// Wall-clock milliseconds. Host-dependent; informational only —
    /// validation never reads it.
    pub wall_ms: u64,
}

/// One appended line of `bench_history.jsonl`.
#[derive(Clone, Debug, Serialize)]
pub struct HistoryRecord {
    /// The record shape version ([`HISTORY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// `"smoke"` or `"full"` — records only validate against their own mode.
    pub mode: String,
    /// Free-form label for the run (e.g. a milestone name); `"-"` when the
    /// caller gave none.
    pub label: String,
    /// The workload seed baked into the suite's randomized family
    /// (`sized_random`); recorded so a reader can tell two trajectories
    /// apart if the suite ever reseeds.
    pub seed: u64,
    /// One point per family member, in suite order.
    pub rows: Vec<HistoryRow>,
}

impl HistoryRecord {
    /// Project a [`BenchReport`] onto its trajectory record.
    #[must_use]
    pub fn from_report(report: &BenchReport, label: &str) -> HistoryRecord {
        HistoryRecord {
            schema_version: HISTORY_SCHEMA_VERSION,
            mode: report.mode.clone(),
            label: if label.is_empty() { "-" } else { label }.to_owned(),
            seed: crate::suite::SIZED_RANDOM_SEED,
            rows: report
                .rows
                .iter()
                .map(|r| HistoryRow {
                    family: r.family.clone(),
                    size: r.size,
                    steps: r.steps,
                    scc_runs: r.metrics.scc_runs,
                    heads_examined: r.metrics.heads_examined,
                    wall_ms: r.wall_ms,
                })
                .collect(),
        }
    }
}

/// Append `record` as one compact JSON line to `path`, creating the file
/// (and its parent directory) on first use. Existing lines are never
/// rewritten — the trajectory is append-only.
///
/// # Errors
///
/// Returns a human-readable description of the I/O failure.
pub fn append(path: &str, record: &HistoryRecord) -> Result<(), String> {
    use std::io::Write;
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let line = serde_json::to_string(record).map_err(|e| e.to_string())?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("cannot append to {path}: {e}"))
}

/// The steps a past record promises, keyed by `(family, size)`.
type Trajectory = Vec<((String, u64), u64)>;

/// Load the newest record of `mode` from `path`. Returns `Ok(None)` when
/// the file does not exist or holds no record of that mode (a fresh
/// trajectory validates trivially).
///
/// # Errors
///
/// Returns a description of an unreadable file, malformed line, or
/// unsupported schema version — corruption must fail loudly, not pass as
/// "no trajectory".
pub fn load_latest(path: &str, mode: &str) -> Result<Option<Trajectory>, String> {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let mut latest: Option<Trajectory> = None;
    for (lineno, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: invalid JSON: {e}", lineno + 1))?;
        let version = v
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{path}:{}: missing schema_version", lineno + 1))?;
        if version != u64::from(HISTORY_SCHEMA_VERSION) {
            return Err(format!(
                "{path}:{}: schema_version {version} != supported {HISTORY_SCHEMA_VERSION}",
                lineno + 1
            ));
        }
        if v.get("mode").and_then(Value::as_str) != Some(mode) {
            continue;
        }
        let rows = v
            .get("rows")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path}:{}: missing rows", lineno + 1))?;
        let mut t: Trajectory = Vec::with_capacity(rows.len());
        for row in rows {
            let family = row
                .get("family")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}:{}: row missing family", lineno + 1))?;
            let size = row
                .get("size")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{path}:{}: row missing size", lineno + 1))?;
            let steps = row
                .get("steps")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{path}:{}: row missing steps", lineno + 1))?;
            t.push(((family.to_owned(), size), steps));
        }
        latest = Some(t);
    }
    Ok(latest)
}

/// Validate `report` against the newest same-mode record in `path`.
///
/// Returns the per-row comparison lines (for display). Rows absent from
/// the trajectory (new families/sizes) pass with a note; a missing or
/// empty trajectory passes trivially.
///
/// # Errors
///
/// Returns one message per regressing row — any row whose steps exceed the
/// trajectory's by more than `threshold_pct` percent — or a corruption
/// error from [`load_latest`].
pub fn validate_trajectory(
    path: &str,
    report: &BenchReport,
    threshold_pct: u64,
) -> Result<Vec<String>, String> {
    let Some(trajectory) = load_latest(path, &report.mode)? else {
        return Ok(vec![format!(
            "no {} trajectory in {path} yet: validation passes trivially",
            report.mode
        )]);
    };
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for row in &report.rows {
        let key = (row.family.clone(), row.size);
        let Some(&(_, old_steps)) = trajectory.iter().find(|(k, _)| *k == key) else {
            lines.push(format!(
                "{:<18} size {:>3}: new row (not in trajectory)",
                row.family, row.size
            ));
            continue;
        };
        // Integer-exact threshold: new > old * (100 + pct) / 100 fails.
        let limit = old_steps.saturating_mul(100 + threshold_pct) / 100;
        let verdict = if row.steps > limit { "REGRESSED" } else { "ok" };
        lines.push(format!(
            "{:<18} size {:>3}: {:>12} steps vs {:>12} recorded ({verdict})",
            row.family, row.size, row.steps, old_steps
        ));
        if row.steps > limit {
            failures.push(format!(
                "{} size {}: {} steps exceeds recorded {} by more than {}%",
                row.family, row.size, row.steps, old_steps, threshold_pct
            ));
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::run_suite;

    fn tmp(name: &str) -> String {
        let d = std::env::temp_dir().join(format!("iwa_hist_{name}_{}", std::process::id()));
        let _ = std::fs::remove_file(&d);
        d.to_string_lossy().into_owned()
    }

    #[test]
    fn append_then_validate_roundtrip() {
        let path = tmp("roundtrip");
        let report = run_suite(true);
        // Empty trajectory: passes trivially.
        let lines = validate_trajectory(&path, &report, 15).unwrap();
        assert!(lines[0].contains("trivially"));
        append(&path, &HistoryRecord::from_report(&report, "t0")).unwrap();
        // Same run against its own record: every row ok.
        let lines = validate_trajectory(&path, &report, 15).unwrap();
        assert!(lines.iter().all(|l| l.contains("(ok)")), "{lines:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_step_regression_fails_validation() {
        let path = tmp("regress");
        let report = run_suite(true);
        append(&path, &HistoryRecord::from_report(&report, "t0")).unwrap();
        let mut worse = report.clone();
        worse.rows[0].steps = worse.rows[0].steps * 2 + 100;
        let err = validate_trajectory(&path, &worse, 15).unwrap_err();
        assert!(err.contains("exceeds recorded"), "{err}");
        // Within the threshold passes.
        let mut slight = report.clone();
        slight.rows[0].steps += slight.rows[0].steps / 10; // +10% < 15%
        validate_trajectory(&path, &slight, 15).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_are_appended_not_rewritten_and_latest_wins() {
        let path = tmp("append");
        let report = run_suite(true);
        let mut r0 = HistoryRecord::from_report(&report, "old");
        for row in &mut r0.rows {
            row.steps *= 100; // a very slow past
        }
        append(&path, &r0).unwrap();
        append(&path, &HistoryRecord::from_report(&report, "new")).unwrap();
        let n = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(n, 2);
        // Validation compares against the NEWEST record, not the slow one.
        let mut worse = report.clone();
        worse.rows[0].steps *= 3;
        assert!(validate_trajectory(&path, &worse, 15).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_lines_fail_loudly() {
        let path = tmp("corrupt");
        std::fs::write(&path, "{not json\n").unwrap();
        let report = run_suite(true);
        assert!(validate_trajectory(&path, &report, 15).is_err());
        std::fs::write(&path, "{\"schema_version\": 999, \"mode\": \"smoke\"}\n").unwrap();
        let err = validate_trajectory(&path, &report, 15).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
