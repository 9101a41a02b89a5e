//! Order statistics, the known-answer gate, and the process's peak RSS.

use crate::inputs::{Expect, Input};
use iwa_engine::EngineVerdict;

/// Nearest-rank percentile of an ascending slice (0 when empty).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle two for even lengths; 0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The known-answer gate. An operation fails when it errors, panics, is
/// shed or times out, or answers Clean for a known anomaly; a known-clean
/// input answered anything but Clean is a false alarm, not a failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Known-clean inputs checked.
    pub known_clean: u64,
    /// Known-clean inputs not certified Clean.
    pub false_alarms: u64,
    /// Traced runs: inputs whose layer-by-layer replay reached another
    /// verdict than `analyze_model` (the replay no longer mirrors it).
    pub replay_mismatches: u64,
}

impl Checks {
    /// Check one operation's outcome against `input`'s known answer.
    pub fn record(&mut self, input: &Input, outcome: Result<EngineVerdict, String>) {
        self.attempted += 1;
        match outcome {
            Err(e) => self.fail(format!("{}: {e}", input.label)),
            Ok(EngineVerdict::Clean) if input.expect == Expect::Anomalous => {
                self.fail(format!("{}: Clean for a known anomaly", input.label));
            }
            Ok(v) => {
                if input.expect == Expect::Clean {
                    self.known_clean += 1;
                    if v != EngineVerdict::Clean {
                        self.false_alarms += 1;
                    }
                }
            }
        }
    }

    /// Count a failure that belongs to no single input (shed, timeout).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Failed over attempted, percent.
    #[must_use]
    pub fn failed_pct(&self) -> f64 {
        pct(self.failed, self.attempted)
    }

    /// Known-clean inputs whose verdict was not Clean, percent.
    #[must_use]
    pub fn false_alarm_pct(&self) -> f64 {
        pct(self.false_alarms, self.known_clean)
    }
}

/// `num / den` in percent (0 when `den` is 0).
#[must_use]
pub fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 * 100.0 / den as f64
    }
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`), 0 if unreadable.
#[must_use]
pub fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// The reference kernel's time, in ms, on the 2-core host the benchmark
/// was sized on while nothing else competed for the core. Closed-loop
/// timings are reported at this speed: a time measured while the kernel
/// took `r` ms is scaled by `REF_NOMINAL_MS / r`.
pub const REF_NOMINAL_MS: f64 = 8.0;

/// The reference kernel's current time, ms: the median of three runs.
#[must_use]
pub fn ref_ms() -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(reference_kernel());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The factor taking a time measured between two reference samples to
/// the nominal host speed.
#[must_use]
pub fn speed_scale(before_ms: f64, after_ms: f64) -> f64 {
    REF_NOMINAL_MS / (before_ms * after_ms).sqrt()
}

/// A fixed CPU-bound kernel owned by the benchmark: breadth-first search
/// over the 15 625 states of six counters mod 5, with a hash set of small
/// vectors and a queue, the same kinds of work as the analyses. Its time
/// tracks how fast the host runs this process at the moment.
#[must_use]
pub fn reference_kernel() -> u64 {
    use std::collections::{HashSet, VecDeque};
    let start = vec![0u8; 6];
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(start.clone());
    queue.push_back(start);
    let mut edges = 0u64;
    while let Some(s) = queue.pop_front() {
        for i in 0..s.len() {
            let mut t = s.clone();
            t[i] = (t[i] + 1) % 5;
            edges += 1;
            if seen.insert(t.clone()) {
                queue.push_back(t);
            }
        }
    }
    std::hint::black_box(edges + seen.len() as u64)
}
