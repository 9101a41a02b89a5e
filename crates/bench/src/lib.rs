//! Shared experiment machinery: workload families, timing helpers, and
//! table rendering for the `report` binary, plus the `iwa bench` suite
//! and its tracked trajectory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod families;
pub mod history;
pub mod suite;
pub mod tables;

use std::time::{Duration, Instant};

/// Time one closure, returning its result and the wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Median of `reps` repeated timings (the report uses medians of 3 and 5).
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut samples: Vec<Duration> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Least-squares slope of `log(y)` against `log(x)` — the report quotes it
/// as the empirical complexity exponent.
#[must_use]
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_a_quadratic_is_two() {
        let pts: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slope_ignores_nonpositive_points() {
        let pts = vec![(0.0, 1.0), (1.0, 1.0), (2.0, 2.0), (4.0, 4.0)];
        assert!((loglog_slope(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn median_time_runs() {
        let d = median_time(3, || std::hint::black_box(1 + 1));
        assert!(d.as_nanos() < 1_000_000_000);
    }
}
