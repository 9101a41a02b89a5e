//! A parallel index map on [`std::thread::scope`].
//!
//! The workspace vendors every dependency, so instead of pulling in rayon
//! this module implements the small slice of it the analyses need: run
//! `n` independent index-addressed tasks on `w` worker threads and merge
//! the results **deterministically** (output depends only on the inputs,
//! never on scheduling). Two layers rely on it:
//!
//! * `iwa-analysis` fans the refined algorithm's per-head SCC searches
//!   across workers (the per-head decomposition is embarrassingly
//!   parallel by construction);
//! * `iwa-engine` runs batch `check` files concurrently, each behind its
//!   own panic boundary and deadline.
//!
//! # Scheduling
//!
//! Workers share one atomic cursor: each claims the next index with a
//! single `fetch_add` until the cursor passes `n`, so a slow task holds
//! up only the worker running it. No locks, no condvars, no unsafe —
//! results travel back as `(index, value)` pairs and are sorted on the
//! way out, which is what makes the output order (and therefore every
//! byte of downstream JSON) independent of the worker count.
//!
//! # Cancellation
//!
//! [`try_map`] returns the error with the **lowest index** — again so the
//! outcome is reproducible for any worker count. Indices are claimed in
//! increasing order, so once a task fails, a worker that claims an index
//! above the lowest failure so far stops claiming, while every index
//! below it has already been claimed and runs to completion. In-flight
//! siblings are not interrupted mid-task; analyses make trips prompt by
//! sharing one [`Budget`](crate::Budget) (clones share step counters,
//! deadline, and cancel token), so a deadline or cancellation observed by
//! one worker trips every other worker at its next checkpoint.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on worker threads; a plain safety valve against absurd
/// `-j` requests (the pool happily runs fewer when `n` is small).
pub const MAX_WORKERS: usize = 256;

/// The machine's available parallelism (falls back to 1 when unknown).
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolve a requested worker count: `0` means "auto" (one worker per
/// available core); anything else is clamped to [`MAX_WORKERS`].
#[must_use]
pub fn resolve_workers(requested: usize) -> usize {
    let n = if requested == 0 {
        default_workers()
    } else {
        requested
    };
    n.clamp(1, MAX_WORKERS)
}

/// What one worker brings home: completed `(index, value)` pairs and the
/// `(index, error)` that stopped it, if any.
type WorkerHaul<T, E> = (Vec<(usize, T)>, Option<(usize, E)>);

/// Run `f(0..n)` on up to `workers` threads and return the results in
/// index order, or the error with the lowest index. `workers <= 1`
/// (after [`resolve_workers`]) runs inline on the calling thread with no
/// scheduling overhead.
///
/// Deterministic: the result depends only on `f`, never on the worker
/// count or scheduling. After a failure no task above the lowest failing
/// index so far starts; tasks below it, and in-flight tasks on other
/// workers, run to completion. Share a [`Budget`](crate::Budget) across
/// the tasks to make them trip promptly.
///
/// # Panics
///
/// Panics if any task panics (the panic is propagated after all workers
/// stop). Callers needing isolation wrap `f` in
/// [`std::panic::catch_unwind`] themselves, as the batch checker does.
pub fn try_map<T, E, F>(workers: usize, n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = resolve_workers(workers).min(n.max(1));
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(f(i)?);
        }
        return Ok(out);
    }

    // The next unclaimed index, and the lowest failing index so far.
    // Relaxed suffices for both: neither publishes other data, and each
    // worker's results reach the caller through `join`.
    let next = AtomicUsize::new(0);
    let lowest_failure = AtomicUsize::new(usize::MAX);
    let hauls: Vec<WorkerHaul<T, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n || i > lowest_failure.load(Ordering::Relaxed) {
                            return (done, None);
                        }
                        match f(i) {
                            Ok(v) => done.push((i, v)),
                            Err(e) => {
                                lowest_failure.fetch_min(i, Ordering::Relaxed);
                                return (done, Some((i, e)));
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });

    let mut first_err: Option<(usize, E)> = None;
    let mut items: Vec<(usize, T)> = Vec::with_capacity(n);
    for (done, failed) in hauls {
        items.extend(done);
        if let Some((i, e)) = failed {
            if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                first_err = Some((i, e));
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    items.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(items.len(), n, "every index executed exactly once");
    Ok(items.into_iter().map(|(_, v)| v).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;
    use std::convert::Infallible;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::{Duration, Instant};

    /// [`try_map`] for tasks that cannot fail.
    fn map<T: Send>(workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        try_map(workers, n, |i| Ok::<T, Infallible>(f(i))).unwrap_or_else(|never| match never {})
    }

    #[test]
    fn map_matches_the_sequential_result_for_any_worker_count() {
        let n = 503;
        let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(map(workers, n, |i| i * i), expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        assert_eq!(map(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map(8, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn every_index_runs_exactly_once_under_uneven_work() {
        // Early indices sleep while late ones fly, so the workers race
        // for the cursor.
        let hits: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        map(8, 200, |i| {
            if i < 4 {
                std::thread::sleep(Duration::from_millis(5));
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn try_map_reports_the_lowest_index_error() {
        for workers in [1, 2, 4, 8] {
            let err = try_map(workers, 100, |i| {
                if i % 7 == 3 {
                    Err(i)
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, 3, "workers={workers}");
        }
    }

    #[test]
    fn try_map_stops_scheduling_after_a_failure() {
        let ran = AtomicUsize::new(0);
        let _ = try_map(2, 10_000, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err(())
            } else {
                std::thread::sleep(Duration::from_micros(50));
                Ok(())
            }
        });
        // Index 0 fails at once; the other worker stops at its next
        // claim instead of running the remaining indices.
        assert!(
            ran.load(Ordering::Relaxed) < 5_000,
            "ran {} tasks after the failure",
            ran.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn a_task_panic_propagates_after_the_other_workers_stop() {
        /// Counts a task as running until it returns or unwinds.
        struct Running<'a>(&'a AtomicUsize);
        impl Drop for Running<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let running = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            map(4, 64, |i| {
                running.fetch_add(1, Ordering::SeqCst);
                let _guard = Running(&running);
                std::thread::sleep(Duration::from_millis(1));
                assert_ne!(i, 5, "task 5 panics");
            });
        }));
        let payload = outcome.expect_err("the task's panic reaches the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("task 5 panics"), "got: {msg}");
        assert_eq!(running.load(Ordering::SeqCst), 0, "no task still running");
    }

    #[test]
    fn a_shared_budget_deadline_trips_all_workers_promptly() {
        let budget = Budget::with_deadline(Duration::from_millis(20));
        let started = Instant::now();
        let r = try_map(4, 64, |_| {
            loop {
                budget.checkpoint("spin")?; // trips at the shared deadline
            }
            #[allow(unreachable_code)]
            Ok::<(), crate::IwaError>(())
        });
        assert!(r.is_err());
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "deadline propagation took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn external_cancellation_stops_in_flight_workers() {
        let budget = Budget::unlimited();
        let token = budget.cancel_token().clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        });
        let started = Instant::now();
        let r = try_map(4, 8, |_| {
            loop {
                budget.checkpoint("spin")?;
            }
            #[allow(unreachable_code)]
            Ok::<(), crate::IwaError>(())
        });
        canceller.join().unwrap();
        assert!(r.is_err());
        assert!(started.elapsed() < Duration::from_secs(10));
        let msg = r.unwrap_err().to_string();
        assert!(msg.contains("cancelled"), "got: {msg}");
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(100_000), MAX_WORKERS);
    }

    #[test]
    fn budget_and_token_are_shareable_across_threads() {
        // Compile-time guarantee the pool relies on: one Budget (and its
        // cancel token) may be referenced from every worker.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Budget>();
        assert_send_sync::<crate::CancelToken>();
    }
}
