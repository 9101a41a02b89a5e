//! A hand-rolled work-stealing execution layer on [`std::thread::scope`].
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
//! Indices `0..n` are split into one contiguous chunk per worker, each
//! held as a `(start, end)` pair packed into a single `AtomicU64`. A
//! worker pops from the **front** of its own chunk; when its chunk runs
//! dry it scans the other slots and steals the **back half** of the
//! richest one (classic chunked stealing: owners and thieves contend on
//! opposite ends, and a single CAS moves many indices at once). No locks,
//! no condvars, no unsafe — results travel back as `(index, value)`
//! pairs and are sorted on the way out, which is what makes the output
//! order (and therefore every byte of downstream JSON) independent of the
//! worker count.
//!
//! # Cancellation
//!
//! [`try_map`] stops launching new tasks as soon as any task fails and
//! returns the error with the **lowest index** — again so the outcome is
//! reproducible for any worker count. In-flight siblings are not
//! interrupted mid-task; analyses make trips prompt by sharing one
//! [`Budget`](crate::Budget) (clones share step counters, deadline, and
//! cancel token), so a deadline or cancellation observed by one worker
//! trips every other worker at its next checkpoint.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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

const fn pack(start: u32, end: u32) -> u64 {
    ((start as u64) << 32) | end as u64
}

const fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// Pop the front index of `slot`, or `None` when the chunk is empty.
fn pop_front(slot: &AtomicU64) -> Option<usize> {
    slot.fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
        let (s, e) = unpack(w);
        (s < e).then(|| pack(s + 1, e))
    })
    .ok()
    .map(|w| unpack(w).0 as usize)
}

/// Steal the back half of the richest foreign chunk. Returns the first
/// stolen index; the rest of the loot is installed into `slots[me]`
/// (empty at the time of the call — only its owner ever refills it).
fn steal(slots: &[AtomicU64], me: usize) -> Option<usize> {
    loop {
        // Pick the victim with the most remaining work.
        let victim = slots
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != me)
            .map(|(w, slot)| {
                let (s, e) = unpack(slot.load(Ordering::Acquire));
                (w, e.saturating_sub(s))
            })
            .max_by_key(|&(_, len)| len)
            .filter(|&(_, len)| len > 0)?
            .0;
        let slot = &slots[victim];
        let Ok(prev) = slot.fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
            let (s, e) = unpack(w);
            // Victim keeps the front half [s, mid); we take [mid, e).
            (s < e).then(|| pack(s, s + (e - s) / 2))
        }) else {
            continue; // raced with the owner or another thief; rescan
        };
        let (s, e) = unpack(prev);
        let mid = s + (e - s) / 2;
        // Claim index `mid`; bank the rest in our own (empty) slot where
        // other thieves can in turn steal from it.
        slots[me].store(pack(mid + 1, e), Ordering::Release);
        return Some(mid as usize);
    }
}

/// Run `f(0..n)` on up to `workers` threads and return the results in
/// index order. `workers <= 1` (after [`resolve_workers`]) runs inline on
/// the calling thread with no scheduling overhead.
///
/// Deterministic: the output vector depends only on `f`, never on the
/// worker count or scheduling.
///
/// # Panics
///
/// Panics if any task panics (the panic is propagated after all workers
/// stop). Callers needing isolation wrap `f` in
/// [`std::panic::catch_unwind`] themselves, as the batch checker does.
pub fn map<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_map(workers, n, |i| Ok::<T, Infallible>(f(i))) {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// What one worker brings home: completed `(index, value)` pairs, the
/// `(index, error)` that stopped it (if any), and its steal count.
type WorkerHaul<T, E> = (Vec<(usize, T)>, Option<(usize, E)>, u64);

/// Per-call scheduling statistics from one pool fan-out.
///
/// `tasks` is the fan-out width `n` — deterministic by construction.
/// `steals` counts successful work-steals and depends on scheduling;
/// observability keeps it quarantined in
/// [`SchedStats`](crate::obs::SchedStats) accordingly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Indices fanned out (always `n`, regardless of errors).
    pub tasks: u64,
    /// Successful steals across all workers (scheduling-dependent).
    pub steals: u64,
}

/// [`map`] for fallible tasks: after a failure, skip every task above
/// the lowest failing index so far and return the error with the lowest
/// index (so the reported error is reproducible for any worker count).
/// Tasks below it, and in-flight tasks on other workers, run to
/// completion; share a [`Budget`](crate::Budget) across the tasks to make
/// them trip promptly.
pub fn try_map<T, E, F>(workers: usize, n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    try_map_stats(workers, n, f).0
}

/// [`try_map`] that additionally reports [`PoolStats`] for the fan-out
/// (the stats come back even when the result is an error).
pub fn try_map_stats<T, E, F>(workers: usize, n: usize, f: F) -> (Result<Vec<T>, E>, PoolStats)
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let stats = PoolStats {
        tasks: n as u64,
        steals: 0,
    };
    let workers = resolve_workers(workers).min(n.max(1));
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match f(i) {
                Ok(v) => out.push(v),
                Err(e) => return (Err(e), stats),
            }
        }
        return (Ok(out), stats);
    }

    // One contiguous chunk per worker, balanced to within one index.
    let slots: Vec<AtomicU64> = (0..workers)
        .map(|w| AtomicU64::new(pack((n * w / workers) as u32, (n * (w + 1) / workers) as u32)))
        .collect();
    // The lowest failing index so far. Tasks above it are skipped (they
    // cannot change the reported error); tasks below it still run, so the
    // error returned is the lowest-index one for any worker count.
    let lowest_failure = AtomicUsize::new(usize::MAX);

    let per_worker: Vec<WorkerHaul<T, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let (slots, lowest_failure, f) = (&slots, &lowest_failure, &f);
                scope.spawn(move || {
                    let mut done: Vec<(usize, T)> = Vec::new();
                    let mut failed: Option<(usize, E)> = None;
                    let mut steals: u64 = 0;
                    loop {
                        let i = match pop_front(&slots[me]) {
                            Some(i) => i,
                            None => match steal(slots, me) {
                                Some(i) => {
                                    steals += 1;
                                    i
                                }
                                None => break, // no work anywhere visible
                            },
                        };
                        if i > lowest_failure.load(Ordering::Relaxed) {
                            continue;
                        }
                        match f(i) {
                            Ok(v) => done.push((i, v)),
                            Err(e) => {
                                // Everything left in this worker's slot
                                // lies above `i`, so it may stop here.
                                failed = Some((i, e));
                                lowest_failure.fetch_min(i, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    (done, failed, steals)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut stats = stats;
    let mut first_err: Option<(usize, E)> = None;
    let mut items: Vec<(usize, T)> = Vec::with_capacity(n);
    for (done, failed, steals) in per_worker {
        items.extend(done);
        stats.steals += steals;
        if let Some((i, e)) = failed {
            if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                first_err = Some((i, e));
            }
        }
    }
    if let Some((_, e)) = first_err {
        return (Err(e), stats);
    }
    items.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(items.len(), n, "every index executed exactly once");
    (Ok(items.into_iter().map(|(_, v)| v).collect()), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn map_matches_the_sequential_result_for_any_worker_count() {
        let n = 503; // prime, so chunks are uneven
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
    fn every_index_runs_exactly_once_under_stealing() {
        // Uneven work forces stealing: early indices sleep, late ones fly.
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
        for workers in [1, 4] {
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
        // Worker 0 fails instantly at index 0; the other worker skips
        // every index above it instead of running its 5000-index chunk.
        assert!(
            ran.load(Ordering::Relaxed) < 5_000,
            "ran {} tasks after the failure",
            ran.load(Ordering::Relaxed)
        );
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
    fn try_map_stats_reports_the_fanout_width() {
        let (r, stats) = try_map_stats(1, 10, Ok::<usize, ()>);
        assert_eq!(r.unwrap().len(), 10);
        assert_eq!(
            stats,
            PoolStats {
                tasks: 10,
                steals: 0
            }
        );
        // Uneven work invites stealing; the steal count is
        // scheduling-dependent, so only the task width is asserted.
        let (r, stats) = try_map_stats(8, 200, |i| {
            if i < 4 {
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok::<usize, ()>(i)
        });
        assert_eq!(r.unwrap().len(), 200);
        assert_eq!(stats.tasks, 200);
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
