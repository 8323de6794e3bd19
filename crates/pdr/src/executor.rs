//! Deterministic multi-threaded execution.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Environment variable selecting the default worker-thread count for
/// [`ParallelExecutor::from_env`]. Unset, the executor uses the host's
/// available parallelism. Any value — including `1` — produces the same
/// bytes; the variable only trades wall-clock for cores.
pub const THREADS_ENV: &str = "PDR_THREADS";

/// Fans independent work — Monte Carlo campaign replicas, fleet shards —
/// across `std::thread` workers under a deterministic merge contract:
/// for any seed set and any thread count (including 1), the merged
/// [`MonteCarloReport`](crate::campaign::MonteCarloReport), its availability
/// [`DistSummary`](crate::campaign::DistSummary), and the
/// per-replica rows are **byte-identical** to the serial path.
///
/// The contract holds by construction, not by luck:
///
/// * each unit of work is a pure function of plain inputs (config,
///   campaign, checkpoint JSON, seed) — a worker builds its own
///   [`ZynqPdrSystem`](crate::ZynqPdrSystem) *inside* its thread, so none of the simulator's
///   single-threaded `Rc<RefCell<…>>` state ever crosses a thread
///   boundary (`ZynqPdrSystem` is deliberately `!Send`);
/// * workers pull indices from a shared queue, so completion order is
///   racy, but results are committed into an index-ordered table and
///   merged left to right by one shared merge fold — the same code the
///   serial path uses;
/// * the availability moments fold per-replica single-sample
///   [`OnlineStats`](pdr_sim_core::stats::OnlineStats) fragments with the parallel-Welford
///   [`OnlineStats::merge`](pdr_sim_core::stats::OnlineStats::merge), in replica-index order, on the committing
///   thread.
///
/// Enforced by `tests/proptest_parallel.rs` (random plans × thread counts
/// {1, 2, 3, 8}), the `campaign` bench (equivalence before speedup), and
/// the CI thread-matrix smoke (`--threads {1,4}` × both engines, `cmp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// An executor with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ParallelExecutor {
        ParallelExecutor {
            threads: threads.max(1),
        }
    }

    /// The single-worker executor — the serial reference path.
    pub fn serial() -> ParallelExecutor {
        ParallelExecutor::new(1)
    }

    /// Reads the worker count from [`THREADS_ENV`], falling back to the
    /// host's available parallelism.
    ///
    /// `PDR_THREADS=0` clamps to one worker — zero is a request for "as
    /// little parallelism as possible", not a configuration error, and the
    /// byte-identity contract makes any clamp observationally safe. An
    /// `available_parallelism()` error likewise falls back to one worker.
    ///
    /// # Panics
    ///
    /// Panics if the variable is set to anything non-numeric — a
    /// misconfigured campaign must fail loudly, not run serial silently.
    pub fn from_env() -> ParallelExecutor {
        Self::from_env_value(std::env::var(THREADS_ENV).ok().as_deref())
    }

    /// [`ParallelExecutor::from_env`] with the variable's value passed in —
    /// the testable core (directed tests must not mutate process-global
    /// environment under a multi-threaded test harness). `None` means the
    /// variable is unset.
    pub fn from_env_value(value: Option<&str>) -> ParallelExecutor {
        match value {
            Some(v) => match v.trim().parse::<usize>() {
                // `new` clamps 0 to the serial executor.
                Ok(n) => ParallelExecutor::new(n),
                Err(_) => panic!("{THREADS_ENV} must be a non-negative integer, got `{v}`"),
            },
            None => {
                ParallelExecutor::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
            }
        }
    }

    /// The worker count this executor fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(i)` for `i in 0..n` on the worker pool and returns the
    /// results **in index order**, whatever order workers finish in. With
    /// one worker (or one item) the tasks run inline on the calling thread
    /// — the exact same code path, so thread count can never change bytes.
    ///
    /// Public so other deterministic fan-outs (the fleet's epoch-barriered
    /// shard step) can ride the same index-ordered commit contract.
    pub fn map<T, F>(&self, n: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(task).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let task = &task;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // The receiver outlives every worker; a send can only
                    // fail if the committing thread already panicked, and
                    // then the scope re-raises that panic anyway.
                    let _ = tx.send((i, task(i)));
                });
            }
            drop(tx);
            for (i, v) in rx {
                slots[i] = Some(v);
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index produces exactly one result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_clamps_zero_threads_to_serial() {
        // Regression: `PDR_THREADS=0` used to panic; it must clamp to one
        // worker (as must a failing `available_parallelism`, which the
        // `None` arm's `map_or(1, …)` covers).
        assert_eq!(ParallelExecutor::new(0).threads(), 1);
        assert_eq!(ParallelExecutor::from_env_value(Some("0")).threads(), 1);
        assert_eq!(ParallelExecutor::from_env_value(Some(" 3 ")).threads(), 3);
        assert!(ParallelExecutor::from_env_value(None).threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "non-negative integer")]
    fn executor_rejects_non_numeric_thread_count() {
        let _ = ParallelExecutor::from_env_value(Some("many"));
    }

    #[test]
    fn executor_commits_in_index_order_under_racy_completion() {
        // Tasks finish in reverse order (later indices sleep less); the
        // committed table must still be index-ordered.
        let out = ParallelExecutor::new(4).map(8, |i| {
            std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
            i * 10
        });
        assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(ParallelExecutor::serial().map(3, |i| i), vec![0, 1, 2]);
        assert_eq!(ParallelExecutor::new(16).map(0, |i| i), Vec::<usize>::new());
    }
}
