//! Scoped worker pool for the candidate × example trace-collection loop.
//!
//! The hot phase of a session executes every candidate function on every
//! positive and negative example — thousands of independent interpreter
//! runs. [`ExecPool::run_ordered`] shards a batch of jobs across N threads,
//! the calling thread and N − 1 scoped helpers (std only:
//! `std::thread::scope` plus a mutex-guarded work queue), and returns
//! results **in input order**, so downstream consumers see
//! exactly the sequence the serial loop would have produced.
//!
//! Determinism contract: if each job is a pure function of its input (the
//! engine guarantees this by giving every job exclusive ownership of its
//! executor), the merged output is bit-identical for every worker count,
//! including `workers == 1`, which does not spawn any threads at all.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

/// Jobs run outside the queue and result locks, so a panicking job
/// cannot poison them.
const UNPOISONED: &str = "no job runs while the pool's locks are held";

/// A fixed-width execution pool. Cheap to construct; threads are scoped to
/// each [`run_ordered`](ExecPool::run_ordered) call, so an idle pool holds
/// no OS resources and the pool can be shared freely across sessions.
#[derive(Debug, Clone)]
pub struct ExecPool {
    workers: usize,
    /// The threads one `run_ordered` call may use: `workers` clamped to
    /// the machine's `available_parallelism`, read once at construction.
    threads: usize,
}

impl ExecPool {
    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn new(workers: usize) -> ExecPool {
        let workers = workers.max(1);
        // On Linux `available_parallelism` reads cgroup files, so a
        // one-worker pool, which can never use a second thread, skips it.
        let threads = if workers == 1 {
            1
        } else {
            workers.min(default_workers())
        };
        ExecPool { workers, threads }
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `work` over every item, in parallel across up to `workers`
    /// threads, and return the results in input order.
    ///
    /// Items are claimed from a shared queue in input order, so with a
    /// single worker the execution order is exactly the serial loop's.
    /// A panic in any job is propagated to the caller with its original
    /// payload once every thread has stopped.
    ///
    /// The thread count is additionally clamped to the machine's
    /// `available_parallelism`, read once when the pool is built: the jobs
    /// are pure CPU (interpreter runs, no blocking I/O), so threads beyond
    /// the core count cannot add throughput — they only add context-switch
    /// and lock-handoff overhead. Measured on a 1-core container,
    /// `workers=2` made the table2 sessions phase ~46% slower than
    /// `workers=1` before this clamp. The calling thread drains the queue
    /// as one of the workers: a call over `n` items uses the clamped count
    /// or `n` threads, whichever is fewer, and spawns one fewer scoped
    /// helpers, so a one-thread call spawns none. Results are unaffected:
    /// the determinism contract above makes the merged output
    /// bit-identical for every thread count.
    pub fn run_ordered<T, R, F>(&self, items: Vec<T>, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let threads = self.threads.min(n);
        if threads <= 1 {
            // The exact serial code path: no threads, no queue, no locks.
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| work(i, item))
                .collect();
        }

        let queue: Mutex<VecDeque<(usize, T)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
        let drain = || loop {
            // Hold the queue lock only for the pop: jobs are chunky (whole
            // executor groups), so contention on this mutex is negligible.
            let job = queue.lock().expect(UNPOISONED).pop_front();
            let Some((index, item)) = job else {
                break;
            };
            let result = work(index, item);
            results.lock().expect(UNPOISONED)[index] = Some(result);
        };

        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads).map(|_| s.spawn(drain)).collect();
            // Catch the caller's own panic and join every helper
            // explicitly, so a panic resurfaces with its original payload
            // instead of the scope's generic message.
            let mut panic = std::panic::catch_unwind(AssertUnwindSafe(drain)).err();
            for helper in helpers {
                if let Err(payload) = helper.join() {
                    panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
        });

        results
            .into_inner()
            .expect(UNPOISONED)
            .into_iter()
            .map(|slot| slot.expect("every queued job produces a result"))
            .collect()
    }
}

/// The machine's available parallelism (1 when undeterminable).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_module;
    use crate::harness::{Executor, PackageIndex};
    use autotype_lang::Program;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        for workers in [1, 2, 4, 8] {
            let pool = ExecPool::new(workers);
            let items: Vec<usize> = (0..37).collect();
            let out = pool.run_ordered(items, |i, x| {
                assert_eq!(i, x);
                x * 10
            });
            assert_eq!(out, (0..37).map(|x| x * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn queue_drains_every_item_exactly_once() {
        let pool = ExecPool::new(4);
        let executed = AtomicUsize::new(0);
        let out = pool.run_ordered((0..100).collect::<Vec<usize>>(), |_, x| {
            executed.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(executed.load(Ordering::SeqCst), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = ExecPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.run_ordered(vec![5], |_, x: i32| x + 1), vec![6]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = ExecPool::new(4);
        let out: Vec<i32> = pool.run_ordered(Vec::<i32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let pool = ExecPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_ordered((0..8).collect::<Vec<usize>>(), |_, x| {
                if x == 3 {
                    panic!("job 3 exploded");
                }
                x
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("job 3 exploded"), "payload: {message}");
    }

    #[test]
    fn panic_propagates_from_the_caller_and_from_a_helper() {
        let pool = ExecPool::new(2);
        if pool.threads < 2 {
            return; // a one-core machine runs every job on the caller
        }
        let caller = std::thread::current().id();
        for panicking_on_caller in [true, false] {
            // Jobs on the other side wait until a panicking job has been
            // claimed, so both threads are certain to run a job.
            let claimed = std::sync::atomic::AtomicBool::new(false);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_ordered((0..8).collect::<Vec<usize>>(), |_, x| {
                    if (std::thread::current().id() == caller) == panicking_on_caller {
                        claimed.store(true, Ordering::SeqCst);
                        panic!("job {x} exploded");
                    }
                    while !claimed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    x
                })
            }));
            let payload = caught.expect_err("panic must propagate");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                message.starts_with("job ") && message.ends_with(" exploded"),
                "caller panicked: {panicking_on_caller}, payload: {message}"
            );
        }
    }

    #[test]
    fn fuel_exhaustion_is_deterministic_under_parallelism() {
        // Each job owns a clone of an executor whose candidate loops
        // forever; every clone must burn exactly the same fuel.
        let mut program = Program::new();
        program
            .add_file(
                "spin",
                "def f(s):\n    while True:\n        s = s\n    return s\n",
            )
            .unwrap();
        let (cands, _) = analyze_module(0, &program.file(0).module);
        let cand = cands.into_iter().next().expect("candidate");
        let packages = PackageIndex::new();
        let exec = Executor::new(program, &packages, 10_000);

        let mut burns: Vec<u64> = Vec::new();
        for workers in [1, 4] {
            let pool = ExecPool::new(workers);
            let jobs: Vec<Executor> = (0..8).map(|_| exec.clone()).collect();
            let fuel: Vec<u64> = pool.run_ordered(jobs, |_, mut e| {
                let out = e.run(&cand, "x", &packages);
                assert!(out.trace.has_exception("__FuelExhausted__"));
                out.fuel_used
            });
            assert!(
                fuel.iter().all(|f| *f == 10_000),
                "full budget burned: {fuel:?}"
            );
            burns.push(fuel.iter().sum());
        }
        assert_eq!(burns[0], burns[1]);
    }
}
