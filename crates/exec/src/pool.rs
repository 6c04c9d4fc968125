//! Scoped worker pool for the trace-collection loop and the
//! column-detection scheduler.
//!
//! The hot phase of a session executes every candidate function on every
//! positive and negative example — thousands of independent interpreter
//! runs — and column detection (§9.1) probes detectors in waves of single
//! `(detector, value)` cells. [`ExecPool::crew`] opens a **crew**: the
//! calling thread plus up to N − 1 scoped helpers (std only:
//! `std::thread::scope`, one mutex-guarded work queue and one condition
//! variable) that stay alive for the whole closure. Any number of ordered
//! batches run on the same helpers, so a batch costs a wake-up rather
//! than a spawn and a join, and each batch returns its results **in input
//! order**, so downstream consumers see exactly the sequence the serial
//! loop would have produced. [`ExecPool::run_ordered`] is a crew that
//! runs one batch.
//!
//! Determinism contract: if each job is a pure function of its input (the
//! engine guarantees this: an executor never changes after it is built,
//! so jobs share it), the merged output is bit-identical for every worker count,
//! including `workers == 1`, which does not spawn any threads at all.
//!
//! ## Seats
//!
//! Each thread of a crew has a **seat**, read with [`seat`]: the calling
//! thread sits in seat 0 and the k-th helper in seat k. Every thread
//! outside a crew also reads 0. A job uses its seat to pick per-thread
//! state without being passed an index; `PackValidator` picks its seat's
//! executor this way, so two threads never touch the same AST `Arc`s.
//!
//! ## Hand-off
//!
//! A crew thread that finds nothing to do (a helper waiting for the next
//! batch, or the caller waiting for its batch's last running job) first
//! spins for up to 100 µs (`SPIN`) on a generation counter that is
//! bumped, under the lock, wherever the condition variable is notified.
//! Only then does it re-lock, re-check and park on the condition variable,
//! so no wake-up is lost. A one-thread crew never waits and so never
//! spins.
//!
//! Measured on the 2-vCPU bench VM with a microbenchmark (2,000 two-job
//! batches of 300 µs jobs per gap, timed from just before `Crew::run` to
//! the helper's first claimed job), a parked helper started the next batch
//! a median 8.0–9.6 µs after `notify_all` when the caller's gap between
//! batches was 0–100 µs (p99 20–144 µs), and 32 µs (p99 244 µs) after a
//! 1 ms gap: one to four probes' worth of time per wave. With the spin the
//! helper starts a median 1.4–1.5 µs after a gap of 0–20 µs; a 100 µs gap
//! outlasts the spin and still parks. A 60-wave batch of 8 jobs × 7 µs
//! took 3.4 ms serially, 2.8–2.9 ms on a parking crew and 2.1–2.2 ms with
//! the spin.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Jobs run outside the crew's lock, so a panicking job cannot poison it.
const UNPOISONED: &str = "no job runs while the crew's lock is held";

/// How long an idle crew thread spins for a new generation before it
/// parks. It covers the scheduler's gap between waves and a probe or two
/// of the last running job (a probe takes 5–8 µs), so the crew's threads
/// rarely park inside a detection, while an idle thread burns at most
/// this much before it sleeps.
const SPIN: Duration = Duration::from_micros(100);

thread_local! {
    static SEAT: Cell<usize> = const { Cell::new(0) };
}

/// The calling thread's crew seat: k on a crew's k-th helper, 0 on a
/// crew's calling thread and on every thread outside a crew.
pub fn seat() -> usize {
    SEAT.with(Cell::get)
}

/// A fixed-width execution pool. Cheap to construct; threads are scoped to
/// a [`crew`](ExecPool::crew), so an idle pool holds no OS threads and the
/// pool can be shared freely across sessions.
#[derive(Debug, Clone)]
pub struct ExecPool {
    workers: usize,
    /// The threads one crew may use: `workers` clamped to the machine's
    /// `available_parallelism`, read once at construction.
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

    /// The threads one crew may use, and so the number of crew seats:
    /// [`workers`](Self::workers) clamped to the machine's parallelism.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `work` over every item, in parallel across up to `workers`
    /// threads, and return the results in input order: a
    /// [`crew`](Self::crew) that runs one batch.
    pub fn run_ordered<T, R, F>(&self, items: Vec<T>, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.crew(work, |crew| crew.run(items))
    }

    /// Open a crew that runs `work` on the items of every batch `body`
    /// passes to [`Crew::run`], and return what `body` returns.
    ///
    /// `work` is fixed for the life of the crew, so it may borrow only
    /// data from outside it; each batch's items are owned. Items are
    /// claimed from a shared queue in input order, so with a single
    /// thread the execution order is exactly the serial loop's.
    ///
    /// The thread count is clamped to the machine's
    /// `available_parallelism`, read once when the pool is built: the jobs
    /// are pure CPU (interpreter runs, no blocking I/O), so threads beyond
    /// the core count cannot add throughput — they only add context-switch
    /// and lock-handoff overhead. Measured on a 1-core container,
    /// `workers=2` made the table2 sessions phase ~46% slower than
    /// `workers=1` before this clamp. The calling thread drains each
    /// batch as one of the workers. Helpers are spawned lazily: a batch of
    /// `n` items grows the crew to the clamped count or `n` threads,
    /// whichever is fewer, so a batch of 0 or 1 items, or any batch of a
    /// one-thread pool, runs inline and spawns nothing. Between batches
    /// the helpers wait on a condition variable; when `body` returns or
    /// unwinds they are shut down and joined. Results are unaffected: the
    /// determinism contract above makes every batch's output
    /// bit-identical for every thread count.
    pub fn crew<T, R, F, O>(&self, work: F, body: impl FnOnce(&mut Crew<'_, '_, T, R>) -> O) -> O
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let shared = Shared {
            board: Mutex::new(Board {
                queue: VecDeque::new(),
                results: Vec::new(),
                running: 0,
                panic: None,
                closed: false,
            }),
            signal: Condvar::new(),
            generation: AtomicUsize::new(0),
        };
        std::thread::scope(|scope| {
            body(&mut Crew {
                threads: self.threads,
                helpers: Vec::new(),
                shared: &shared,
                work: &work,
                scope,
            })
        })
    }
}

/// An open crew of [`ExecPool::crew`]: the calling thread plus the scoped
/// helpers spawned so far, all running one fixed work function.
pub struct Crew<'scope, 'env, T, R> {
    threads: usize,
    helpers: Vec<ScopedJoinHandle<'scope, ()>>,
    shared: &'env Shared<T, R>,
    work: &'env (dyn Fn(usize, T) -> R + Sync),
    scope: &'scope Scope<'scope, 'env>,
}

impl<T: Send, R: Send> Crew<'_, '_, T, R> {
    /// Run the crew's work function over every item and return the
    /// results in input order. A panic in any job resurfaces here with its
    /// original payload once the batch has stopped: no job starts after
    /// it, and every job already running finishes first.
    pub fn run(&mut self, items: Vec<T>) -> Vec<R> {
        let n = items.len();
        let threads = self.threads.min(n);
        if threads <= 1 {
            // The exact serial code path: no threads, no queue, no locks.
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| (self.work)(i, item))
                .collect();
        }

        let mut board = self.shared.lock();
        board.queue.extend(items.into_iter().enumerate());
        board.results.resize_with(n, || None);
        self.shared.notify_all(&board);
        drop(board);
        while self.helpers.len() + 1 < threads {
            let (shared, work) = (self.shared, self.work);
            let seat = self.helpers.len() + 1;
            self.helpers.push(self.scope.spawn(move || {
                SEAT.with(|s| s.set(seat));
                drop(shared.drain(work, shared.lock(), |board| board.closed));
            }));
        }

        // The queue is empty when `drain` returns, so the batch has
        // stopped once no helper is running a job.
        let mut board = self
            .shared
            .drain(self.work, self.shared.lock(), |board| board.running == 0);
        let results = std::mem::take(&mut board.results);
        if let Some(payload) = board.panic.take() {
            drop(board);
            std::panic::resume_unwind(payload);
        }
        drop(board);
        results
            .into_iter()
            .map(|slot| slot.expect("every queued job produces a result"))
            .collect()
    }
}

impl<T, R> Drop for Crew<'_, '_, T, R> {
    /// Release the helpers and join each one.
    ///
    /// The scope alone would wait only until the helpers' closures return.
    /// A join waits until each thread has exited, and with it until the C
    /// allocator has handed the thread's malloc arena back for reuse.
    /// Without the join the next crew's helper can start while that arena
    /// is still attached and open a fresh one, so how many arenas the
    /// process ends up with, and its peak memory, would depend on thread
    /// timing.
    fn drop(&mut self) {
        let mut board = self
            .shared
            .board
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        board.closed = true;
        self.shared.notify_all(&board);
        drop(board);
        for helper in self.helpers.drain(..) {
            // Jobs run under `catch_unwind`, so a helper returns normally
            // unless the crew's own bookkeeping failed.
            if let Err(payload) = helper.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

/// What a crew's threads share, behind one lock.
struct Board<T, R> {
    /// The current batch's unclaimed jobs, with their input indices.
    queue: VecDeque<(usize, T)>,
    /// The current batch's results, by input index.
    results: Vec<Option<R>>,
    /// Jobs claimed and not yet stored.
    running: usize,
    /// The current batch's first panic payload.
    panic: Option<Box<dyn Any + Send>>,
    /// Set when the crew ends: idle helpers exit.
    closed: bool,
}

struct Shared<T, R> {
    board: Mutex<Board<T, R>>,
    /// Notified when a batch is posted, when a batch's last running job
    /// is stored, and when the crew closes.
    signal: Condvar,
    /// Bumped with every notification, so a spinning thread sees one
    /// without taking the lock.
    generation: AtomicUsize,
}

impl<T, R> Shared<T, R> {
    fn lock(&self) -> MutexGuard<'_, Board<T, R>> {
        self.board.lock().expect(UNPOISONED)
    }

    /// Wake every parked thread. Called with the lock held, so a thread
    /// that re-checks under the lock and then parks cannot miss it.
    fn notify_all(&self, _held: &MutexGuard<'_, Board<T, R>>) {
        self.generation.fetch_add(1, Ordering::Relaxed);
        self.signal.notify_all();
    }

    /// Claim and run jobs, holding the lock only to pop a job or store its
    /// outcome, until `done` holds. A panicking job empties the queue, so
    /// the batch stops and the caller re-raises the payload.
    ///
    /// With nothing to claim and `done` false, the thread spins for up to
    /// [`SPIN`], re-checking under the lock at each new generation, and
    /// then parks on the condition variable.
    fn drain<'a>(
        &'a self,
        work: &(dyn Fn(usize, T) -> R + Sync),
        mut board: MutexGuard<'a, Board<T, R>>,
        done: impl Fn(&Board<T, R>) -> bool,
    ) -> MutexGuard<'a, Board<T, R>> {
        let mut spin_until = None;
        loop {
            if let Some((index, item)) = board.queue.pop_front() {
                board.running += 1;
                drop(board);
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| work(index, item)));
                board = self.lock();
                board.running -= 1;
                match outcome {
                    Ok(result) => board.results[index] = Some(result),
                    Err(payload) => {
                        board.queue.clear();
                        board.panic.get_or_insert(payload);
                    }
                }
                if board.running == 0 && board.queue.is_empty() {
                    self.notify_all(&board);
                }
                spin_until = None;
            } else if done(&board) {
                return board;
            } else {
                let deadline = *spin_until.get_or_insert_with(|| Instant::now() + SPIN);
                if Instant::now() < deadline {
                    // The lock orders the board's data; the counter only
                    // says when to look again.
                    let seen = self.generation.load(Ordering::Relaxed);
                    drop(board);
                    while self.generation.load(Ordering::Relaxed) == seen
                        && Instant::now() < deadline
                    {
                        std::hint::spin_loop();
                    }
                    board = self.lock();
                } else {
                    board = self.signal.wait(board).expect(UNPOISONED);
                    spin_until = None;
                }
            }
        }
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

    /// The panic message of a caught payload.
    fn message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn a_crew_spawns_its_helpers_once_across_batches() {
        let pool = ExecPool::new(4);
        if pool.threads < 2 {
            return; // a one-core machine runs every job on the caller
        }
        let caller = std::thread::current().id();
        let helper_ran = std::sync::atomic::AtomicBool::new(false);
        let helpers = Mutex::new(std::collections::HashSet::new());
        pool.crew(
            |i, x: usize| {
                let me = std::thread::current().id();
                if me == caller {
                    // Hold the caller until a helper has run a job of this
                    // batch, so every batch uses a helper.
                    while !helper_ran.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                } else {
                    helpers.lock().unwrap().insert(me);
                    helper_ran.store(true, Ordering::SeqCst);
                }
                (i, x)
            },
            |crew| {
                for batch in 0..6 {
                    helper_ran.store(false, Ordering::SeqCst);
                    let items: Vec<usize> = (0..8).map(|i| batch * 100 + i).collect();
                    let out = crew.run(items.clone());
                    assert_eq!(out, items.into_iter().enumerate().collect::<Vec<_>>());
                }
            },
        );
        let helpers = helpers.into_inner().unwrap();
        assert!(
            !helpers.is_empty() && helpers.len() < pool.threads,
            "{} helper threads for {} threads",
            helpers.len(),
            pool.threads
        );
    }

    #[test]
    fn a_crew_joins_its_helpers_before_it_returns() {
        // A helper's thread-locals are destroyed as its thread exits,
        // after its closure has returned: only a join waits for that.
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(20));
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: std::cell::RefCell<Option<OnExit>> =
                const { std::cell::RefCell::new(None) };
        }
        static EXITED: AtomicUsize = AtomicUsize::new(0);

        let pool = ExecPool::new(2);
        if pool.threads < 2 {
            return; // a one-core machine runs every job on the caller
        }
        let caller = std::thread::current().id();
        for crews in 1..=3 {
            let helper_ran = std::sync::atomic::AtomicBool::new(false);
            pool.run_ordered((0..8).collect::<Vec<usize>>(), |_, x| {
                if std::thread::current().id() == caller {
                    while !helper_ran.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                } else {
                    ON_EXIT.with(|slot| {
                        slot.borrow_mut().get_or_insert_with(|| OnExit);
                    });
                    helper_ran.store(true, Ordering::SeqCst);
                }
                x
            });
            assert_eq!(EXITED.load(Ordering::SeqCst), crews, "helper still exiting");
        }
    }

    #[test]
    fn a_panic_in_a_later_batch_propagates_and_stops_the_crew() {
        let pool = ExecPool::new(2);
        if pool.threads < 2 {
            return; // a one-core machine runs every job on the caller
        }
        let caller = std::thread::current().id();
        for panicking_on_caller in [true, false] {
            let claimed = std::sync::atomic::AtomicBool::new(false);
            let started = AtomicUsize::new(0);
            let finished = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.crew(
                    |_, (batch, x): (usize, usize)| {
                        started.fetch_add(1, Ordering::SeqCst);
                        if batch == 3 {
                            // As in the one-batch test: the other side waits
                            // until the panicking job has been claimed.
                            if (std::thread::current().id() == caller) == panicking_on_caller {
                                claimed.store(true, Ordering::SeqCst);
                                panic!("batch {batch} job {x} exploded");
                            }
                            while !claimed.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                        x
                    },
                    |crew| {
                        for batch in 0..6 {
                            crew.run((0..8).map(|x| (batch, x)).collect());
                        }
                    },
                )
            }));
            let payload = caught.expect_err("panic must propagate");
            let message = message(&*payload);
            assert!(
                message.starts_with("batch 3 job ") && message.ends_with(" exploded"),
                "caller panicked: {panicking_on_caller}, payload: {message}"
            );
            // Batches 0..3 ran in full, no job of a later batch started,
            // and no job was still running when the crew returned.
            let (started, finished) = (started.into_inner(), finished.into_inner());
            assert!((3 * 8 + 1..=4 * 8).contains(&started), "{started} started");
            assert_eq!(finished + 1, started, "one job panicked");
        }
    }

    #[test]
    fn a_one_thread_crew_runs_every_job_on_the_caller() {
        let pool = ExecPool::new(1);
        let caller = std::thread::current().id();
        let out = pool.crew(
            |i, x: usize| {
                assert_eq!(std::thread::current().id(), caller);
                i + x
            },
            |crew| {
                (0..5)
                    .map(|n| crew.run(vec![10; n]))
                    .collect::<Vec<Vec<usize>>>()
            },
        );
        assert_eq!(out[3], vec![10, 11, 12]);
        assert_eq!(out.concat().len(), 10);
    }

    #[test]
    fn empty_and_one_item_batches_run_inline() {
        let pool = ExecPool::new(4);
        let caller = std::thread::current().id();
        pool.crew(
            |_, x: i32| (std::thread::current().id(), x * 2),
            |crew| {
                assert!(crew.run(Vec::new()).is_empty());
                assert_eq!(crew.run(vec![21]), vec![(caller, 42)]);
                // After helpers exist, small batches still run inline.
                let wide: Vec<i32> = crew
                    .run((0..16).collect())
                    .into_iter()
                    .map(|r| r.1)
                    .collect();
                assert_eq!(wide, (0..16).map(|x| x * 2).collect::<Vec<_>>());
                assert!(crew.run(Vec::new()).is_empty());
                assert_eq!(crew.run(vec![-1]), vec![(caller, -2)]);
            },
        );
    }

    #[test]
    fn the_caller_and_outsiders_sit_in_seat_0_and_helper_k_in_seat_k() {
        assert_eq!(seat(), 0, "a thread outside any crew");
        std::thread::spawn(|| assert_eq!(seat(), 0, "a spawned thread"))
            .join()
            .unwrap();
        let pool = ExecPool::new(4);
        if pool.threads < 2 {
            return; // a one-core machine runs every job on the caller
        }
        // Each job waits at a barrier, so every thread runs exactly one.
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(pool.threads);
        let seats = pool.run_ordered(vec![(); pool.threads], |_, ()| {
            barrier.wait();
            (std::thread::current().id() == caller, seat())
        });
        assert_eq!(seats.iter().filter(|&&s| s == (true, 0)).count(), 1);
        let mut helpers: Vec<usize> = seats.iter().filter(|s| !s.0).map(|s| s.1).collect();
        helpers.sort_unstable();
        assert_eq!(helpers, (1..pool.threads).collect::<Vec<_>>());
        assert_eq!(seat(), 0, "the caller once the crew is gone");
    }

    #[test]
    fn thousands_of_small_batches_hand_off_in_order() {
        // On a thread of its own, so a lost wake-up fails the test instead
        // of hanging it.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = ExecPool::new(2);
            pool.crew(
                |i, x: usize| {
                    if x.is_multiple_of(7) {
                        std::thread::sleep(std::time::Duration::from_micros(20));
                    }
                    x * 3 + i
                },
                |crew| {
                    for batch in 0..5000_usize {
                        if batch.is_multiple_of(500) {
                            // Long enough for idle threads to park.
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        let items: Vec<usize> =
                            (0..2 + batch % 2).map(|i| batch * 10 + i).collect();
                        let want: Vec<usize> =
                            items.iter().enumerate().map(|(i, x)| x * 3 + i).collect();
                        assert_eq!(crew.run(items), want, "batch {batch}");
                    }
                },
            );
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("every batch finishes");
    }

    #[test]
    fn fuel_exhaustion_is_deterministic_under_parallelism() {
        // Every job shares one executor whose candidate loops forever;
        // every run must burn exactly the same fuel.
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
            let fuel: Vec<u64> = pool.run_ordered((0..8).collect(), |_, _: u32| {
                let out = exec.run(&cand, "x", &packages);
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
