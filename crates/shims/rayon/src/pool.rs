//! The work-stealing pool behind [`crate::join`].
//!
//! # Architecture
//!
//! A [`Pool`] owns `threads - 1` worker threads (the thread calling
//! [`join`](crate::join) is the remaining unit of parallelism) plus one
//! mutex-protected [`VecDeque`] of pending jobs per worker and a shared
//! *injector* queue for jobs submitted from threads outside the pool.
//!
//! # Stealing discipline
//!
//! * A worker pops its **own** deque from the back (LIFO): the job it
//!   pushed last is the one whose data is hottest in cache and whose
//!   split siblings it is about to wait on.
//! * When its own deque is empty it **steals** — first from the
//!   injector, then from the other workers' deques, both from the
//!   **front** (FIFO): the oldest job in a deque is the biggest
//!   remaining split of that worker's tree, so one steal moves the most
//!   work per synchronization.
//! * A thread blocked in `join` waiting for its second closure does not
//!   spin idle: it first tries to *reclaim* the job (if nobody stole it
//!   yet it runs it inline, exactly as serial code would), and
//!   otherwise helps by stealing unrelated jobs until its job's latch
//!   flips.
//!
//! Jobs are borrowed from the joining thread's stack ([`StackJob`]) and
//! handed around as type-erased [`JobRef`] pointers; a state machine
//! (`PENDING → CLAIMED → DONE`) guarantees exactly one executor per job
//! and lets `join` prove no queue still references the job before its
//! stack frame dies.
//!
//! # Shutdown semantics
//!
//! The global pool ([`global`]) is created lazily on first use and is
//! **never** torn down: idle workers park on a condvar (with a 50 ms
//! re-check so a lost wakeup only costs latency, never progress) and
//! cost nothing while parked. Explicitly constructed pools (tests,
//! embedders) shut down on [`Drop`]: the shutdown flag is raised, every
//! parked worker is woken, and the handles are joined — by then all
//! jobs have completed, because `join` never returns before both of its
//! closures have.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Job lifecycle: queued and claimable.
const PENDING: u8 = 0;
/// Exactly one thread won the claim race and is executing the job.
const CLAIMED: u8 = 1;
/// Execution finished; result (or panic payload) is readable.
const DONE: u8 = 2;

/// A type-erased pointer to a [`StackJob`] living on some `join`
/// caller's stack, valid until that job reaches `DONE` (the caller
/// never returns before then).
pub(crate) struct JobRef {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: the pointee is a `StackJob` whose closure and result types
// are `Send`, and the state machine hands the pointer to exactly one
// executing thread at a time.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Runs the job if it is still unclaimed; a no-op for jobs the
    /// owner reclaimed inline after this reference was queued.
    unsafe fn execute(self) {
        // SAFETY: the caller guarantees `data` still points at a live
        // `StackJob` (the owner blocks in `join` until DONE), and
        // `exec` was instantiated for exactly that job type.
        unsafe { (self.exec)(self.data) };
    }
}

/// A two-way `join` job allocated on the caller's stack: the closure,
/// a slot for its result, and the claim/done latch.
pub(crate) struct StackJob<F, R> {
    state: AtomicU8,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<R>>,
    payload: UnsafeCell<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: cross-thread access is serialized by the `state` machine —
// `func` is touched only by the claim winner, `result`/`payload` are
// written before the `DONE` release store and read after an acquire
// load observes it.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(f: F) -> Self {
        StackJob {
            state: AtomicU8::new(PENDING),
            func: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            payload: UnsafeCell::new(None),
        }
    }

    fn as_job_ref(&self) -> JobRef {
        unsafe fn exec<F, R>(data: *const ())
        where
            F: FnOnce() -> R + Send,
            R: Send,
        {
            let job = unsafe { &*(data as *const StackJob<F, R>) };
            if job.try_claim() {
                unsafe { job.run_claimed() };
            }
        }
        JobRef {
            data: self as *const Self as *const (),
            exec: exec::<F, R>,
        }
    }

    /// Wins or loses the right to execute; exactly one caller ever wins.
    fn try_claim(&self) -> bool {
        self.state
            .compare_exchange(PENDING, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Runs the closure after a successful claim, capturing panics so
    /// they cross back to the joining thread instead of killing a
    /// worker.
    ///
    /// # Safety
    ///
    /// Caller must have won [`Self::try_claim`].
    unsafe fn run_claimed(&self) {
        let f = unsafe { (*self.func.get()).take() }.expect("claimed job has its closure");
        match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => unsafe { *self.result.get() = Some(r) },
            Err(p) => unsafe { *self.payload.get() = Some(p) },
        }
        self.state.store(DONE, Ordering::Release);
    }

    fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) == DONE
    }

    /// Extracts the result, resuming the job's panic if it had one.
    ///
    /// # Safety
    ///
    /// Caller must have observed `DONE` (or have executed the job on
    /// this thread).
    unsafe fn take_result(&self) -> R {
        if let Some(p) = unsafe { (*self.payload.get()).take() } {
            panic::resume_unwind(p);
        }
        unsafe { (*self.result.get()).take() }.expect("done job has a result")
    }
}

/// Shared state of one pool.
pub(crate) struct PoolState {
    /// One deque per worker thread; owners pop the back, thieves the
    /// front.
    deques: Vec<Mutex<VecDeque<JobRef>>>,
    /// Queue for jobs submitted by threads outside the pool.
    injector: Mutex<VecDeque<JobRef>>,
    /// Wakeup epoch: bumped under the lock on every push so a worker
    /// that saw empty queues can detect a racing submission before it
    /// parks.
    signal: Mutex<u64>,
    condvar: Condvar,
    shutdown: AtomicBool,
    /// Total parallelism (workers + the joining caller).
    threads: usize,
}

thread_local! {
    /// `(worker index, owning pool)` when the current thread is a pool
    /// worker. The raw pointer is only compared for identity, never
    /// dereferenced (each worker's `Arc` keeps its pool alive anyway).
    static WORKER: Cell<Option<(usize, *const PoolState)>> = const { Cell::new(None) };
}

impl PoolState {
    /// The calling thread's worker index in *this* pool, if any.
    fn current_worker(self: &Arc<Self>) -> Option<usize> {
        WORKER.with(|w| match w.get() {
            Some((index, pool)) if std::ptr::eq(pool, Arc::as_ptr(self)) => Some(index),
            _ => None,
        })
    }

    fn push(self: &Arc<Self>, job: JobRef) {
        match self.current_worker() {
            Some(i) => self.deques[i].lock().expect("deque lock").push_back(job),
            None => self.injector.lock().expect("injector lock").push_back(job),
        }
        let mut epoch = self.signal.lock().expect("signal lock");
        *epoch += 1;
        // Jobs are coarse (kernel-sized slices), so waking every parked
        // worker per push is noise, and it never strands a sleeper.
        self.condvar.notify_all();
    }

    /// Pops work: own deque (LIFO) first for workers, then the injector
    /// and every deque (FIFO steals).
    fn find_work(&self, me: Option<usize>) -> Option<JobRef> {
        if let Some(i) = me {
            if let Some(job) = self.deques[i].lock().expect("deque lock").pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().expect("injector lock").pop_front() {
            return Some(job);
        }
        let n = self.deques.len();
        let start = me.map_or(0, |i| i + 1);
        for k in 0..n {
            let j = (start + k) % n;
            if Some(j) == me {
                continue;
            }
            if let Some(job) = self.deques[j].lock().expect("deque lock").pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Removes `job` from the queue it was pushed to, by pointer
    /// identity. `Some` means nobody stole it and the caller now owns
    /// it exclusively; `None` means a thief holds it (or finished it).
    fn try_reclaim(&self, me: Option<usize>, data: *const ()) -> bool {
        let queue = match me {
            Some(i) => &self.deques[i],
            None => &self.injector,
        };
        let mut q = queue.lock().expect("queue lock");
        // Scan from the back: our job is the most recent push.
        match q.iter().rposition(|j| std::ptr::eq(j.data, data)) {
            Some(at) => {
                q.remove(at);
                true
            }
            None => false,
        }
    }

    fn worker_main(self: Arc<Self>, index: usize) {
        WORKER.with(|w| w.set(Some((index, Arc::as_ptr(&self)))));
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if let Some(job) = self.find_work(Some(index)) {
                unsafe { job.execute() };
                continue;
            }
            // Park. The epoch read/recheck closes the race where a job
            // is pushed between our last scan and the wait; the timeout
            // bounds the cost of any wakeup we still miss.
            let epoch = *self.signal.lock().expect("signal lock");
            if let Some(job) = self.find_work(Some(index)) {
                unsafe { job.execute() };
                continue;
            }
            let guard = self.signal.lock().expect("signal lock");
            if *guard == epoch && !self.shutdown.load(Ordering::Acquire) {
                let _ = self
                    .condvar
                    .wait_timeout(guard, Duration::from_millis(50))
                    .expect("signal lock");
            }
        }
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Most code uses the process-global pool implicitly through
/// [`crate::join`]; constructing a `Pool` directly exists for tests and
/// for embedders that want an isolated worker set.
pub struct Pool {
    state: Arc<PoolState>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// A pool with `threads` total units of parallelism (`threads - 1`
    /// worker threads; the thread calling [`Pool::join`] is the last).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let workers = threads - 1;
        let state = Arc::new(PoolState {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            signal: Mutex::new(0),
            condvar: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads,
        });
        let handles = (0..workers)
            .map(|index| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{index}"))
                    .spawn(move || state.worker_main(index))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { state, handles }
    }

    /// Total parallelism (workers + the joining caller).
    pub fn threads(&self) -> usize {
        self.state.threads
    }

    /// Two-way fork/join on this pool; see [`crate::join`].
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.state.threads <= 1 {
            let ra = a();
            let rb = b();
            return (ra, rb);
        }
        join_in(&self.state, a, b)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        {
            let mut epoch = self.state.signal.lock().expect("signal lock");
            *epoch += 1;
            self.state.condvar.notify_all();
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("pool worker exits cleanly");
        }
    }
}

/// The fork/join core: publish `b`, run `a` inline, then reclaim or
/// wait for `b` — helping with other queued jobs instead of spinning.
fn join_in<A, B, RA, RB>(state: &Arc<PoolState>, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let me = state.current_worker();
    let job_b = StackJob::new(b);
    let data = job_b.as_job_ref().data;
    state.push(job_b.as_job_ref());

    // `job_b` borrows this stack frame, so even if `a` panics we must
    // not unwind past it while a queue or a thief still holds the
    // pointer: reclaim (dropping `b` unexecuted) or wait for the thief.
    let ra = match panic::catch_unwind(AssertUnwindSafe(a)) {
        Ok(ra) => ra,
        Err(primary) => {
            if !state.try_reclaim(me, data) {
                while !job_b.is_done() {
                    std::thread::yield_now();
                }
                // `a`'s panic wins; a concurrent panic from `b` is
                // dropped with the job.
                let _ = unsafe { (*job_b.payload.get()).take() };
            }
            panic::resume_unwind(primary);
        }
    };

    if state.try_reclaim(me, data) {
        // Nobody stole it: run inline, exactly as serial code would.
        let claimed = job_b.try_claim();
        debug_assert!(claimed, "reclaimed job cannot have been claimed");
        unsafe { job_b.run_claimed() };
        let rb = unsafe { job_b.take_result() };
        return (ra, rb);
    }
    // Stolen: help with other work until the thief flips the latch.
    while !job_b.is_done() {
        match state.find_work(me) {
            Some(job) => unsafe { job.execute() },
            None => std::thread::yield_now(),
        }
    }
    let rb = unsafe { job_b.take_result() };
    (ra, rb)
}

/// The lazily-created process-global pool.
///
/// Sized by the `RAYON_NUM_THREADS` environment variable when set to a
/// positive integer (mirroring real rayon), otherwise by
/// [`std::thread::available_parallelism`]. Created on first use and
/// intentionally leaked — see the module docs on shutdown semantics.
pub(crate) fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            });
        Pool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Parallel recursive sum over the pool — exercises deep nesting,
    /// stealing, and inline reclaims all at once.
    fn sum(pool: &Pool, lo: u64, hi: u64) -> u64 {
        if hi - lo <= 64 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = pool.join(|| sum(pool, lo, mid), || sum(pool, mid, hi));
        a + b
    }

    #[test]
    fn pool_join_computes_both_sides() {
        let pool = Pool::new(4);
        let (a, b) = pool.join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn nested_joins_sum_correctly_across_pool_sizes() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let n = 100_000u64;
            assert_eq!(sum(&pool, 0, n), n * (n - 1) / 2, "threads={threads}");
        }
    }

    #[test]
    fn many_external_callers_share_one_pool() {
        let pool = Pool::new(3);
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    let n = 20_000u64;
                    assert_eq!(sum(&pool, 0, n), n * (n - 1) / 2);
                });
            }
        });
    }

    #[test]
    fn workers_actually_execute_jobs() {
        // With enough recursive splits and a 4-thread pool, at least one
        // leaf must run on a worker thread (the caller alone cannot hold
        // every claim when real workers are stealing).
        let pool = Pool::new(4);
        let on_worker = AtomicUsize::new(0);
        fn walk(pool: &Pool, depth: usize, on_worker: &AtomicUsize) {
            if depth == 0 {
                if WORKER.with(std::cell::Cell::get).is_some() {
                    on_worker.fetch_add(1, Ordering::Relaxed);
                }
                // Leaf work long enough that thieves get a chance. It is
                // a timed spin, so it lasts as long in a release build as
                // in a debug one; a plain sum would fold to a constant.
                let until = std::time::Instant::now() + Duration::from_micros(20);
                while std::time::Instant::now() < until {
                    std::hint::spin_loop();
                }
                return;
            }
            pool.join(
                || walk(pool, depth - 1, on_worker),
                || walk(pool, depth - 1, on_worker),
            );
        }
        walk(&pool, 10, &on_worker);
        assert!(
            on_worker.load(Ordering::Relaxed) > 0,
            "no leaf ever ran on a pool worker"
        );
    }

    #[test]
    fn panic_in_stolen_side_propagates_to_caller() {
        let pool = Pool::new(4);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join(
                || std::hint::black_box((0..10_000u64).sum::<u64>()),
                || panic!("boom from b"),
            );
        }));
        let payload = caught.expect_err("join must propagate b's panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom from b");
    }

    #[test]
    fn panic_in_first_side_does_not_leak_the_job() {
        let pool = Pool::new(2);
        for _ in 0..50 {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.join(|| panic!("boom from a"), || 7);
            }));
            assert!(caught.is_err());
        }
        // The pool stays usable afterwards.
        let (a, b) = pool.join(|| 3, || 4);
        assert_eq!((a, b), (3, 4));
    }

    #[test]
    fn drop_joins_all_workers() {
        for _ in 0..10 {
            let pool = Pool::new(4);
            let n = 10_000u64;
            assert_eq!(sum(&pool, 0, n), n * (n - 1) / 2);
            drop(pool); // must not hang or panic
        }
    }
}
