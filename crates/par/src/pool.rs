//! Work-stealing pool internals: worker threads, per-worker deques, scopes.
//!
//! The pool is deliberately simple: one `Mutex<VecDeque>` per worker, the
//! submitting thread places tasks round-robin, each worker pops its own
//! queue from the back (LIFO, cache-warm) and steals from other queues'
//! fronts (FIFO, oldest first). ENLD tasks are coarse — a row block of a
//! matmul, a KD-tree build, a batch of k-NN queries — so a lock per
//! push/pop is far below the noise floor and buys us `std`-only simplicity
//! over lock-free deques.
//!
//! Determinism is **not** the pool's job: tasks may run in any order on any
//! worker. The primitives in `lib.rs` provide determinism on top by fixing
//! chunk boundaries independently of the thread count and merging partial
//! results in chunk order.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use enld_telemetry::metrics::{self, Counter, Gauge};
use enld_telemetry::{self as telemetry, Level, TraceContext};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Runs a task body under a `par.task` span parented to the submitting
/// span (captured at [`Scope::spawn`]), so cross-thread execution stays
/// one connected trace. With no captured context the body runs bare.
fn run_traced(ctx: Option<TraceContext>, f: impl FnOnce()) {
    match ctx {
        Some(ctx) => {
            let _span = telemetry::trace_span("par.task").follows(ctx).entered();
            f();
        }
        None => f(),
    }
}

thread_local! {
    /// Set for the lifetime of a worker thread: `(pool shared state, worker id)`.
    /// Lets nested scopes opened from inside a task reuse the owning pool and
    /// lets the helping wait-loop pop the worker's own queue first.
    static WORKER: RefCell<Option<(Arc<Shared>, usize)>> = const { RefCell::new(None) };
}

/// Returns the shared state of the pool whose worker is running the current
/// thread, if any.
pub(crate) fn worker_shared() -> Option<Arc<Shared>> {
    WORKER.with(|w| w.borrow().as_ref().map(|(s, _)| Arc::clone(s)))
}

fn worker_id() -> Option<usize> {
    WORKER.with(|w| w.borrow().as_ref().map(|&(_, id)| id))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Task panics are caught before they can poison pool mutexes; if one
    // slips through anyway, the queue contents are still well-formed.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the pool owner, its workers, and in-flight scopes.
pub(crate) struct Shared {
    /// One deque per worker. The pool spawns `threads - 1` workers: the
    /// thread that opened the scope is the remaining executor (it helps run
    /// tasks while waiting), so `threads` is the true parallelism budget.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Total thread budget including the scope-opening caller.
    threads: usize,
    /// Approximate number of queued tasks; lets idle workers skip the scan.
    queued: AtomicUsize,
    /// Round-robin cursor for task placement.
    next_queue: AtomicUsize,
    shutdown: AtomicBool,
    /// Idle workers park on this pair between queue scans.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Per-worker busy nanoseconds, mirrored into `busy_gauges`.
    busy_nanos: Vec<AtomicU64>,
    tasks_total: Arc<Counter>,
    steals_total: Arc<Counter>,
    busy_gauges: Vec<Arc<Gauge>>,
}

impl Shared {
    fn new(threads: usize) -> Self {
        let workers = threads.saturating_sub(1);
        let registry = metrics::global();
        registry.gauge("enld.par.threads").set(threads as f64);
        Self {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            threads,
            queued: AtomicUsize::new(0),
            next_queue: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            busy_nanos: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            tasks_total: registry.counter("enld.par.tasks_total"),
            steals_total: registry.counter("enld.par.steals_total"),
            busy_gauges: (0..workers)
                .map(|i| registry.gauge(&format!("enld.par.worker{i}.busy_secs")))
                .collect(),
        }
    }

    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    fn push(&self, task: Task) {
        let idx = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        lock(&self.queues[idx]).push_back(task);
        self.queued.fetch_add(1, Ordering::Release);
        // Notify under the sleep lock so a worker that just checked `queued`
        // and is about to wait cannot miss the wakeup.
        let _guard = lock(&self.sleep);
        self.wake.notify_one();
    }

    /// Pops a task: the worker's own queue back first, then other queues'
    /// fronts. Returns `(task, was_stolen)`.
    fn take(&self, own: Option<usize>) -> Option<(Task, bool)> {
        if self.queued.load(Ordering::Acquire) == 0 {
            return None;
        }
        if let Some(id) = own {
            if let Some(task) = lock(&self.queues[id]).pop_back() {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                return Some((task, false));
            }
        }
        let n = self.queues.len();
        let start = own.map_or(0, |id| id + 1);
        for off in 0..n {
            let idx = (start + off) % n;
            if Some(idx) == own {
                continue;
            }
            if let Some(task) = lock(&self.queues[idx]).pop_front() {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                // Only a worker taking from a sibling's queue counts as a
                // steal; the scope-opening caller helping out does not.
                return Some((task, own.is_some()));
            }
        }
        None
    }

    fn run_task(&self, task: Task, worker: Option<usize>) {
        let start = Instant::now();
        task(); // panics are caught inside the scope wrapper
        self.tasks_total.inc();
        if let Some(id) = worker {
            let nanos = start.elapsed().as_nanos() as u64;
            let total = self.busy_nanos[id].fetch_add(nanos, Ordering::Relaxed) + nanos;
            self.busy_gauges[id].set(total as f64 / 1e9);
        }
    }
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((Arc::clone(&shared), id)));
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match shared.take(Some(id)) {
            Some((task, stolen)) => {
                if stolen {
                    shared.steals_total.inc();
                }
                shared.run_task(task, Some(id));
            }
            None => {
                let guard = lock(&shared.sleep);
                if shared.queued.load(Ordering::Acquire) == 0
                    && !shared.shutdown.load(Ordering::Acquire)
                {
                    // Timed wait: cheap insurance against any lost-wakeup
                    // path; an idle re-scan costs a few try-locks.
                    let _ = shared.wake.wait_timeout(guard, Duration::from_millis(1));
                }
            }
        }
    }
    WORKER.with(|w| *w.borrow_mut() = None);
}

/// A work-stealing thread pool with scoped task submission.
///
/// `threads` counts the scope-opening caller: `new(4)` spawns three workers
/// and the caller becomes the fourth executor while it waits. `new(1)` spawns
/// nothing and every `Scope::spawn` runs inline — the sequential fallback.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared::new(threads));
        let workers = (0..threads - 1)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("enld-par-{id}"))
                    .spawn(move || worker_loop(shared, id))
                    .expect("spawn enld-par worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Thread budget of this pool (including the scope-opening caller).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    pub(crate) fn shared_arc(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Opens a scope in which borrowed-data tasks can be spawned; returns
    /// once every spawned task has finished. See `scope_shared`.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'env>) -> R) -> R {
        scope_shared(&self.shared, f)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = lock(&self.shared.sleep);
            self.shared.wake.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[derive(Default)]
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Handle for spawning tasks that may borrow data outliving the scope body.
pub struct Scope<'env> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    sequential: bool,
    /// Invariant over `'env`, as for `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns a task. On a 1-thread pool the task runs inline, immediately.
    ///
    /// A panicking task does not tear down the pool: the first panic payload
    /// is captured and resumed on the scope-opening thread once all sibling
    /// tasks have finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        // Capture the submitter's trace context only when a trace-level
        // sink is live: the disabled path stays one relaxed atomic load,
        // keeping untraced spawns inside the benchmark's noise floor.
        let ctx =
            if telemetry::enabled(Level::Trace) { telemetry::current_context() } else { None };
        if self.sequential {
            // Inline execution; an unwind propagates through the scope body
            // and is re-raised at the end of `scope_shared`, matching the
            // parallel path's "panic surfaces at scope exit" contract.
            enld_chaos::fail_point("par.task.run");
            run_traced(ctx, f);
            return;
        }
        let state = Arc::clone(&self.state);
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            // The failpoint sits inside catch_unwind on purpose: an injected
            // panic must ride the same capture-and-re-raise path as a real
            // task panic, never strand the scope's pending count.
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| {
                enld_chaos::fail_point("par.task.run");
                run_traced(ctx, f);
            })) {
                let mut slot = lock(&state.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = lock(&state.pending);
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: `scope_shared` does not return until `pending` reaches
        // zero, i.e. until this task has run to completion — even if the
        // scope body panics. The task therefore never outlives `'env`, so
        // erasing the lifetime to `'static` for queue storage is sound.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        *lock(&self.state.pending) += 1;
        self.shared.push(task);
    }
}

/// Runs `f` with a [`Scope`] bound to `shared`, then blocks until every
/// spawned task has completed. While blocked, the calling thread *helps*:
/// it pops queued tasks (its own queue first if it is itself a pool worker,
/// which makes nested scopes deadlock-free) and executes them.
pub(crate) fn scope_shared<'env, R>(shared: &Arc<Shared>, f: impl FnOnce(&Scope<'env>) -> R) -> R {
    let state = Arc::new(ScopeState::default());
    let scope = Scope {
        shared: Arc::clone(shared),
        state: Arc::clone(&state),
        sequential: shared.threads == 1,
        _env: PhantomData,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
    // Always drain: tasks borrow `'env` data, so returning (or unwinding)
    // before they finish would be unsound.
    let own = worker_id();
    loop {
        if *lock(&state.pending) == 0 {
            break;
        }
        if let Some((task, _)) = shared.take(own) {
            shared.run_task(task, None);
        } else {
            let pending = lock(&state.pending);
            if *pending == 0 {
                break;
            }
            let _ = state.done.wait_timeout(pending, Duration::from_millis(1));
        }
    }
    if let Some(payload) = lock(&state.panic).take() {
        panic::resume_unwind(payload);
    }
    match result {
        Ok(value) => value,
        Err(payload) => panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_all_tasks_and_returns_body_value() {
        let pool = ThreadPool::new(4);
        let hits = AtomicUsize::new(0);
        let out = pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            "body"
        });
        assert_eq!(out, "body");
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let here = std::thread::current().id();
        pool.scope(|s| {
            s.spawn(move || assert_eq!(std::thread::current().id(), here));
        });
    }

    #[test]
    fn panic_propagates_to_scope_caller() {
        let pool = ThreadPool::new(4);
        let survivors = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task boom"));
                for _ in 0..8 {
                    s.spawn(|| {
                        survivors.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = caught.expect_err("scope must re-raise the task panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task boom");
        // Sibling tasks still ran; one bad task cannot wedge the pool.
        assert_eq!(survivors.load(Ordering::Relaxed), 8);
        // And the pool is still usable afterwards.
        let ok = pool.scope(|_| 42);
        assert_eq!(ok, 42);
    }

    #[test]
    fn panic_propagates_from_sequential_pool() {
        let pool = ThreadPool::new(1);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| s.spawn(|| panic!("seq boom")));
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn nested_scopes_complete_without_deadlock() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..6 {
                let total = &total;
                let shared = Arc::clone(&pool.shared);
                outer.spawn(move || {
                    // A task opening its own scope must be able to finish
                    // even when every worker is busy with outer tasks: the
                    // waiting task helps execute queued work itself.
                    scope_shared(&shared, |inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 24);
    }

    #[test]
    #[ignore = "arms process-global failpoints; run serially via the chaos job"]
    fn task_failpoint_surfaces_at_scope_exit_and_pool_survives() {
        let _guard = enld_chaos::scenario_with("par.task.run=panic@nth:3");
        let pool = ThreadPool::new(4);
        let survivors = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        survivors.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = caught.expect_err("injected panic must surface at scope exit");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("failpoint: par.task.run"), "{msg}");
        assert_eq!(survivors.load(Ordering::Relaxed), 7, "siblings still ran");
        drop(_guard);
        let ok = pool.scope(|_| 42);
        assert_eq!(ok, 42, "pool stays usable once the scenario is disarmed");
    }

    #[test]
    fn scope_waits_even_when_body_panics() {
        let pool = ThreadPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let done = Arc::clone(&done);
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(10));
                    done.fetch_add(1, Ordering::Relaxed);
                });
                panic!("body boom");
            });
        }));
        assert!(caught.is_err());
        // The spawned task must have completed before the unwind escaped.
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }
}
