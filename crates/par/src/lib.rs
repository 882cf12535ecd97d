//! Deterministic data-parallel primitives for ENLD hot paths.
//!
//! `enld-par` is a `std`-only scoped fork-join (no external dependencies,
//! no long-lived threads, safe code only) behind two primitives —
//! [`par_map`] and [`par_chunks_mut`] — designed around one contract:
//!
//! > **Parallel output is bit-identical to sequential output.**
//!
//! The contract holds because work is split into *fixed-size chunks whose
//! boundaries depend only on the input size*, never on the thread count, and
//! results land *in chunk order*. A chunk's computation (including its
//! floating-point accumulation order) is written once and runs identically
//! in a plain loop, on a helper thread, or on the caller, so `ENLD_THREADS`
//! can change wall-clock time but never an output bit.
//!
//! # One level, coarse chunks
//!
//! A call that spans more than one chunk runs each chunk as a *task*: on
//! the calling thread plus up to `threads() − 1` helpers spawned inside a
//! [`std::thread::scope`], all joined before the call returns. A primitive
//! called from inside a task runs as a plain loop ([`threads`] reads 1
//! there), so what a task calls is a sequential leaf kernel. Spawning a
//! helper costs tens of microseconds: call sites size their chunks at a
//! millisecond of work or more, and anything smaller stays a loop.
//!
//! # Sizing
//!
//! The thread budget comes from, in priority order: [`set_threads`] (the
//! `--threads` CLI flag), the `ENLD_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. Helpers are drawn from one
//! process-wide budget of `threads − 1` slots however many threads call in
//! at once (`enld serve --workers N` tops out at `N + threads − 1` compute
//! threads); a caller that finds no free slot runs its chunks itself, and a
//! budget of 1 never spawns. Tests that need several thread counts in one
//! process use [`with_threads`], which gives the current thread a budget of
//! its own. `enld.par.threads` and `enld.par.tasks_total` are reported
//! through [`enld_telemetry::metrics`].

#![forbid(unsafe_code)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ffi::OsStr;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use enld_telemetry::metrics;
use enld_telemetry::{self as telemetry, Level};

static CONFIGURED: OnceLock<usize> = OnceLock::new();
static GLOBAL: OnceLock<Arc<Budget>> = OnceLock::new();

thread_local! {
    /// Stack of [`with_threads`] overrides for the current thread.
    static OVERRIDE: RefCell<Vec<Arc<Budget>>> = const { RefCell::new(Vec::new()) };
    /// Set while the current thread drains chunk tasks.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// A thread budget: the calling thread plus `threads − 1` helper slots,
/// shared by every thread that draws on it.
struct Budget {
    threads: usize,
    /// Helper slots nobody holds. Only a count: the data helpers touch is
    /// published by their spawn and join, so `Relaxed` is enough.
    free: AtomicUsize,
}

impl Budget {
    fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        metrics::global().gauge("enld.par.threads").set(threads as f64);
        Self { threads, free: AtomicUsize::new(threads - 1) }
    }

    /// Takes up to `want` helper slots and returns how many it got; the
    /// caller adds them back to `free` when its helpers have joined.
    fn acquire(&self, want: usize) -> usize {
        self.free
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |free| Some(free - free.min(want)))
            .expect("the update closure never declines")
            .min(want)
    }
}

/// Fixes the process-wide thread budget, overriding `ENLD_THREADS`. Must be
/// called before the first parallel primitive runs (the CLI does this while
/// parsing flags); fails once the budget is in use or after a previous call.
pub fn set_threads(n: usize) -> Result<(), String> {
    if n == 0 {
        return Err("thread count must be >= 1".to_string());
    }
    if GLOBAL.get().is_some() {
        return Err(
            "thread budget already in use; set --threads before any parallel work".to_string()
        );
    }
    CONFIGURED.set(n).map_err(|_| "thread count already configured".to_string())
}

/// The budget `ENLD_THREADS` asks for; unset, `0` and garbage all mean
/// every core, the last two with a warning.
fn threads_from_env(raw: Option<&OsStr>) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some(raw) = raw else { return cores };
    match raw.to_str().and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => {
            telemetry::twarn!(
                "par",
                "ignoring ENLD_THREADS={raw:?}: not a thread count >= 1; using all {cores} cores"
            );
            cores
        }
    }
}

/// Runs `f` against a private budget of exactly `n` threads, restoring the
/// previous one afterwards (also on panic). Thread-local: parallel work
/// started by *other* threads is unaffected.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    OVERRIDE.with(|o| o.borrow_mut().push(Arc::new(Budget::new(n))));
    let _restore = Restore;
    f()
}

/// The budget parallel work started from this thread draws on — the
/// innermost [`with_threads`] override, else the process-wide one — or
/// `None` inside a task, where every primitive runs inline.
fn current() -> Option<Arc<Budget>> {
    if IN_TASK.get() {
        return None;
    }
    let local = OVERRIDE.with(|o| o.borrow().last().cloned());
    Some(local.unwrap_or_else(|| {
        let global = GLOBAL.get_or_init(|| {
            let env = || threads_from_env(std::env::var_os("ENLD_THREADS").as_deref());
            Arc::new(Budget::new(CONFIGURED.get().copied().unwrap_or_else(env)))
        });
        Arc::clone(global)
    }))
}

/// Effective thread budget for parallel work started from this thread.
pub fn threads() -> usize {
    current().map_or(1, |budget| budget.threads)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("no task code runs under a fork-join lock")
}

/// [`par_chunks_mut`] past the plain loop: every block is a task, pulled
/// from one shared iterator by the calling thread and by as many scoped
/// helpers as `budget` has free slots for (at most one per remaining
/// block). Returns once every task has finished; the first panic payload is
/// then re-raised on the caller, so a bad task cannot strand its siblings.
fn run_tasks<T, F>(budget: &Budget, data: &mut [T], chunk: usize, f: &F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let n_chunks = data.len().div_ceil(chunk);
    // Capture the submitter's trace context only when a trace-level sink
    // is live: the disabled path stays one relaxed atomic load.
    let ctx = if telemetry::enabled(Level::Trace) { telemetry::current_context() } else { None };
    let queue = Mutex::new(data.chunks_mut(chunk).enumerate());
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let drain = || {
        IN_TASK.set(true);
        loop {
            let next = lock(&queue).next();
            let Some((ci, block)) = next else { break };
            // The failpoint sits inside catch_unwind on purpose: an injected
            // panic rides the same capture-and-re-raise path as a real one.
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                enld_chaos::fail_point("par.task.run");
                let _span = ctx.map(|ctx| telemetry::trace_span("par.task").follows(ctx).entered());
                f(ci, ci * chunk, block);
            }));
            if let Err(payload) = outcome {
                lock(&first_panic).get_or_insert(payload);
            }
        }
        IN_TASK.set(false);
    };
    let helpers = budget.acquire(n_chunks - 1);
    std::thread::scope(|s| {
        for lane in 0..helpers {
            let helper = std::thread::Builder::new().name(format!("enld-par-{lane}"));
            if helper.spawn_scoped(s, drain).is_err() {
                break; // out of OS threads: the caller drains what is left
            }
        }
        drain();
    });
    budget.free.fetch_add(helpers, Ordering::Relaxed);
    metrics::global().counter("enld.par.tasks_total").add(n_chunks as u64);
    if let Some(payload) = first_panic.into_inner().expect("helpers joined without panicking") {
        panic::resume_unwind(payload);
    }
}

/// Computes `f(i)` for every `i in 0..n` and returns the results in index
/// order. Indices are processed in fixed `chunk`-sized blocks (one task per
/// block), so per-call side effects within a block keep their sequential
/// order and results are identical for every thread count.
pub fn par_map<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    par_chunks_mut(&mut out, chunk, |_, offset, slots| {
        for (off, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(offset + off));
        }
    });
    out.into_iter().map(|slot| slot.expect("chunk task completed")).collect()
}

/// Splits `data` into fixed `chunk`-sized blocks and applies
/// `f(chunk_index, element_offset, block)` to each in parallel. Block
/// boundaries depend only on `data.len()` and `chunk`, never on the thread
/// count. One block, a budget of one thread, or a call from inside a task
/// is a plain loop over the blocks.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    match current().filter(|budget| budget.threads > 1 && data.len() > chunk) {
        Some(budget) => run_tasks(&budget, data, chunk, &f),
        None => data.chunks_mut(chunk).enumerate().for_each(|(ci, b)| f(ci, ci * chunk, b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn par_map_matches_sequential_for_every_thread_count() {
        let seq: Vec<f32> = (0..1000).map(|i| (i as f32).sin()).collect();
        for threads in [1, 2, 3, 8] {
            let par = with_threads(threads, || par_map(1000, 64, |i| (i as f32).sin()));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_mut_matches_sequential_for_every_thread_count() {
        let want: Vec<u32> = (1..=501).collect();
        for threads in [1, 2, 3, 8] {
            let mut data = vec![0u32; 501];
            with_threads(threads, || {
                par_chunks_mut(&mut data, 32, |ci, offset, block| {
                    assert_eq!(offset, ci * 32);
                    for (j, v) in block.iter_mut().enumerate() {
                        *v += (offset + j) as u32 + 1;
                    }
                });
            });
            assert_eq!(data, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(par_map(0, 8, |i| i).is_empty());
        let mut empty: [u8; 0] = [];
        par_chunks_mut(&mut empty, 8, |_, _, _| unreachable!());
        // chunk = 0 is clamped to 1 rather than panicking.
        assert_eq!(with_threads(2, || par_map(3, 0, |i| i)), vec![0, 1, 2]);
    }

    #[test]
    fn one_thread_budget_runs_on_the_caller() {
        let here = std::thread::current().id();
        with_threads(1, || {
            par_map(8, 1, |_| assert_eq!(std::thread::current().id(), here));
        });
    }

    #[test]
    fn a_primitive_inside_a_task_runs_inline() {
        with_threads(4, || {
            let nested = par_map(8, 1, |i| {
                assert_eq!(threads(), 1, "a task sees a budget of one");
                let here = std::thread::current().id();
                let mut block = [0usize; 6];
                par_chunks_mut(&mut block, 1, |ci, _, v| {
                    assert_eq!(std::thread::current().id(), here);
                    v[0] = ci;
                });
                let inner = par_map(6, 1, |j| {
                    assert_eq!(std::thread::current().id(), here);
                    i * 10 + j
                });
                (block, inner)
            });
            for (i, (block, inner)) in nested.into_iter().enumerate() {
                assert_eq!(block, [0, 1, 2, 3, 4, 5]);
                assert_eq!(inner, (0..6).map(|j| i * 10 + j).collect::<Vec<_>>());
            }
            assert_eq!(threads(), 4, "the caller is out of the task again");
        });
    }

    #[test]
    fn panicking_chunk_re_raises_after_its_siblings_ran() {
        with_threads(4, || {
            let survivors = AtomicUsize::new(0);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                par_map(9, 1, |i| {
                    if i == 0 {
                        panic!("task boom");
                    }
                    survivors.fetch_add(1, SeqCst);
                })
            }));
            let payload = caught.expect_err("the call must re-raise the task panic");
            assert_eq!(payload.downcast_ref::<&str>().copied(), Some("task boom"));
            // Sibling tasks still ran; one bad task cannot strand the rest.
            assert_eq!(survivors.load(SeqCst), 8);
            // And the budget is whole again afterwards.
            assert_eq!(threads(), 4);
            assert_eq!(par_map(4, 1, |i| i), vec![0, 1, 2, 3]);
        });
    }

    #[test]
    fn panic_propagates_from_a_plain_loop() {
        let caught = panic::catch_unwind(|| with_threads(1, || par_map(2, 1, |_| panic!("seq"))));
        assert!(caught.is_err());
    }

    #[test]
    #[ignore = "arms process-global failpoints; run serially via the chaos job"]
    fn task_failpoint_surfaces_at_the_call_and_the_next_call_works() {
        let guard = enld_chaos::scenario_with("par.task.run=panic@nth:3");
        with_threads(4, || {
            let survivors = AtomicUsize::new(0);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                par_map(8, 1, |_| {
                    survivors.fetch_add(1, SeqCst);
                })
            }));
            let payload = caught.expect_err("injected panic must surface at the call");
            let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("failpoint: par.task.run"), "{msg}");
            assert_eq!(survivors.load(SeqCst), 7, "siblings still ran");
            drop(guard);
            assert_eq!(par_map(4, 1, |i| i), vec![0, 1, 2, 3], "usable once disarmed");
        });
    }

    #[test]
    fn callers_sharing_a_budget_never_exceed_its_helper_slots() {
        let budget = Budget::new(4);
        let (alive, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let caller = std::thread::current().id();
                    start.wait();
                    for _ in 0..20 {
                        let mut data = [0u8; 16];
                        run_tasks(&budget, &mut data, 1, &|_, _, block: &mut [u8]| {
                            let helper = std::thread::current().id() != caller;
                            if helper {
                                high_water.fetch_max(alive.fetch_add(1, SeqCst) + 1, SeqCst);
                            }
                            // Long enough for spawned helpers to find work.
                            std::thread::sleep(Duration::from_micros(200));
                            block[0] = 1;
                            if helper {
                                alive.fetch_sub(1, SeqCst);
                            }
                        });
                        assert_eq!(data, [1u8; 16]);
                    }
                });
            }
        });
        let peak = high_water.load(SeqCst);
        assert!((1..=3).contains(&peak), "helper lanes alive at once: {peak}");
        assert_eq!(budget.free.load(SeqCst), 3, "every slot came back");
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(4, || {
            assert_eq!(threads(), 4);
            with_threads(2, || assert_eq!(threads(), 2));
            assert_eq!(threads(), 4);
        });
    }

    #[test]
    fn set_threads_rejects_zero() {
        assert!(set_threads(0).is_err());
    }

    #[test]
    fn rejected_env_values_fall_back_to_all_cores_with_a_warning() {
        struct Warnings(Mutex<Vec<String>>);
        impl telemetry::Sink for Warnings {
            fn level(&self) -> Level {
                Level::Warn
            }
            fn on_event(&self, event: &telemetry::Event) {
                if event.target == "par" {
                    self.0.lock().unwrap().push(event.message.clone());
                }
            }
            fn on_span(&self, _: &telemetry::SpanRecord) {}
        }
        let sink = Arc::new(Warnings(Mutex::new(Vec::new())));
        telemetry::install(Arc::clone(&sink) as Arc<dyn telemetry::Sink>);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(threads_from_env(Some(OsStr::new(" 3 "))), 3);
        assert_eq!(threads_from_env(None), cores);
        assert!(sink.0.lock().unwrap().is_empty(), "accepted values warn about nothing");
        assert_eq!(threads_from_env(Some(OsStr::new("0"))), cores);
        assert_eq!(threads_from_env(Some(OsStr::new("many"))), cores);
        telemetry::reset();
        let warnings = sink.0.lock().unwrap();
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("\"0\"") && warnings[1].contains("\"many\""), "{warnings:?}");
    }
}
