//! Deterministic data-parallel map for ENLD's independent work.
//!
//! `enld-par` is a `std`-only scoped fork-join (no external dependencies,
//! no long-lived threads, safe code only) behind one primitive,
//! [`par_map`], designed around one contract:
//!
//! > **Parallel output is bit-identical to sequential output.**
//!
//! The contract holds because work is split into *fixed-size chunks whose
//! boundaries depend only on the input size*, never on the thread count, and
//! results land *in chunk order*. A chunk's computation is written once and
//! runs identically in a plain loop, on a helper thread, or on the caller,
//! so `ENLD_THREADS` can change wall-clock time but never an output bit.
//!
//! Its one product caller is `enld bench`, whose grid configurations are
//! independent, seconds-long tasks. Kernels (inference, neighbour queries,
//! index inserts, dataset synthesis) run on their caller's thread.
//!
//! # Sizing
//!
//! A call that spans more than one chunk runs each chunk as a *task*: on
//! the calling thread plus up to `threads − 1` helpers spawned inside a
//! [`std::thread::scope`], all joined before the call returns. The thread
//! budget comes from, in priority order: [`set_threads`] (the `--threads`
//! flag of `enld bench`), the `ENLD_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]; a budget of 1 never spawns.
//! Tests that need several thread counts in one process use
//! [`with_threads`], which gives the current thread a budget of its own.

#![forbid(unsafe_code)]

use std::any::Any;
use std::cell::RefCell;
use std::ffi::OsStr;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, OnceLock};

use enld_telemetry::{self as telemetry, Level};

/// The process-wide thread budget, fixed on first use.
static GLOBAL: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Stack of [`with_threads`] overrides for the current thread.
    static OVERRIDE: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Fixes the process-wide thread budget, overriding `ENLD_THREADS`. Must be
/// called before the first parallel call (the CLI does this while parsing
/// flags); fails once the budget is in use or after a previous call.
pub fn set_threads(n: usize) -> Result<(), String> {
    if n == 0 {
        return Err("thread count must be >= 1".to_string());
    }
    GLOBAL.set(n).map_err(|_| {
        "thread budget already fixed; set --threads before any parallel work".to_string()
    })
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
    OVERRIDE.with(|o| o.borrow_mut().push(n.max(1)));
    let _restore = Restore;
    f()
}

/// Thread budget for parallel work started from this thread: the innermost
/// [`with_threads`] override, else the process-wide one.
fn threads() -> usize {
    let local = OVERRIDE.with(|o| o.borrow().last().copied());
    local.unwrap_or_else(|| {
        *GLOBAL.get_or_init(|| threads_from_env(std::env::var_os("ENLD_THREADS").as_deref()))
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("no task code runs under a fork-join lock")
}

/// Computes `f(i)` for every `i in 0..n` and returns the results in index
/// order. Indices are processed in fixed `chunk`-sized blocks, so per-call
/// side effects within a block keep their sequential order and results are
/// identical for every thread count. One block or a budget of one thread
/// is a plain loop on the caller.
///
/// Past that, every block is a task, pulled from one shared queue by the
/// caller and by up to `threads − 1` scoped helpers (at most one per
/// remaining block). The call returns once every task has finished; the
/// first panic payload is then re-raised on the caller, so a bad task
/// cannot strand its siblings.
pub fn par_map<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunk = chunk.max(1);
    let helpers = threads().min(n.div_ceil(chunk)).saturating_sub(1);
    if helpers == 0 {
        return (0..n).map(f).collect();
    }
    // Capture the submitter's trace context only when a trace-level sink
    // is live: the disabled path stays one relaxed atomic load.
    let ctx = if telemetry::enabled(Level::Trace) { telemetry::current_context() } else { None };
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    {
        let queue = Mutex::new(out.chunks_mut(chunk).enumerate());
        let drain = || loop {
            let next = lock(&queue).next();
            let Some((ci, slots)) = next else { break };
            // The failpoint sits inside catch_unwind on purpose: an injected
            // panic rides the same capture-and-re-raise path as a real one.
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                enld_chaos::fail_point("par.task.run");
                let _span = ctx.map(|ctx| telemetry::trace_span("par.task").follows(ctx).entered());
                for (off, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(ci * chunk + off));
                }
            }));
            if let Err(payload) = outcome {
                lock(&first_panic).get_or_insert(payload);
            }
        };
        std::thread::scope(|s| {
            for lane in 0..helpers {
                let helper = std::thread::Builder::new().name(format!("enld-par-{lane}"));
                if helper.spawn_scoped(s, drain).is_err() {
                    break; // out of OS threads: the caller drains what is left
                }
            }
            drain();
        });
    }
    if let Some(payload) = first_panic.into_inner().expect("helpers joined without panicking") {
        panic::resume_unwind(payload);
    }
    out.into_iter().map(|slot| slot.expect("chunk task completed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Arc;

    /// The element both sides of the comparison compute. One out-of-line
    /// function, because an inlined `sin` may be lowered differently at
    /// each call site (in a release build the two differed by 1 ulp), and
    /// the test is about the primitive, not the math library.
    #[inline(never)]
    fn element(i: usize) -> f32 {
        (i as f32).sin()
    }

    #[test]
    fn par_map_matches_sequential_for_every_thread_count() {
        let seq: Vec<f32> = (0..1000).map(element).collect();
        for threads in [1, 2, 3, 8] {
            let par = with_threads(threads, || par_map(1000, 64, element));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(with_threads(2, || par_map(0, 8, |i| i)).is_empty());
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
