//! The multi-worker scheduler: N detector-owning threads fed from one
//! policy-ordered dispatch queue.
//!
//! Each worker thread owns one detector instance (detectors are
//! stateful), so a pool of N workers holds N independent detectors built
//! by the caller's factory; one worker with the FIFO policy is the
//! paper's single-queue deployment. Producers submit through admission
//! control ([`WorkerPool::submit`] never blocks — it rejects); workers
//! pull the next job under the configured [`PolicyKind`]; every accepted
//! job yields exactly one [`JobOutcome`], including jobs that expired or
//! whose detector panicked.
//!
//! Per-worker telemetry: `serve.worker.<i>.service_secs` (histogram) and
//! `serve.worker.<i>.utilisation` (busy-fraction gauge), plus pool-wide
//! `serve.queue.depth`, `serve.queue.wait_secs`, `serve.job.sojourn_secs`
//! (wait + service, the SLO feed for the monitor's burn-rate alert rule),
//! and `serve.pool.{submitted,rejected,expired,panics}_total`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use enld_telemetry as telemetry;
use enld_telemetry::json::JsonObject;
use enld_telemetry::ObsStatus;

use crate::admission::{retry_after_hint, Rejected, SubmitError};
use crate::estimator::ServiceTimeEstimator;
use crate::job::JobSpec;
use crate::policy::{PolicyKind, Queued, ReadyQueue};

/// Construction-time pool parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker threads (and detector instances).
    pub workers: usize,
    /// Jobs allowed to wait in the ready queue before submissions are
    /// rejected (running jobs do not count).
    pub queue_limit: usize,
    /// Dispatch order.
    pub policy: PolicyKind,
    /// Estimator prior for classes with no completed request yet
    /// (seconds).
    pub prior_secs: f64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { workers: 2, queue_limit: 64, policy: PolicyKind::Fifo, prior_secs: 1.0 }
    }
}

/// A job that ran to completion.
#[derive(Debug)]
pub struct Completion<R> {
    /// The submitted job's id.
    pub id: u64,
    /// Its estimator class.
    pub class: String,
    /// Which worker served it.
    pub worker: usize,
    /// Seconds spent waiting in the ready queue.
    pub wait_secs: f64,
    /// Seconds inside the detector.
    pub service_secs: f64,
    /// The detector's output.
    pub result: R,
}

/// A job whose deadline passed before a worker reached it.
#[derive(Debug)]
pub struct ExpiredJob {
    pub id: u64,
    pub class: String,
    /// How far past the deadline it was when dequeued.
    pub late_by: Duration,
}

/// A job whose detector panicked; the worker survives.
#[derive(Debug)]
pub struct FailedJob {
    pub id: u64,
    pub class: String,
    pub worker: usize,
    /// The panic payload, when it was a string.
    pub panic_msg: String,
}

/// Exactly one of these is produced per accepted job.
#[derive(Debug)]
pub enum JobOutcome<R> {
    Completed(Completion<R>),
    Expired(ExpiredJob),
    Failed(FailedJob),
}

impl<R> JobOutcome<R> {
    /// The originating job's id.
    pub fn id(&self) -> u64 {
        match self {
            Self::Completed(c) => c.id,
            Self::Expired(e) => e.id,
            Self::Failed(f) => f.id,
        }
    }

    /// The completion, if the job ran successfully.
    pub fn completed(self) -> Option<Completion<R>> {
        match self {
            Self::Completed(c) => Some(c),
            _ => None,
        }
    }
}

/// Worker threads panicked outside the detector (a scheduler bug) or a
/// drain ended early; surfaced by [`WorkerPool::shutdown`] instead of
/// being swallowed.
#[derive(Debug)]
pub struct PoolPanic<R> {
    /// Outcomes drained before the failure.
    pub drained: Vec<JobOutcome<R>>,
    /// One message per panicked worker thread.
    pub panics: Vec<String>,
}

impl<R> std::fmt::Display for PoolPanic<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} pool worker(s) panicked: {}", self.panics.len(), self.panics.join("; "))
    }
}

impl<R: std::fmt::Debug> std::error::Error for PoolPanic<R> {}

/// Lock-free view of pool state for the observability endpoint: a live
/// pool keeps its cells current; the [`Arc`] outlives the pool so
/// scrapers never race a shutdown.
pub struct PoolStats {
    started: Instant,
    accepting: AtomicBool,
    queue_depth: AtomicUsize,
    workers: Vec<WorkerCell>,
}

/// One worker's counters. Single-writer (its worker thread); readers see
/// relaxed-but-coherent values, which is all a scrape needs.
struct WorkerCell {
    alive: AtomicBool,
    jobs: AtomicU64,
    busy_micros: AtomicU64,
    /// EWMA of per-job service seconds, stored as `f64` bits.
    ewma_service_bits: AtomicU64,
    /// Micros since pool start at the last completed job (0 = never).
    last_beat_micros: AtomicU64,
    /// Cumulative queue-wait micros of jobs this worker has run.
    wait_micros: AtomicU64,
}

impl WorkerCell {
    fn new() -> Self {
        Self {
            alive: AtomicBool::new(true),
            jobs: AtomicU64::new(0),
            busy_micros: AtomicU64::new(0),
            ewma_service_bits: AtomicU64::new(0.0f64.to_bits()),
            last_beat_micros: AtomicU64::new(0),
            wait_micros: AtomicU64::new(0),
        }
    }
}

/// EWMA smoothing factor for per-worker service times.
const EWMA_ALPHA: f64 = 0.3;

impl PoolStats {
    fn new(workers: usize) -> Self {
        Self {
            started: Instant::now(),
            accepting: AtomicBool::new(true),
            queue_depth: AtomicUsize::new(0),
            workers: (0..workers).map(|_| WorkerCell::new()).collect(),
        }
    }

    /// Seconds since the pool was spawned.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Jobs waiting in the ready queue at the last queue transition.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Whether submissions are currently admitted.
    pub fn accepting(&self) -> bool {
        self.accepting.load(Ordering::Relaxed)
    }

    /// Worker threads still in their serve loop.
    pub fn workers_alive(&self) -> usize {
        self.workers.iter().filter(|c| c.alive.load(Ordering::Relaxed)).count()
    }

    /// Smoothed service time of worker `i` in seconds (0 before its
    /// first completion).
    pub fn ewma_service_secs(&self, worker: usize) -> f64 {
        f64::from_bits(self.workers[worker].ewma_service_bits.load(Ordering::Relaxed))
    }

    /// Cumulative queue-wait seconds across all jobs worker `i` has run.
    pub fn wait_secs(&self, worker: usize) -> f64 {
        self.workers[worker].wait_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    fn record_job(&self, worker: usize, service_secs: f64, wait_secs: f64) {
        // Sojourn (wait + service) is the SLO the burn-rate alert rule
        // watches; fed per job so windows reflect the job sequence, not
        // the scrape cadence.
        let sojourn_secs = wait_secs + service_secs;
        telemetry::metrics::global().histogram("serve.job.sojourn_secs").record(sojourn_secs);
        telemetry::monitor::global().observe("serve.job.sojourn_secs", sojourn_secs);
        let cell = &self.workers[worker];
        let jobs = cell.jobs.fetch_add(1, Ordering::Relaxed);
        cell.busy_micros.fetch_add((service_secs * 1e6) as u64, Ordering::Relaxed);
        cell.wait_micros.fetch_add((wait_secs * 1e6) as u64, Ordering::Relaxed);
        let prev = f64::from_bits(cell.ewma_service_bits.load(Ordering::Relaxed));
        let next = if jobs == 0 {
            service_secs
        } else {
            EWMA_ALPHA * service_secs + (1.0 - EWMA_ALPHA) * prev
        };
        cell.ewma_service_bits.store(next.to_bits(), Ordering::Relaxed);
        cell.last_beat_micros.store(
            self.started.elapsed().as_micros().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }
}

impl ObsStatus for PoolStats {
    fn healthz(&self) -> (bool, String) {
        let accepting = self.accepting();
        let alive = self.workers_alive();
        let total = self.workers.len();
        let status = if !accepting {
            "stopped"
        } else if alive == total {
            "ok"
        } else {
            "degraded"
        };
        // A closed pool is not a failure — it drains deliberately; only
        // dead workers under an accepting pool are unhealthy.
        let healthy = !accepting || alive == total;
        let mut o = JsonObject::new();
        o.str_field("status", status)
            .f64_field("uptime_secs", self.uptime_secs())
            .u64_field("queue_depth", self.queue_depth() as u64)
            .u64_field("workers", total as u64)
            .u64_field("workers_alive", alive as u64)
            .bool_field("accepting", accepting);
        (healthy, o.finish())
    }

    fn workers_json(&self) -> String {
        let uptime = self.uptime_secs().max(1e-9);
        let mut out = String::from("[");
        for (i, cell) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let busy = cell.busy_micros.load(Ordering::Relaxed) as f64 / 1e6;
            let last_beat = cell.last_beat_micros.load(Ordering::Relaxed) as f64 / 1e6;
            let mut o = JsonObject::new();
            o.u64_field("worker", i as u64)
                .bool_field("alive", cell.alive.load(Ordering::Relaxed))
                .u64_field("jobs", cell.jobs.load(Ordering::Relaxed))
                .f64_field("busy_secs", busy)
                .f64_field("utilisation", (busy / uptime).min(1.0))
                .f64_field(
                    "ewma_service_secs",
                    f64::from_bits(cell.ewma_service_bits.load(Ordering::Relaxed)),
                )
                .f64_field("idle_secs", (uptime - last_beat).max(0.0))
                .f64_field("wait_secs", cell.wait_micros.load(Ordering::Relaxed) as f64 / 1e6);
            out.push_str(&o.finish());
        }
        out.push(']');
        out
    }
}

/// Flags the worker dead on scope exit — normal return *and* panic.
struct AliveGuard<'a>(&'a AtomicBool);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

struct DispatchState<P> {
    queue: ReadyQueue<P>,
    accepting: bool,
}

struct Shared<P> {
    state: Mutex<DispatchState<P>>,
    available: Condvar,
    estimator: ServiceTimeEstimator,
    submitted: AtomicUsize,
    queue_limit: usize,
    workers: usize,
    stats: Arc<PoolStats>,
}

impl<P> Shared<P> {
    fn lock(&self) -> MutexGuard<'_, DispatchState<P>> {
        // Workers never panic while holding this lock (the detector runs
        // outside it); recover rather than poison-cascade.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Handle to a running pool. `submit` takes `&self`, so concurrent
/// producers can share the handle behind an `Arc` or scoped threads;
/// draining results takes `&mut self`.
pub struct WorkerPool<P, R> {
    shared: Arc<Shared<P>>,
    results: mpsc::Receiver<JobOutcome<R>>,
    workers: Vec<JoinHandle<()>>,
    received: usize,
    policy: PolicyKind,
}

impl<P: Send + 'static, R: Send + 'static> WorkerPool<P, R> {
    /// Spawns `config.workers` threads, each owning the detector the
    /// factory builds for it (`factory(worker_index)` runs on the
    /// calling thread, so it may borrow caller state and clone
    /// prototypes).
    ///
    /// # Panics
    /// Panics if `workers` or `queue_limit` is zero.
    pub fn spawn<F, D>(config: PoolConfig, mut factory: F) -> Self
    where
        F: FnMut(usize) -> D,
        D: FnMut(&P) -> R + Send + 'static,
    {
        assert!(config.workers > 0, "worker pool needs at least one worker");
        assert!(config.queue_limit > 0, "queue limit must be positive");
        let shared = Arc::new(Shared {
            state: Mutex::new(DispatchState {
                queue: ReadyQueue::new(config.policy),
                accepting: true,
            }),
            available: Condvar::new(),
            estimator: ServiceTimeEstimator::new(config.prior_secs),
            submitted: AtomicUsize::new(0),
            queue_limit: config.queue_limit,
            workers: config.workers,
            stats: Arc::new(PoolStats::new(config.workers)),
        });
        let (tx, results) = mpsc::channel();
        let workers = (0..config.workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                let detector = factory(id);
                std::thread::Builder::new()
                    .name(format!("enld-serve-worker-{id}"))
                    .spawn(move || worker_loop(id, &shared, detector, &tx))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, results, workers, received: 0, policy: config.policy }
    }

    /// Enqueues a job without blocking.
    ///
    /// # Errors
    /// [`SubmitError::Rejected`] when the ready queue is at the
    /// admission limit (the job comes back with a `retry_after` hint);
    /// [`SubmitError::ShutDown`] after [`close`](Self::close)/shutdown.
    pub fn submit(&self, spec: JobSpec<P>) -> Result<(), SubmitError<P>> {
        let registry = telemetry::metrics::global();
        let predicted = self.shared.estimator.predict(&spec.class, spec.cost);
        let mut state = self.shared.lock();
        if !state.accepting {
            return Err(SubmitError::ShutDown(spec));
        }
        if state.queue.len() >= self.shared.queue_limit {
            let retry_after = retry_after_hint(
                state.queue.predicted_backlog_secs(),
                predicted,
                self.shared.workers,
            );
            drop(state);
            registry.counter("serve.pool.rejected_total").inc();
            return Err(SubmitError::Rejected(Rejected { spec, retry_after }));
        }
        // Capture the submitter's span context only when a debug-level
        // sink is live (the job span is debug-level); the disabled path
        // stays a single relaxed atomic load per submission.
        let ctx = if telemetry::enabled(telemetry::Level::Debug) {
            telemetry::current_context()
        } else {
            None
        };
        state.queue.push(Queued {
            spec,
            submitted_at: Instant::now(),
            predicted_secs: predicted,
            ctx,
        });
        registry.gauge("serve.queue.depth").add(1.0);
        self.shared.stats.queue_depth.store(state.queue.len(), Ordering::Relaxed);
        self.shared.submitted.fetch_add(1, Ordering::SeqCst);
        drop(state);
        registry.counter("serve.pool.submitted_total").inc();
        self.shared.available.notify_one();
        Ok(())
    }

    /// Non-blocking poll for the next outcome, in completion order.
    pub fn try_next(&mut self) -> Option<JobOutcome<R>> {
        match self.results.try_recv() {
            Ok(outcome) => {
                self.received += 1;
                Some(outcome)
            }
            Err(_) => None,
        }
    }

    /// Blocking poll with a timeout.
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<JobOutcome<R>> {
        match self.results.recv_timeout(timeout) {
            Ok(outcome) => {
                self.received += 1;
                Some(outcome)
            }
            Err(_) => None,
        }
    }

    /// Jobs accepted but whose outcome has not been received yet.
    pub fn in_flight(&self) -> usize {
        self.shared.submitted.load(Ordering::SeqCst) - self.received
    }

    /// Jobs waiting in the ready queue right now (excludes running).
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// The online service-time estimator (shared with the workers).
    pub fn estimator(&self) -> &ServiceTimeEstimator {
        &self.shared.estimator
    }

    /// The dispatch policy the pool was built with.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Live pool statistics for the observability endpoint. The returned
    /// handle stays valid (frozen at final values) after shutdown.
    pub fn stats(&self) -> Arc<PoolStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Stops admitting new jobs; queued and running jobs still finish.
    /// Subsequent [`submit`](Self::submit)s fail with
    /// [`SubmitError::ShutDown`].
    pub fn close(&self) {
        self.shared.lock().accepting = false;
        self.shared.stats.accepting.store(false, Ordering::Relaxed);
        self.shared.available.notify_all();
    }

    /// Closes the pool, drains every outstanding outcome (in-flight work
    /// completes — nothing is dropped), and joins the workers.
    ///
    /// # Errors
    /// [`PoolPanic`] if any worker thread itself panicked (detector
    /// panics are *not* this: they surface as [`JobOutcome::Failed`]);
    /// the outcomes drained so far ride along in the error.
    pub fn shutdown(mut self) -> Result<Vec<JobOutcome<R>>, PoolPanic<R>> {
        enld_chaos::fail_point("serve.pool.shutdown");
        self.close();
        let mut drained = Vec::new();
        while self.received < self.shared.submitted.load(Ordering::SeqCst) {
            match self.results.recv() {
                Ok(outcome) => {
                    self.received += 1;
                    drained.push(outcome);
                }
                Err(_) => break, // every worker gone; panics reported below
            }
        }
        let mut panics = Vec::new();
        for worker in std::mem::take(&mut self.workers) {
            if let Err(payload) = worker.join() {
                panics.push(panic_message(payload.as_ref()));
            }
        }
        if panics.is_empty() {
            Ok(drained)
        } else {
            Err(PoolPanic { drained, panics })
        }
    }
}

impl<P, R> Drop for WorkerPool<P, R> {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock();
            state.accepting = false;
        }
        self.shared.stats.accepting.store(false, Ordering::Relaxed);
        self.shared.available.notify_all();
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_owned()
    }
}

fn worker_loop<P, R, D>(
    worker_id: usize,
    shared: &Shared<P>,
    mut detector: D,
    results: &mpsc::Sender<JobOutcome<R>>,
) where
    D: FnMut(&P) -> R,
{
    let registry = telemetry::metrics::global();
    let depth = registry.gauge("serve.queue.depth");
    let wait_hist = registry.histogram("serve.queue.wait_secs");
    let service_hist = registry.histogram(&format!("serve.worker.{worker_id}.service_secs"));
    let util_gauge = registry.gauge(&format!("serve.worker.{worker_id}.utilisation"));
    let spawned_at = Instant::now();
    let mut busy_secs = 0.0f64;
    let _alive = AliveGuard(&shared.stats.workers[worker_id].alive);
    loop {
        let job = {
            let mut state = shared.lock();
            loop {
                if let Some(job) = state.queue.pop() {
                    depth.add(-1.0);
                    shared.stats.queue_depth.store(state.queue.len(), Ordering::Relaxed);
                    break job;
                }
                if !state.accepting {
                    return;
                }
                state =
                    shared.available.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Deliberately outside catch_unwind: a panic here is a scheduler
        // failure (the job is dequeued but unstarted), the worker thread
        // dies, and shutdown() must surface it as a PoolPanic with the
        // job unaccounted for. The chaos suite asserts exactly that.
        enld_chaos::fail_point("serve.job.pickup");
        let wait_secs = job.submitted_at.elapsed().as_secs_f64();
        wait_hist.record(wait_secs);
        let ctx = job.ctx;
        let spec = job.spec;
        if let Some(deadline) = spec.deadline {
            let now = Instant::now();
            if now > deadline {
                registry.counter("serve.pool.expired_total").inc();
                let expired = JobOutcome::Expired(ExpiredJob {
                    id: spec.id,
                    class: spec.class,
                    late_by: now - deadline,
                });
                if results.send(expired).is_err() {
                    return; // consumer went away
                }
                continue;
            }
        }
        let mut span = telemetry::debug_span("serve.pool.job")
            .field("job", spec.id)
            .field("worker", worker_id as u64)
            .follows(ctx)
            .entered();
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            // Inside catch_unwind: fires like a detector panic and must
            // surface as JobOutcome::Failed with the worker surviving.
            enld_chaos::fail_point("serve.job.run");
            detector(&spec.payload)
        }));
        let service_secs = started.elapsed().as_secs_f64();
        busy_secs += service_secs;
        util_gauge.set(busy_secs / spawned_at.elapsed().as_secs_f64().max(1e-9));
        shared.stats.record_job(worker_id, service_secs, wait_secs);
        span.record("wait_secs", wait_secs);
        span.record("service_secs", service_secs);
        let outcome = match run {
            Ok(result) => {
                service_hist.record(service_secs);
                shared.estimator.observe(&spec.class, spec.cost, service_secs);
                JobOutcome::Completed(Completion {
                    id: spec.id,
                    class: spec.class,
                    worker: worker_id,
                    wait_secs,
                    service_secs,
                    result,
                })
            }
            Err(payload) => {
                // The detector's state may be inconsistent now, but the
                // scheduler's is not; keep the worker serving.
                registry.counter("serve.pool.panics_total").inc();
                let panic_msg = panic_message(payload.as_ref());
                // Mark the span so the tail-sampler retains this trace.
                span.record("error", panic_msg.as_str());
                JobOutcome::Failed(FailedJob {
                    id: spec.id,
                    class: spec.class,
                    worker: worker_id,
                    panic_msg,
                })
            }
        };
        if results.send(outcome).is_err() {
            return; // consumer went away
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{submit_with_retry, RetryBackoff};
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// Test payloads: sleep for a number of milliseconds, block on a
    /// gate, compute, or panic.
    #[derive(Debug)]
    enum Work {
        SleepMs(u64),
        Gate,
        Double(u64),
        Panic,
    }

    /// A pool whose workers double numbers, sleep, panic, or block on
    /// the returned gate until a `()` is sent per gated job.
    fn toy_pool(config: PoolConfig) -> (WorkerPool<Work, u64>, Sender<()>) {
        let (gate_tx, gate_rx) = channel::<()>();
        let gate = Arc::new(Mutex::new(gate_rx));
        let pool = WorkerPool::spawn(config, |_worker| {
            let gate: Arc<Mutex<Receiver<()>>> = Arc::clone(&gate);
            move |work: &Work| match work {
                Work::SleepMs(ms) => {
                    std::thread::sleep(Duration::from_millis(*ms));
                    *ms
                }
                Work::Gate => {
                    let rx = gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    let _ = rx.recv_timeout(Duration::from_secs(10));
                    0
                }
                Work::Double(x) => x * 2,
                Work::Panic => panic!("detector exploded"),
            }
        });
        (pool, gate_tx)
    }

    fn drain(pool: WorkerPool<Work, u64>) -> Vec<JobOutcome<u64>> {
        pool.shutdown().expect("no worker panics")
    }

    /// Waits until the worker has taken every queued job (so later
    /// submissions genuinely contend in the ready queue).
    fn wait_queue_empty(pool: &WorkerPool<Work, u64>) {
        for _ in 0..1000 {
            if pool.queue_depth() == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("worker never picked the queue up");
    }

    #[test]
    fn completes_every_job_across_workers() {
        let (pool, _gate) = toy_pool(PoolConfig { workers: 3, ..PoolConfig::default() });
        for i in 0..12 {
            pool.submit(JobSpec::new(i, Work::Double(i))).expect("admitted");
        }
        let outcomes = drain(pool);
        assert_eq!(outcomes.len(), 12);
        let mut results: Vec<(u64, u64)> = outcomes
            .into_iter()
            .map(|o| {
                let c = o.completed().expect("all complete");
                (c.id, c.result)
            })
            .collect();
        results.sort_unstable();
        for (id, result) in results {
            assert_eq!(result, id * 2);
        }
    }

    #[test]
    fn fifo_single_worker_preserves_order() {
        let (pool, gate) = toy_pool(PoolConfig { workers: 1, ..PoolConfig::default() });
        pool.submit(JobSpec::new(100, Work::Gate)).expect("gate");
        for i in 0..5 {
            pool.submit(JobSpec::new(i, Work::Double(i))).expect("admitted");
        }
        gate.send(()).expect("release");
        let ids: Vec<u64> = drain(pool).iter().map(JobOutcome::id).collect();
        assert_eq!(ids, vec![100, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn sjf_serves_predicted_short_jobs_first() {
        let config = PoolConfig { workers: 1, policy: PolicyKind::Sjf, ..PoolConfig::default() };
        let (pool, gate) = toy_pool(config);
        // Teach the estimator before any contention exists.
        for _ in 0..8 {
            pool.estimator().observe("slow", 1.0, 0.200);
            pool.estimator().observe("fast", 1.0, 0.001);
        }
        pool.submit(JobSpec::new(0, Work::Gate).with_class("gate")).expect("gate");
        wait_queue_empty(&pool);
        pool.submit(JobSpec::new(1, Work::SleepMs(1)).with_class("slow").with_cost(1.0))
            .expect("slow");
        pool.submit(JobSpec::new(2, Work::SleepMs(1)).with_class("fast").with_cost(1.0))
            .expect("fast");
        gate.send(()).expect("release");
        let ids: Vec<u64> = drain(pool).iter().map(JobOutcome::id).collect();
        assert_eq!(ids, vec![0, 2, 1], "fast class must overtake the earlier slow job");
    }

    #[test]
    fn priority_overtakes_and_edf_orders_deadlines() {
        let config =
            PoolConfig { workers: 1, policy: PolicyKind::Priority, ..PoolConfig::default() };
        let (pool, gate) = toy_pool(config);
        pool.submit(JobSpec::new(0, Work::Gate)).expect("gate");
        wait_queue_empty(&pool);
        pool.submit(JobSpec::new(1, Work::Double(1)).with_priority(0)).expect("low");
        pool.submit(JobSpec::new(2, Work::Double(2)).with_priority(9)).expect("high");
        gate.send(()).expect("release");
        let ids: Vec<u64> = drain(pool).iter().map(JobOutcome::id).collect();
        assert_eq!(ids, vec![0, 2, 1]);

        let config = PoolConfig { workers: 1, policy: PolicyKind::Edf, ..PoolConfig::default() };
        let (pool, gate) = toy_pool(config);
        let far = Instant::now() + Duration::from_secs(60);
        let near = Instant::now() + Duration::from_secs(30);
        pool.submit(JobSpec::new(0, Work::Gate)).expect("gate");
        wait_queue_empty(&pool);
        pool.submit(JobSpec::new(1, Work::Double(1)).with_deadline(far)).expect("far");
        pool.submit(JobSpec::new(2, Work::Double(2)).with_deadline(near)).expect("near");
        gate.send(()).expect("release");
        let ids: Vec<u64> = drain(pool).iter().map(JobOutcome::id).collect();
        assert_eq!(ids, vec![0, 2, 1]);
    }

    #[test]
    fn admission_rejects_past_the_limit_with_a_hint() {
        let config = PoolConfig { workers: 1, queue_limit: 2, ..PoolConfig::default() };
        let (pool, gate) = toy_pool(config);
        pool.submit(JobSpec::new(0, Work::Gate)).expect("runs immediately");
        wait_queue_empty(&pool);
        pool.submit(JobSpec::new(1, Work::Double(1))).expect("queued 1/2");
        pool.submit(JobSpec::new(2, Work::Double(2))).expect("queued 2/2");
        let err = pool.submit(JobSpec::new(3, Work::Double(3))).expect_err("full");
        let retry_after = err.retry_after().expect("rejection carries a hint");
        assert!(retry_after >= Duration::from_millis(10));
        assert_eq!(err.into_spec().id, 3, "the job comes back to the caller");
        gate.send(()).expect("release");
        assert_eq!(drain(pool).len(), 3, "rejected job was never accepted");
    }

    #[test]
    fn expired_jobs_are_reported_not_run() {
        let config = PoolConfig { workers: 1, ..PoolConfig::default() };
        let (mut pool, gate) = toy_pool(config);
        pool.submit(JobSpec::new(0, Work::Gate)).expect("gate");
        wait_queue_empty(&pool);
        pool.submit(JobSpec::new(1, Work::Double(7)).with_timeout(Duration::from_millis(5)))
            .expect("queued behind the gate");
        std::thread::sleep(Duration::from_millis(30));
        gate.send(()).expect("release");
        let mut saw_expired = false;
        for _ in 0..2 {
            match pool.next_timeout(Duration::from_secs(5)).expect("outcome") {
                JobOutcome::Expired(e) => {
                    assert_eq!(e.id, 1);
                    assert!(e.late_by > Duration::ZERO);
                    saw_expired = true;
                }
                JobOutcome::Completed(c) => assert_eq!(c.id, 0),
                JobOutcome::Failed(f) => panic!("unexpected failure: {f:?}"),
            }
        }
        assert!(saw_expired, "deadline must expire");
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn panicking_detector_fails_the_job_but_not_the_pool() {
        let (pool, _gate) = toy_pool(PoolConfig { workers: 1, ..PoolConfig::default() });
        pool.submit(JobSpec::new(0, Work::Panic)).expect("admitted");
        pool.submit(JobSpec::new(1, Work::Double(21))).expect("admitted");
        let outcomes = pool.shutdown().expect("worker thread must survive a detector panic");
        assert_eq!(outcomes.len(), 2);
        match &outcomes[0] {
            JobOutcome::Failed(f) => {
                assert_eq!(f.id, 0);
                assert!(f.panic_msg.contains("detector exploded"), "{}", f.panic_msg);
            }
            other => panic!("expected a failure, got {other:?}"),
        }
        match &outcomes[1] {
            JobOutcome::Completed(c) => assert_eq!(c.result, 42),
            other => panic!("expected a completion, got {other:?}"),
        }
    }

    #[test]
    fn close_stops_admission_but_serves_the_backlog() {
        let (pool, _gate) = toy_pool(PoolConfig { workers: 2, ..PoolConfig::default() });
        for i in 0..6 {
            pool.submit(JobSpec::new(i, Work::Double(i))).expect("admitted");
        }
        pool.close();
        match pool.submit(JobSpec::new(99, Work::Double(99))) {
            Err(SubmitError::ShutDown(spec)) => assert_eq!(spec.id, 99),
            other => panic!("submit after close must fail, got {other:?}"),
        }
        assert_eq!(drain(pool).len(), 6, "backlog still drains after close");
    }

    #[test]
    fn retry_with_backoff_rides_out_a_full_queue() {
        let config = PoolConfig { workers: 1, queue_limit: 1, ..PoolConfig::default() };
        let (pool, _gate) = toy_pool(config);
        let backoff = RetryBackoff {
            initial: Duration::from_millis(2),
            factor: 2.0,
            max_delay: Duration::from_millis(20),
            max_attempts: 50,
            budget: Some(Duration::from_secs(20)),
        };
        for i in 0..10 {
            submit_with_retry(&pool, JobSpec::new(i, Work::SleepMs(1)), &backoff)
                .expect("every job admitted eventually");
        }
        assert_eq!(drain(pool).len(), 10);
    }

    #[test]
    fn retry_budget_bounds_wall_clock_and_returns_the_last_rejection() {
        let config = PoolConfig { workers: 1, queue_limit: 1, ..PoolConfig::default() };
        let (pool, gate) = toy_pool(config);
        pool.submit(JobSpec::new(0, Work::Gate)).expect("occupies the worker");
        wait_queue_empty(&pool);
        pool.submit(JobSpec::new(1, Work::Double(1))).expect("fills the queue");
        let backoff = RetryBackoff {
            initial: Duration::from_millis(5),
            factor: 2.0,
            max_delay: Duration::from_millis(50),
            max_attempts: 1000,
            budget: Some(Duration::from_millis(40)),
        };
        let started = Instant::now();
        let err = submit_with_retry(&pool, JobSpec::new(2, Work::Double(2)), &backoff)
            .expect_err("queue stays full, budget must expire");
        assert!(started.elapsed() < Duration::from_secs(5), "budget bounds the wall-clock");
        let hint = err.retry_after().expect("last cause is a rejection with a hint");
        assert!(hint >= Duration::from_millis(10));
        assert_eq!(err.into_spec().id, 2, "the job comes back to the caller");
        gate.send(()).expect("release");
        assert_eq!(drain(pool).len(), 2);
    }

    #[test]
    fn estimator_learns_online_from_completions() {
        let (mut pool, _gate) = toy_pool(PoolConfig { workers: 1, ..PoolConfig::default() });
        for i in 0..4 {
            pool.submit(JobSpec::new(i, Work::SleepMs(12)).with_class("sleepy").with_cost(1.0))
                .expect("admitted");
        }
        for _ in 0..4 {
            pool.next_timeout(Duration::from_secs(5)).expect("completion");
        }
        assert_eq!(pool.estimator().samples("sleepy"), 4);
        let predicted = pool.estimator().predict("sleepy", 1.0);
        assert!(predicted >= 0.010, "learned ≈12 ms service time, got {predicted}");
        drain(pool);
    }

    #[test]
    fn per_worker_metrics_are_recorded() {
        let (pool, _gate) = toy_pool(PoolConfig { workers: 2, ..PoolConfig::default() });
        for i in 0..8 {
            pool.submit(JobSpec::new(i, Work::SleepMs(2))).expect("admitted");
        }
        drain(pool);
        let registry = telemetry::metrics::global();
        let served: u64 = (0..2)
            .map(|w| registry.histogram(&format!("serve.worker.{w}.service_secs")).count())
            .sum();
        assert!(served >= 8, "service histograms must cover every completion, saw {served}");
        assert!(registry.counter("serve.pool.submitted_total").get() >= 8);
    }

    #[test]
    fn drop_without_shutdown_joins_cleanly() {
        let (pool, _gate) = toy_pool(PoolConfig::default());
        pool.submit(JobSpec::new(0, Work::SleepMs(1))).expect("admitted");
        drop(pool); // must not hang or panic
    }

    #[test]
    fn shutdown_with_nothing_submitted_is_empty() {
        let (mut pool, _gate) = toy_pool(PoolConfig::default());
        assert!(pool.try_next().is_none(), "an idle pool answers without blocking");
        assert!(drain(pool).is_empty());
    }

    #[test]
    fn pool_stats_track_jobs_and_liveness() {
        let (pool, _gate) = toy_pool(PoolConfig { workers: 2, ..PoolConfig::default() });
        let stats = pool.stats();
        assert!(stats.accepting());
        assert_eq!(stats.workers_alive(), 2);
        let (healthy, body) = stats.healthz();
        assert!(healthy);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        for i in 0..6 {
            pool.submit(JobSpec::new(i, Work::SleepMs(2))).expect("admitted");
        }
        drain(pool);
        // The Arc outlives the pool, frozen at final values.
        assert_eq!(stats.workers_alive(), 0);
        assert!(!stats.accepting());
        assert_eq!(stats.queue_depth(), 0);
        let served: u64 = (0..2)
            .map(|w| {
                let json = stats.workers_json();
                assert!(json.starts_with('[') && json.ends_with(']'));
                let _ = stats.ewma_service_secs(w);
                w as u64
            })
            .count() as u64;
        assert_eq!(served, 2);
        let total_jobs: f64 = stats.workers_json().matches("\"jobs\":").count() as f64;
        assert_eq!(total_jobs, 2.0, "one entry per worker");
        let (_, body) = stats.healthz();
        assert!(body.contains("\"status\":\"stopped\""), "{body}");
    }

    #[test]
    fn pool_stats_ewma_follows_service_times() {
        let stats = PoolStats::new(1);
        stats.record_job(0, 0.100, 0.010);
        assert!((stats.ewma_service_secs(0) - 0.100).abs() < 1e-12, "first job seeds the EWMA");
        stats.record_job(0, 0.200, 0.030);
        let expected = EWMA_ALPHA * 0.200 + (1.0 - EWMA_ALPHA) * 0.100;
        assert!((stats.ewma_service_secs(0) - expected).abs() < 1e-12);
        assert!((stats.wait_secs(0) - 0.040).abs() < 1e-6, "queue waits accumulate");
        let json = stats.workers_json();
        assert!(json.contains("\"jobs\":2"), "{json}");
        assert!(json.contains("\"wait_secs\":"), "{json}");
    }

    #[test]
    #[ignore = "arms process-global failpoints; run serially via the chaos job"]
    fn pickup_failpoint_kills_the_worker_and_shutdown_reports_it() {
        let _guard = enld_chaos::scenario_with("serve.job.pickup=panic@nth:1");
        let (pool, _gate) = toy_pool(PoolConfig { workers: 1, ..PoolConfig::default() });
        pool.submit(JobSpec::new(0, Work::Double(3))).expect("admitted");
        let err = pool.shutdown().expect_err("a dequeued-but-unstarted job must not vanish");
        assert_eq!(err.panics.len(), 1);
        assert!(err.panics[0].contains("failpoint: serve.job.pickup"), "{}", err.panics[0]);
        // The job was dequeued but never produced an outcome: the caller
        // can account for it as submitted − drained.
        assert!(err.drained.is_empty());
    }

    #[test]
    #[ignore = "arms process-global failpoints; run serially via the chaos job"]
    fn run_failpoint_fails_the_job_like_a_detector_panic() {
        let _guard = enld_chaos::scenario_with("serve.job.run=panic@nth:1");
        let (pool, _gate) = toy_pool(PoolConfig { workers: 1, ..PoolConfig::default() });
        pool.submit(JobSpec::new(0, Work::Double(3))).expect("admitted");
        pool.submit(JobSpec::new(1, Work::Double(21))).expect("admitted");
        let outcomes = pool.shutdown().expect("worker must survive an in-detector failpoint");
        assert_eq!(outcomes.len(), 2);
        match &outcomes[0] {
            JobOutcome::Failed(f) => {
                assert!(f.panic_msg.contains("failpoint: serve.job.run"), "{}", f.panic_msg);
            }
            other => panic!("expected a failure, got {other:?}"),
        }
        match &outcomes[1] {
            JobOutcome::Completed(c) => assert_eq!(c.result, 42),
            other => panic!("expected a completion, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = WorkerPool::<u64, u64>::spawn(
            PoolConfig { workers: 0, ..PoolConfig::default() },
            |_| |x: &u64| *x,
        );
    }
}
