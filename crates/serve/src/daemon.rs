//! In-process work-queue serving daemon.
//!
//! The daemon fronts [`ModelRegistry`] + `SynCircuit::generate_one`
//! with the things a batch pipeline lacks:
//!
//! 1. **Admission control** — the request queue is bounded; a
//!    submission past the high-water mark is rejected immediately with
//!    [`ServeError::Overloaded`] instead of buffering without bound.
//!    Callers see backpressure as a typed error, never a deadlock or an
//!    OOM.
//! 2. **Coalescing** — generation is a pure function of
//!    `(artifact, request)`, so a seeded submission identical to one
//!    whose job has not resolved yet attaches to that job instead of
//!    queueing its own. The key is the canonical wire encoding of
//!    `(tenant, artifact, request)`, seed and deadline budget included,
//!    so submissions that could diverge never share. A hit takes no
//!    queue slot and is never refused. The key lives only until the job
//!    resolves, so a later identical submission runs afresh: coalescing
//!    is a concurrency optimisation, not a response cache. Unseeded
//!    requests draw fresh entropy per execution and never coalesce.
//! 3. **Tenant fairness** — queued work lives in per-tenant lanes and
//!    workers drain them round-robin, so one tenant flooding the queue
//!    delays its own backlog, not everyone else's.
//! 4. **Crash-free shutdown** — [`Daemon::shutdown`] stops admitting,
//!    drains every queued job, joins the workers, and fails any job
//!    that could never run (no workers configured) with
//!    [`ServeError::ShuttingDown`]; no ticket is ever left hanging.
//! 5. **Fault isolation** — a request whose deadline passed while
//!    queued is shed with [`ServeError::DeadlineExceeded`] without
//!    occupying a worker; a panic while serving is caught at the job
//!    boundary and fails only that request
//!    ([`ServeError::WorkerPanicked`]) with the worker loop restarting
//!    in place; poisoned locks are recovered (state re-validated)
//!    instead of cascading the panic to every caller.
//!
//! Every submission, coalesced or not, gets a [`Ticket`] on its job's
//! one outcome slot. A slot only one ticket ever held hands its outcome
//! over; a slot several tickets share keeps it and gives each a clone.
//!
//! Everything is std-only: scoped ownership via `Arc`, a `Mutex` +
//! `Condvar` work queue, and plain `std::thread` workers. Serving is
//! deterministic end to end — a [`GenRequest`] with an explicit seed
//! produces the same design whether it ran through the daemon or
//! directly against a freshly loaded model (property-tested in
//! `tests/registry_equivalence.rs`, and with coalescing in
//! `tests/net_equivalence.rs`), and fault injection
//! ([`Daemon::start_with_faults`]) keys every decision on request
//! seeds, never on thread schedule.

use crate::error::ServeError;
use crate::fault::{FaultInjector, JobFault, NoFaults, INJECTED_PANIC_MARK};
use crate::registry::{ModelRegistry, QuarantinePolicy, RegistryBudget};
use crate::retry::RetryPolicy;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use syncircuit_core::{GenRequest, Generated};

/// Configuration of a [`Daemon`].
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Worker threads serving the queue. `0` runs the daemon in
    /// admission-only mode (jobs queue but never execute until
    /// shutdown fails them) — useful for testing admission control
    /// and scheduling order deterministically.
    pub workers: usize,
    /// High-water mark of the request queue: submissions while this
    /// many jobs are queued are rejected with
    /// [`ServeError::Overloaded`]. Must be at least 1.
    pub queue_capacity: usize,
    /// Residency budget of the daemon's model registry.
    pub budget: RegistryBudget,
    /// Retry policy for transient artifact-read failures (see
    /// [`RetryPolicy`]); backoff jitter is seeded per request, so
    /// replays are deterministic.
    pub retry: RetryPolicy,
    /// Quarantine policy for artifacts that repeatedly fail to parse
    /// (see [`QuarantinePolicy`]).
    pub quarantine: QuarantinePolicy,
}

impl Default for DaemonConfig {
    /// One worker per available core, a 1024-deep queue, an unlimited
    /// registry, and the default retry/quarantine policies.
    fn default() -> Self {
        DaemonConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 1024,
            budget: RegistryBudget::unlimited(),
            retry: RetryPolicy::default(),
            quarantine: QuarantinePolicy::default(),
        }
    }
}

/// Counters reported by [`Daemon::shutdown`] and [`Daemon::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Requests admitted and resolved by a worker — successfully, with
    /// a model error, or with a typed resilience error (expired and
    /// panicked jobs resolve too; they are also counted below).
    pub served: u64,
    /// Submissions rejected at admission (overload or shutdown).
    pub rejected: u64,
    /// Jobs currently queued (always 0 after shutdown).
    pub queued: usize,
    /// Jobs shed at the worker because their deadline passed while
    /// queued ([`ServeError::DeadlineExceeded`]).
    pub expired: u64,
    /// Jobs failed by an isolated worker panic
    /// ([`ServeError::WorkerPanicked`]).
    pub panicked: u64,
    /// Submissions that attached to an identical unresolved job instead
    /// of queueing their own.
    pub coalesce_hits: u64,
}

/// One queued generation job.
struct Job {
    model: String,
    request: GenRequest,
    /// Absolute expiry, resolved from the request's time budget at
    /// admission.
    deadline: Option<Instant>,
    /// The request's explicit seed (0 when unseeded): the key every
    /// deterministic fault-injection decision derives from.
    seed_hint: u64,
    /// The job's coalescing key in the in-flight map (seeded requests
    /// only).
    key: Option<String>,
    slot: Arc<Slot>,
}

/// A completion hook: called once with a request's outcome by
/// whichever thread resolves it.
type Hook = Box<dyn FnOnce(Result<Generated, ServeError>) + Send>;

/// Locks `mutex`, recovering a poisoned lock. Only for state that every
/// update leaves valid (single assignments and map inserts or removals),
/// with hooks run outside the lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        poisoned.into_inner()
    })
}

/// What a [`Slot`] holds.
enum SlotState {
    /// Unresolved, with the hooks of the tickets redeemed through
    /// [`Ticket::on_complete`]. Also what a lone ticket's slot is left
    /// holding once its outcome is handed over.
    Pending(Vec<Hook>),
    /// Resolved, with the outcome for tickets not yet redeemed (boxed:
    /// a design dwarfs the other variant). A lone ticket takes it; when
    /// a second submission joined the job, each ticket gets a clone.
    Done {
        outcome: Box<Result<Generated, ServeError>>,
        joined: bool,
    },
}

impl SlotState {
    /// The published outcome for one ticket; `None` while unresolved.
    fn redeem(&mut self) -> Option<Result<Generated, ServeError>> {
        match self {
            SlotState::Pending(_) => None,
            SlotState::Done {
                outcome,
                joined: true,
            } => Some((**outcome).clone()),
            SlotState::Done { joined: false, .. } => {
                match std::mem::replace(self, SlotState::Pending(Vec::new())) {
                    SlotState::Done { outcome, .. } => Some(*outcome),
                    SlotState::Pending(_) => unreachable!("matched as done above"),
                }
            }
        }
    }
}

/// The one outcome slot of a job, shared by every [`Ticket`] on it.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::Pending(Vec::new())),
            cv: Condvar::new(),
        })
    }

    /// Resolves the slot: stores the outcome for blocking and later
    /// tickets (unless a lone ticket's hook takes it), wakes the
    /// blocked ones, then calls every hook registered so far, outside
    /// the lock. `joined` says whether a second submission joined the
    /// job.
    fn publish(&self, outcome: Result<Generated, ServeError>, joined: bool) {
        let mut state = lock(&self.state);
        let SlotState::Pending(mut hooks) =
            std::mem::replace(&mut *state, SlotState::Pending(Vec::new()))
        else {
            unreachable!("a job resolves once");
        };
        let Some(last) = hooks.pop() else {
            *state = SlotState::Done {
                outcome: Box::new(outcome),
                joined,
            };
            drop(state);
            self.cv.notify_all();
            return;
        };
        if joined {
            *state = SlotState::Done {
                outcome: Box::new(outcome.clone()),
                joined,
            };
        }
        drop(state);
        self.cv.notify_all();
        for hook in hooks {
            hook(outcome.clone());
        }
        last(outcome);
    }

    /// Blocks until the outcome is published and redeems it; `None`
    /// when `give_up` passes first (`None` waits forever).
    fn wait(&self, give_up: Option<Instant>) -> Option<Result<Generated, ServeError>> {
        let mut state = lock(&self.state);
        loop {
            if let Some(outcome) = state.redeem() {
                return Some(outcome);
            }
            state = match give_up {
                None => self.cv.wait(state).unwrap_or_else(PoisonError::into_inner),
                Some(give_up) => {
                    let left = give_up.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    match self.cv.wait_timeout(state, left) {
                        Ok((state, _)) => state,
                        Err(poisoned) => poisoned.into_inner().0,
                    }
                }
            };
        }
    }
}

/// A handle to one admitted submission; redeem it with
/// [`Ticket::wait`] or [`Ticket::wait_timeout`]. Dropping it unredeemed
/// is safe: the daemon resolves the job regardless.
#[must_use = "an unredeemed ticket discards the response"]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the daemon has served (or failed) the request and
    /// returns the outcome. Every admitted ticket resolves: workers
    /// fill it on completion, and shutdown fails stranded jobs with
    /// [`ServeError::ShuttingDown`].
    pub fn wait(self) -> Result<Generated, ServeError> {
        self.slot
            .wait(None)
            .expect("an unbounded wait always resolves")
    }

    /// Like [`Ticket::wait`], but gives up after `timeout`. On timeout
    /// the (still unredeemed) ticket is handed back so the caller can
    /// keep waiting or drop it — the daemon still resolves the slot, so
    /// a timed-out wait never leaks a hung job.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when `timeout` elapsed without an outcome.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<Generated, ServeError>, Ticket> {
        self.slot.wait(Some(Instant::now() + timeout)).ok_or(self)
    }

    /// Redeems the ticket without blocking: `hook` runs once with the
    /// outcome, on whichever thread resolves the request — the worker
    /// that served it, the shutdown that failed it, or this caller,
    /// right now, when the outcome has already landed. Hooks run outside
    /// every daemon lock but on that thread's time, so they must be
    /// quick (hand the outcome off, never block).
    pub(crate) fn on_complete(
        self,
        hook: impl FnOnce(Result<Generated, ServeError>) + Send + 'static,
    ) {
        let mut state = lock(&self.slot.state);
        if let SlotState::Pending(hooks) = &mut *state {
            hooks.push(Box::new(hook));
            return;
        }
        let outcome = state.redeem();
        drop(state);
        hook(outcome.expect("a slot that is not pending is resolved"));
    }
}

/// Per-tenant lanes drained round-robin. Lanes are kept in first-seen
/// tenant order (never removed), so the scheduling order is a pure
/// function of the submission sequence — deterministic and testable.
#[derive(Default)]
struct Queues {
    lanes: Vec<(String, VecDeque<Job>)>,
    cursor: usize,
    queued: usize,
    shutting_down: bool,
}

impl Queues {
    fn push(&mut self, tenant: &str, job: Job) {
        match self.lanes.iter_mut().find(|(name, _)| name == tenant) {
            Some((_, lane)) => lane.push_back(job),
            None => {
                let mut lane = VecDeque::new();
                lane.push_back(job);
                self.lanes.push((tenant.to_string(), lane));
            }
        }
        self.queued += 1;
    }

    /// Pops the next job round-robin, starting at the lane after the
    /// previously drained one and skipping empty lanes.
    fn pop_round_robin(&mut self) -> Option<Job> {
        if self.queued == 0 {
            return None;
        }
        let n = self.lanes.len();
        for offset in 0..n {
            let idx = (self.cursor + offset) % n;
            if let Some(job) = self.lanes[idx].1.pop_front() {
                self.cursor = (idx + 1) % n;
                self.queued -= 1;
                return Some(job);
            }
        }
        None
    }

    /// Re-derives the cached queue depth from the lanes themselves —
    /// run after recovering a poisoned lock, where a panic may have
    /// struck between a lane mutation and the counter update.
    fn revalidate(&mut self) {
        self.queued = self.lanes.iter().map(|(_, lane)| lane.len()).sum();
    }
}

struct Shared {
    /// The slot of every unresolved seeded job, and whether a second
    /// submission joined it, by coalescing key. A key enters when its job
    /// is admitted and leaves when the job resolves, before the outcome
    /// is published. Lock order: this map, then `queues`, never the
    /// reverse; no hook runs under either.
    inflight: Mutex<HashMap<String, (Arc<Slot>, bool)>>,
    queues: Mutex<Queues>,
    work_cv: Condvar,
    registry: ModelRegistry,
    injector: Arc<dyn FaultInjector>,
    queue_capacity: usize,
    served: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    panicked: AtomicU64,
    coalesce_hits: AtomicU64,
}

impl Shared {
    /// Locks the queues, recovering (and re-validating) a poisoned
    /// lock: a worker that panicked while holding it cannot take the
    /// whole daemon down.
    fn lock_queues(&self) -> MutexGuard<'_, Queues> {
        self.queues
            .lock()
            .unwrap_or_else(|poisoned| self.recover_queues(poisoned))
    }

    fn recover_queues<'a>(
        &'a self,
        poisoned: PoisonError<MutexGuard<'a, Queues>>,
    ) -> MutexGuard<'a, Queues> {
        self.queues.clear_poison();
        let mut guard = poisoned.into_inner();
        guard.revalidate();
        guard
    }

    /// Resolves a job: its key leaves the in-flight map first, so no
    /// later submission can join it, then every ticket on its slot gets
    /// the outcome.
    fn resolve(&self, job: Job, outcome: Result<Generated, ServeError>) {
        let joined = job.key.is_some_and(|key| {
            lock(&self.inflight)
                .remove(&key)
                .is_some_and(|(_, joined)| joined)
        });
        job.slot.publish(outcome, joined);
    }
}

/// The canonical coalescing key. `GenRequest`'s wire encoding is
/// canonical (fixed field order, deadline as millis), so textual
/// equality here is semantic equality of the whole submission.
fn key_of(tenant: &str, artifact: &str, request: &GenRequest) -> String {
    let body = serde_json::to_string(request).expect("canonical request encodings always render");
    format!("{tenant}\u{0}{artifact}\u{0}{body}")
}

/// The serving daemon (see the module docs).
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.shared.queue_capacity)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Starts the daemon: spawns `config.workers` worker threads over a
    /// fresh registry with `config.budget`, with no fault injection.
    ///
    /// # Panics
    ///
    /// Panics if `config.queue_capacity` is 0 (a daemon that admits
    /// nothing is a misconfiguration, not a serving policy).
    pub fn start(config: DaemonConfig) -> Self {
        Self::start_with_faults(config, Arc::new(NoFaults))
    }

    /// Starts the daemon with a fault injector wired into the
    /// registry's artifact-read seam and the worker's job boundary.
    /// Production code uses [`Daemon::start`] ([`NoFaults`]); chaos
    /// tests pass a seeded [`crate::FaultPlan`].
    ///
    /// # Panics
    ///
    /// Panics if `config.queue_capacity` is 0.
    pub fn start_with_faults(config: DaemonConfig, injector: Arc<dyn FaultInjector>) -> Self {
        assert!(
            config.queue_capacity > 0,
            "queue_capacity must be at least 1"
        );
        let shared = Arc::new(Shared {
            inflight: Mutex::new(HashMap::new()),
            queues: Mutex::new(Queues::default()),
            work_cv: Condvar::new(),
            registry: ModelRegistry::with_resilience(
                config.budget,
                config.retry,
                config.quarantine,
                injector.clone(),
            ),
            injector,
            queue_capacity: config.queue_capacity,
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            coalesce_hits: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("syncircuit-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Daemon { shared, workers }
    }

    /// Submits a generation request on behalf of `tenant` against the
    /// model artifact at `model_path`, and returns at once with a
    /// [`Ticket`]. A seeded request identical to an unresolved one
    /// joins that job (a coalesce hit, see the module docs); any other
    /// is admitted to the queue as a job of its own. A request with a
    /// time budget ([`GenRequest::deadline`]) is stamped with its
    /// absolute deadline here, at admission.
    ///
    /// # Errors
    ///
    /// Only a submission that needs a job of its own can fail:
    ///
    /// - [`ServeError::Overloaded`] when the queue is at its high-water
    ///   mark (the submission is shed, not buffered).
    /// - [`ServeError::ShuttingDown`] when shutdown has begun.
    pub fn submit(
        &self,
        tenant: &str,
        model_path: &str,
        request: GenRequest,
    ) -> Result<Ticket, ServeError> {
        let key = request.seed().map(|_| key_of(tenant, model_path, &request));
        // Held until the job is queued and its key is in the map, so an
        // identical submission racing this one joins it instead of
        // queueing a second job.
        let inflight = match &key {
            Some(key) => {
                let mut inflight = lock(&self.shared.inflight);
                if let Some((slot, joined)) = inflight.get_mut(key) {
                    *joined = true;
                    self.shared.coalesce_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Ticket { slot: slot.clone() });
                }
                Some(inflight)
            }
            None => None,
        };
        let slot = Slot::new();
        {
            let mut queues = self.shared.lock_queues();
            if queues.shutting_down {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::ShuttingDown);
            }
            if queues.queued >= self.shared.queue_capacity {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    capacity: self.shared.queue_capacity,
                });
            }
            queues.push(
                tenant,
                Job {
                    model: model_path.to_string(),
                    deadline: request.time_budget().map(|budget| Instant::now() + budget),
                    seed_hint: request.seed().unwrap_or(0),
                    request,
                    key: key.clone(),
                    slot: slot.clone(),
                },
            );
        }
        if let (Some(key), Some(mut inflight)) = (key, inflight) {
            inflight.insert(key, (slot.clone(), false));
        }
        self.shared.work_cv.notify_one();
        Ok(Ticket { slot })
    }

    /// The daemon's model registry (for telemetry; e.g. eviction and
    /// quarantine counts under budget or fault pressure).
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Current serving counters.
    pub fn stats(&self) -> DaemonStats {
        let shared = &self.shared;
        DaemonStats {
            served: shared.served.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
            queued: shared.lock_queues().queued,
            expired: shared.expired.load(Ordering::Relaxed),
            panicked: shared.panicked.load(Ordering::Relaxed),
            coalesce_hits: shared.coalesce_hits.load(Ordering::Relaxed),
        }
    }

    /// Stops admitting, drains every queued job, joins the workers, and
    /// fails jobs that could never run (admission-only mode) with
    /// [`ServeError::ShuttingDown`]. Returns the final counters.
    pub fn shutdown(mut self) -> DaemonStats {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            handle.join().expect("serve worker panicked");
        }
        self.fail_stranded();
        self.stats()
    }

    pub(crate) fn begin_shutdown(&self) {
        let mut queues = self.shared.lock_queues();
        queues.shutting_down = true;
        drop(queues);
        self.shared.work_cv.notify_all();
    }

    /// Fails every still-queued job (only possible with zero workers —
    /// workers drain the queue before exiting). The jobs leave the queue
    /// under its lock but resolve after it is released, so their
    /// completion hooks never run under it.
    pub(crate) fn fail_stranded(&self) {
        let stranded: Vec<Job> = {
            let mut queues = self.shared.lock_queues();
            std::iter::from_fn(|| queues.pop_round_robin()).collect()
        };
        for job in stranded {
            self.shared.resolve(job, Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for Daemon {
    /// Safety net for daemons dropped without [`Daemon::shutdown`]:
    /// signals shutdown, joins workers, and resolves stranded tickets
    /// so no waiter blocks forever.
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.fail_stranded();
    }
}

/// Renders a caught panic payload for [`ServeError::WorkerPanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Serves one job: queue-side deadline expiry first (an expired job is
/// shed without touching the registry), then model resolution +
/// generation under `catch_unwind` so a panic — injected or real —
/// fails only this request.
fn serve_job(shared: &Shared, job: &Job) -> Result<Generated, ServeError> {
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        shared.expired.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError::DeadlineExceeded);
    }
    let seed = job.seed_hint;
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if let Some(JobFault::Panic) = shared.injector.job_start(seed) {
            panic!("{INJECTED_PANIC_MARK} (seed {seed})");
        }
        shared
            .registry
            .get_or_load_seeded(&job.model, seed)
            .and_then(|model| model.generate_one(&job.request).map_err(ServeError::Model))
    }));
    match attempt {
        Ok(outcome) => outcome,
        Err(payload) => {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
            Err(ServeError::WorkerPanicked {
                message: panic_message(payload.as_ref()),
            })
        }
    }
}

/// One pass of the worker: pop → serve → resolve, until shutdown. Runs
/// under the respawn guard in [`worker_loop`].
fn serve_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queues = shared.lock_queues();
            loop {
                if let Some(job) = queues.pop_round_robin() {
                    break job;
                }
                if queues.shutting_down {
                    return; // drained and shutting down
                }
                queues = match shared.work_cv.wait(queues) {
                    Ok(g) => g,
                    Err(poisoned) => shared.recover_queues(poisoned),
                };
            }
        };
        // Serve outside the queue lock: model resolution and generation
        // are the expensive part and must overlap across workers.
        let outcome = serve_job(shared, &job);
        shared.resolve(job, outcome);
        shared.served.fetch_add(1, Ordering::Relaxed);
    }
}

/// Worker entry point: respawns [`serve_loop`] in place if a panic ever
/// escapes the per-job `catch_unwind` boundary (e.g. out of the queue
/// bookkeeping itself), so the daemon never silently loses a worker.
fn worker_loop(shared: &Shared) {
    loop {
        if catch_unwind(AssertUnwindSafe(|| serve_loop(shared))).is_ok() {
            return; // orderly shutdown exit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ReadFault;
    use std::sync::atomic::AtomicBool;

    fn probe_job(tag: &str) -> Job {
        Job {
            model: tag.to_string(),
            request: GenRequest::nodes(8),
            deadline: None,
            seed_hint: 0,
            key: None,
            slot: Slot::new(),
        }
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let mut q = Queues::default();
        // Tenant a floods first; b and c trickle in after.
        for i in 0..3 {
            q.push("a", probe_job(&format!("a{i}")));
        }
        q.push("b", probe_job("b0"));
        q.push("c", probe_job("c0"));
        let order: Vec<String> = std::iter::from_fn(|| q.pop_round_robin())
            .map(|j| j.model)
            .collect();
        assert_eq!(order, ["a0", "b0", "c0", "a1", "a2"]);
        assert_eq!(q.queued, 0);
    }

    #[test]
    fn round_robin_resumes_after_refill() {
        let mut q = Queues::default();
        q.push("a", probe_job("a0"));
        q.push("b", probe_job("b0"));
        assert_eq!(q.pop_round_robin().unwrap().model, "a0");
        // New work for a arrives before b is drained; b still goes next.
        q.push("a", probe_job("a1"));
        assert_eq!(q.pop_round_robin().unwrap().model, "b0");
        assert_eq!(q.pop_round_robin().unwrap().model, "a1");
        assert!(q.pop_round_robin().is_none());
    }

    #[test]
    fn admission_rejects_past_high_water_mark() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity: 2,
            ..DaemonConfig::default()
        });
        let t1 = daemon.submit("a", "m", GenRequest::nodes(8)).unwrap();
        let t2 = daemon.submit("b", "m", GenRequest::nodes(8)).unwrap();
        match daemon.submit("c", "m", GenRequest::nodes(8)) {
            Err(ServeError::Overloaded { capacity: 2 }) => {}
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        assert_eq!(daemon.stats().rejected, 1);
        assert_eq!(daemon.stats().queued, 2);
        let stats = daemon.shutdown();
        assert_eq!(stats.queued, 0, "shutdown leaves nothing queued");
        for t in [t1, t2] {
            assert_eq!(t.wait().unwrap_err(), ServeError::ShuttingDown);
        }
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity: 4,
            ..DaemonConfig::default()
        });
        daemon.begin_shutdown();
        match daemon.submit("a", "m", GenRequest::nodes(8)) {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn zero_capacity_is_a_misconfiguration() {
        let result = std::panic::catch_unwind(|| {
            Daemon::start(DaemonConfig {
                workers: 0,
                queue_capacity: 0,
                ..DaemonConfig::default()
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn drop_without_shutdown_resolves_tickets() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity: 4,
            ..DaemonConfig::default()
        });
        let ticket = daemon.submit("a", "m", GenRequest::nodes(8)).unwrap();
        drop(daemon);
        assert_eq!(ticket.wait().unwrap_err(), ServeError::ShuttingDown);
    }

    #[test]
    fn expired_deadline_is_shed_without_a_model() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            queue_capacity: 4,
            ..DaemonConfig::default()
        });
        // Zero budget: the deadline has passed by the time a worker
        // pops the job, so the (nonexistent) model is never touched.
        let ticket = daemon
            .submit(
                "a",
                "/no/such/model.json",
                GenRequest::nodes(8).deadline(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
        assert_eq!(
            daemon.registry().stats().load_failures,
            0,
            "expired jobs never reach the registry"
        );
        let stats = daemon.shutdown();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.served, 1, "an expired job still resolves its ticket");
    }

    #[test]
    fn wait_timeout_hands_the_ticket_back() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity: 4,
            ..DaemonConfig::default()
        });
        let ticket = daemon.submit("a", "m", GenRequest::nodes(8)).unwrap();
        // No workers: the job cannot resolve, so the bounded wait must
        // give up and return the ticket rather than hanging.
        let ticket = match ticket.wait_timeout(Duration::from_millis(20)) {
            Err(t) => t,
            Ok(outcome) => panic!("expected timeout, got {:?}", outcome.map(|_| ())),
        };
        daemon.shutdown();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::ShuttingDown);
    }

    /// A hook runs exactly once, on whichever side resolves the ticket:
    /// shutdown's `fail_stranded` for a hook registered first, the
    /// registering caller for a ticket that already resolved.
    #[test]
    fn completion_hooks_run_once_wherever_the_ticket_resolves() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity: 4,
            ..DaemonConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let early = tx.clone();
        daemon
            .submit("a", "m", GenRequest::nodes(8))
            .unwrap()
            .on_complete(move |outcome| early.send(("early", outcome)).unwrap());
        let late = daemon.submit("a", "m", GenRequest::nodes(8)).unwrap();
        assert!(rx.try_recv().is_err(), "nothing has resolved yet");
        daemon.begin_shutdown();
        daemon.fail_stranded();
        let (tag, outcome) = rx.try_recv().expect("fail_stranded ran the hook");
        assert_eq!(
            (tag, outcome.unwrap_err()),
            ("early", ServeError::ShuttingDown)
        );
        late.on_complete(move |outcome| tx.send(("late", outcome)).unwrap());
        let (tag, outcome) = rx
            .try_recv()
            .expect("a resolved ticket runs its hook at once");
        assert_eq!(
            (tag, outcome.unwrap_err()),
            ("late", ServeError::ShuttingDown)
        );
        assert!(rx.try_recv().is_err(), "each hook runs once");
    }

    /// A worker resolving a hooked ticket hands the outcome to the hook.
    #[test]
    fn workers_resolve_hooked_tickets() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            queue_capacity: 4,
            ..DaemonConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        daemon
            .submit(
                "a",
                "/no/such/model.json",
                GenRequest::nodes(8).deadline(Duration::ZERO),
            )
            .unwrap()
            .on_complete(move |outcome| tx.send(outcome).unwrap());
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("hook fired");
        assert_eq!(outcome.unwrap_err(), ServeError::DeadlineExceeded);
        daemon.shutdown();
    }

    /// Panics the job whose request seed is 7; leaves others alone.
    #[derive(Debug)]
    struct PanicOnSeed7;

    impl FaultInjector for PanicOnSeed7 {
        fn artifact_read(&self, _path: &str, _seed: u64, _attempt: u32) -> Option<ReadFault> {
            None
        }

        fn job_start(&self, seed: u64) -> Option<JobFault> {
            (seed == 7).then_some(JobFault::Panic)
        }
    }

    #[test]
    fn worker_panic_fails_one_request_and_recovers() {
        crate::fault::silence_injected_panics();
        let daemon = Daemon::start_with_faults(
            DaemonConfig {
                workers: 1,
                queue_capacity: 4,
                ..DaemonConfig::default()
            },
            Arc::new(PanicOnSeed7),
        );
        let poisoned = daemon
            .submit("a", "/irrelevant.json", GenRequest::nodes(8).seeded(7))
            .unwrap();
        match poisoned.wait().unwrap_err() {
            ServeError::WorkerPanicked { message } => {
                assert!(message.contains(INJECTED_PANIC_MARK), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The same single worker must still be alive to serve (and
        // type-fail) the next request.
        let next = daemon
            .submit("a", "/no/such/model.json", GenRequest::nodes(8).seeded(8))
            .unwrap();
        assert!(matches!(next.wait().unwrap_err(), ServeError::Model(_)));
        let stats = daemon.shutdown();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.served, 2);
    }

    fn admission_only(queue_capacity: usize) -> Daemon {
        Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity,
            ..DaemonConfig::default()
        })
    }

    fn inflight_keys(daemon: &Daemon) -> usize {
        lock(&daemon.shared.inflight).len()
    }

    /// Fails every queued job with `ShuttingDown`, as shutdown does in
    /// admission-only mode, but keeps the daemon inspectable.
    fn fail_queued(daemon: &Daemon) {
        daemon.begin_shutdown();
        daemon.fail_stranded();
    }

    /// K identical seeded submissions queue exactly one job; the other
    /// K-1 are hits. Deterministic: zero workers means the job stays
    /// unresolved for the whole burst.
    #[test]
    fn identical_submissions_share_one_execution() {
        let daemon = admission_only(4);
        let request = || GenRequest::nodes(16).seeded(9);
        let tickets: Vec<_> = (0..5)
            .map(|_| daemon.submit("t", "/m.json", request()).unwrap())
            .collect();
        let stats = daemon.stats();
        assert_eq!(stats.queued, 1, "one job for the whole group");
        assert_eq!(stats.coalesce_hits, 4);
        assert_eq!(stats.served, 0, "zero workers serve nothing");
        // Failing the one job fails every ticket on it with the same
        // typed outcome.
        let daemon = &daemon;
        std::thread::scope(|scope| {
            let handles: Vec<_> = tickets
                .into_iter()
                .map(|t| scope.spawn(move || t.wait()))
                .collect();
            // Give the waiters a beat to block, then resolve them.
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(daemon.stats().queued, 1);
            fail_queued(daemon);
            for h in handles {
                assert_eq!(h.join().unwrap().unwrap_err(), ServeError::ShuttingDown);
            }
        });
    }

    /// Different seeds, tenants, artifacts, node counts, or deadlines
    /// never coalesce.
    #[test]
    fn distinct_submissions_never_share() {
        let daemon = admission_only(16);
        let base = || GenRequest::nodes(16).seeded(9);
        let _t: Vec<_> = vec![
            daemon.submit("t", "/m.json", base()).unwrap(),
            daemon.submit("t", "/m.json", base().seeded(10)).unwrap(),
            daemon.submit("u", "/m.json", base()).unwrap(),
            daemon.submit("t", "/n.json", base()).unwrap(),
            daemon
                .submit("t", "/m.json", GenRequest::nodes(17).seeded(9))
                .unwrap(),
            daemon
                .submit("t", "/m.json", base().deadline(Duration::from_secs(5)))
                .unwrap(),
        ];
        let stats = daemon.stats();
        assert_eq!(stats.coalesce_hits, 0);
        assert_eq!(stats.served, 0, "zero workers serve nothing");
        assert_eq!(stats.queued, 6);
    }

    /// Unseeded requests draw fresh entropy per run, so they must not
    /// coalesce even when textually identical.
    #[test]
    fn unseeded_requests_pass_straight_through() {
        let daemon = admission_only(4);
        let _a = daemon
            .submit("t", "/m.json", GenRequest::nodes(16))
            .unwrap();
        let _b = daemon
            .submit("t", "/m.json", GenRequest::nodes(16))
            .unwrap();
        let stats = daemon.stats();
        assert_eq!(stats.coalesce_hits, 0);
        assert_eq!(stats.served, 0, "zero workers serve nothing");
        assert_eq!(stats.queued, 2);
        assert_eq!(inflight_keys(&daemon), 0, "unseeded jobs have no key");
    }

    /// An admission failure (overload) propagates to the caller and
    /// leaves no in-flight key behind, while a submission identical to
    /// an admitted job still joins it with the queue full.
    #[test]
    fn admission_errors_do_not_pin_entries() {
        let daemon = admission_only(1);
        let _first = daemon
            .submit("t", "/m.json", GenRequest::nodes(16).seeded(1))
            .unwrap();
        match daemon.submit("t", "/m.json", GenRequest::nodes(16).seeded(2)) {
            Err(ServeError::Overloaded { capacity: 1 }) => {}
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        assert_eq!(
            inflight_keys(&daemon),
            1,
            "only the admitted key is in flight"
        );
        // The overloaded key coalesces nothing and queues nothing…
        assert_eq!(daemon.stats().queued, 1);
        // …but an identical retry of the *admitted* key still joins it.
        let _dup = daemon
            .submit("t", "/m.json", GenRequest::nodes(16).seeded(1))
            .unwrap();
        let stats = daemon.stats();
        assert_eq!((stats.coalesce_hits, stats.rejected), (1, 1));
    }

    /// Hooked tickets are called when the job resolves, the key is gone
    /// by then, and a hook registered on a resolved job runs at once.
    #[test]
    fn hooks_receive_the_published_outcome() {
        let daemon = admission_only(4);
        let request = || GenRequest::nodes(16).seeded(5);
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..3 {
            let tx = tx.clone();
            daemon
                .submit("t", "/m.json", request())
                .unwrap()
                .on_complete(move |outcome| tx.send(outcome).unwrap());
        }
        let late = daemon.submit("t", "/m.json", request()).unwrap();
        assert_eq!(daemon.stats().queued, 1, "one job for the whole group");
        assert!(rx.try_recv().is_err(), "nothing has resolved yet");
        fail_queued(&daemon);
        for _ in 0..3 {
            assert_eq!(
                rx.try_recv().unwrap().unwrap_err(),
                ServeError::ShuttingDown
            );
        }
        assert_eq!(inflight_keys(&daemon), 0, "a resolved job has no key");
        late.on_complete(move |outcome| tx.send(outcome).unwrap());
        assert_eq!(
            rx.try_recv().unwrap().unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    /// A bounded wait on an unresolved job hands the ticket back, and
    /// the job stays joinable until it resolves.
    #[test]
    fn wait_timeout_keeps_the_group_alive() {
        let daemon = admission_only(4);
        let request = || GenRequest::nodes(16).seeded(4);
        let a = daemon.submit("t", "/m.json", request()).unwrap();
        let a = match a.wait_timeout(Duration::from_millis(15)) {
            Err(t) => t,
            Ok(outcome) => panic!("expected timeout, got {:?}", outcome.map(|_| ())),
        };
        assert_eq!(
            inflight_keys(&daemon),
            1,
            "the timed-out job is still in flight"
        );
        let b = daemon.submit("t", "/m.json", request()).unwrap();
        assert_eq!(daemon.stats().coalesce_hits, 1);
        fail_queued(&daemon);
        assert_eq!(a.wait().unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(b.wait().unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(inflight_keys(&daemon), 0);
    }

    /// A key lives exactly as long as its job: with every ticket
    /// dropped, an identical submission still joins the unresolved job,
    /// and once the job resolves the key is gone.
    #[test]
    fn the_key_lives_until_its_job_resolves() {
        let daemon = admission_only(4);
        let request = || GenRequest::nodes(16).seeded(3);
        drop(daemon.submit("t", "/m.json", request()).unwrap());
        drop(daemon.submit("t", "/m.json", request()).unwrap());
        assert_eq!(inflight_keys(&daemon), 1, "dropped tickets keep the key");
        let joined = daemon.submit("t", "/m.json", request()).unwrap();
        let stats = daemon.stats();
        assert_eq!((stats.coalesce_hits, stats.queued), (2, 1));
        fail_queued(&daemon);
        assert_eq!(inflight_keys(&daemon), 0, "a resolved job has no key");
        assert_eq!(joined.wait().unwrap_err(), ServeError::ShuttingDown);
    }

    /// Panics the first job that starts; leaves every later one alone.
    #[derive(Debug, Default)]
    struct PanicFirstJob(AtomicBool);

    impl FaultInjector for PanicFirstJob {
        fn job_start(&self, _seed: u64) -> Option<JobFault> {
            (!self.0.swap(true, Ordering::Relaxed)).then_some(JobFault::Panic)
        }
    }

    /// A resolved execution never answers a later submission, however
    /// long an earlier ticket on it stays unredeemed: an identical
    /// resubmission runs afresh and gets its own outcome.
    #[test]
    fn a_resolved_job_never_answers_a_later_submission() {
        crate::fault::silence_injected_panics();
        let daemon = Daemon::start_with_faults(
            DaemonConfig {
                workers: 1,
                queue_capacity: 4,
                ..DaemonConfig::default()
            },
            Arc::new(PanicFirstJob::default()),
        );
        let request = || GenRequest::nodes(8).seeded(11);
        let first = daemon
            .submit("a", "/no/such/model.json", request())
            .unwrap();
        let gave_up = Instant::now() + Duration::from_secs(30);
        while daemon.stats().served < 1 {
            assert!(Instant::now() < gave_up, "the first job never resolved");
            std::thread::sleep(Duration::from_millis(2));
        }
        let again = daemon
            .submit("a", "/no/such/model.json", request())
            .unwrap();
        assert!(
            matches!(again.wait().unwrap_err(), ServeError::Model(_)),
            "the resubmission must run, not replay the panic"
        );
        assert!(matches!(
            first.wait().unwrap_err(),
            ServeError::WorkerPanicked { .. }
        ));
        let stats = daemon.shutdown();
        assert_eq!(stats.coalesce_hits, 0);
        assert_eq!(stats.served, 2);
    }
}
