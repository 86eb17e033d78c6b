//! Request coalescing in front of the [`Daemon`].
//!
//! Heavy traffic repeats itself: many users asking one model for the
//! same seeded request at the same time. Because generation is a pure
//! function of `(artifact, request)`, every one of those submissions
//! would compute the byte-identical design — so only the first needs a
//! worker. The [`Coalescer`] keys each submission by the *canonical
//! wire encoding* of `(tenant, artifact, request)` (which includes the
//! seed and the deadline budget, so requests that could legitimately
//! diverge never share) and attaches identical concurrent submissions
//! to one in-flight execution:
//!
//! - the first submission of a key (the **leader**) is admitted to the
//!   daemon normally and counted as a *coalesce miss*;
//! - while the leader is in flight, identical submissions (the
//!   **followers**) receive a [`CoalesceTicket`] onto the same slot
//!   without touching the admission queue at all — each is a *coalesce
//!   hit*, immune to [`ServeError::Overloaded`] by construction;
//! - when the leader's outcome lands, every attached waiter receives a
//!   clone of it — byte-identical designs, or the same typed error;
//! - once resolved (or once every waiter has dropped), the key leaves
//!   the in-flight map, so a *later* identical submission starts a
//!   fresh execution — coalescing is a concurrency optimisation, not a
//!   response cache.
//!
//! Nobody blocks on the leader's daemon ticket. The coalescer redeems
//! it at admission with a completion hook, which publishes the outcome
//! to the group on whichever thread resolves the job. Each waiter then
//! either blocks on the published outcome ([`CoalesceTicket::wait`]) or
//! registers a hook of its own and is called with it, as the network
//! server's connections do.
//!
//! Unseeded requests draw fresh entropy per execution, so two of them
//! are *not* the same computation: only requests with an explicit seed
//! are eligible to coalesce; unseeded ones always pass straight
//! through (counted as misses). Hits and misses surface in
//! [`DaemonStats`]. `tests/net_equivalence.rs` property-tests that a
//! coalesced run is outcome-identical to an uncoalesced one.

use crate::daemon::{Daemon, DaemonStats, Hook, Ticket};
use crate::error::ServeError;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use syncircuit_core::{GenRequest, Generated};

/// The rendezvous cell one coalesced group waits on.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

enum SlotState {
    /// The leader's job is unresolved; these waiters' hooks run when it
    /// lands.
    Pending(Vec<Hook>),
    /// The leader's outcome, cloned to every waiter (boxed: a design
    /// dwarfs the pending variant).
    Done(Box<Result<Generated, ServeError>>),
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::Pending(Vec::new())),
            cv: Condvar::new(),
        })
    }

    fn lock_state(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(|poisoned| {
            self.state.clear_poison();
            poisoned.into_inner()
        })
    }

    /// The leader ticket's completion hook: records the outcome for
    /// blocking waiters and late hooks, wakes the former, then calls
    /// every hook registered so far (outside the lock).
    fn publish(&self, outcome: Result<Generated, ServeError>) {
        let previous = std::mem::replace(
            &mut *self.lock_state(),
            SlotState::Done(Box::new(outcome.clone())),
        );
        self.cv.notify_all();
        if let SlotState::Pending(mut hooks) = previous {
            if let Some(last) = hooks.pop() {
                for hook in hooks {
                    hook(outcome.clone());
                }
                last(outcome);
            }
        }
    }

    /// Calls `hook` with the group's outcome: at publication, or right
    /// now when it has already been published.
    fn on_complete(&self, hook: Hook) {
        let mut state = self.lock_state();
        match &mut *state {
            SlotState::Pending(hooks) => hooks.push(hook),
            SlotState::Done(outcome) => {
                let outcome = (**outcome).clone();
                drop(state);
                hook(outcome);
            }
        }
    }

    /// Blocks until the outcome is published and returns a clone of it;
    /// `None` when `timeout` elapses first (`None` timeout waits
    /// forever).
    fn wait(&self, timeout: Option<Duration>) -> Option<Result<Generated, ServeError>> {
        let give_up = timeout.map(|t| Instant::now() + t);
        let mut state = self.lock_state();
        loop {
            if let SlotState::Done(outcome) = &*state {
                return Some((**outcome).clone());
            }
            state = match give_up {
                None => self.cv.wait(state).unwrap_or_else(|poisoned| {
                    self.state.clear_poison();
                    poisoned.into_inner()
                }),
                Some(give_up) => {
                    let now = Instant::now();
                    if now >= give_up {
                        return None;
                    }
                    match self.cv.wait_timeout(state, give_up - now) {
                        Ok((g, _)) => g,
                        Err(poisoned) => {
                            self.state.clear_poison();
                            poisoned.into_inner().0
                        }
                    }
                }
            };
        }
    }
}

struct InFlight {
    slot: Arc<Slot>,
    /// Live [`CoalesceTicket`]s on this slot; the map entry is removed
    /// when it reaches zero so the key can run fresh again.
    waiters: usize,
}

/// The shared in-flight map. Tickets hold an `Arc` of it so they are
/// `Send + 'static` (the network server moves them across threads).
#[derive(Default)]
struct InflightMap {
    map: Mutex<HashMap<String, InFlight>>,
}

impl InflightMap {
    fn lock(&self) -> MutexGuard<'_, HashMap<String, InFlight>> {
        self.map.lock().unwrap_or_else(|poisoned| {
            self.map.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Detaches one waiter from `key`, removing the in-flight entry at
    /// zero so the key can run fresh.
    fn detach(&self, key: &str) {
        let mut map = self.lock();
        if let Some(entry) = map.get_mut(key) {
            entry.waiters -= 1;
            if entry.waiters == 0 {
                map.remove(key);
            }
        }
    }
}

/// Coalescing front-end over a [`Daemon`] (see the module docs). All
/// submissions — coalesced or not — should flow through it so the
/// in-flight map sees every key.
pub struct Coalescer {
    daemon: Daemon,
    inflight: Arc<InflightMap>,
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("daemon", &self.daemon)
            .finish_non_exhaustive()
    }
}

/// The canonical coalescing key. `GenRequest`'s wire encoding is
/// canonical (fixed field order, deadline as millis), so textual
/// equality here is semantic equality of the whole submission.
fn key_of(tenant: &str, artifact: &str, request: &GenRequest) -> String {
    let body = serde_json::to_string(&request.serialize())
        .expect("canonical request encodings always render");
    format!("{tenant}\u{0}{artifact}\u{0}{body}")
}

impl Coalescer {
    /// Wraps a running daemon.
    pub fn new(daemon: Daemon) -> Self {
        Coalescer {
            daemon,
            inflight: Arc::new(InflightMap::default()),
        }
    }

    /// The wrapped daemon (for stats, registry telemetry, and direct
    /// non-coalesced submission).
    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// Current serving counters, including coalesce hits/misses.
    pub fn stats(&self) -> DaemonStats {
        self.daemon.stats()
    }

    /// Submits a request, attaching to an identical in-flight execution
    /// when one exists (explicitly seeded requests only — unseeded
    /// requests are never the same computation twice).
    ///
    /// # Errors
    ///
    /// Leaders surface the daemon's admission errors
    /// ([`ServeError::Overloaded`], [`ServeError::ShuttingDown`]);
    /// followers cannot fail admission at all.
    pub fn submit(
        &self,
        tenant: &str,
        artifact: &str,
        request: GenRequest,
    ) -> Result<CoalesceTicket, ServeError> {
        if request.seed().is_none() {
            self.daemon.note_coalesce_miss();
            let ticket = self.daemon.submit(tenant, artifact, request)?;
            return Ok(CoalesceTicket::solo(ticket));
        }
        let key = key_of(tenant, artifact, &request);
        let mut inflight = self.inflight.lock();
        if let Some(entry) = inflight.get_mut(&key) {
            entry.waiters += 1;
            self.daemon.note_coalesce_hit();
            return Ok(CoalesceTicket::grouped(
                entry.slot.clone(),
                key,
                self.inflight.clone(),
            ));
        }
        // Leader path: admit to the daemon *while holding the map lock*
        // so a racing identical submission cannot also lead. Admission
        // is non-blocking (bounded queue, immediate accept/reject), so
        // the lock hold is short. The daemon ticket is redeemed right
        // here by the publishing hook; should the job already have
        // resolved, the hook runs now, with no waiter hooks to call yet
        // (the slot is not in the map), so nothing takes the map lock.
        self.daemon.note_coalesce_miss();
        let ticket = self.daemon.submit(tenant, artifact, request)?;
        let slot = Slot::new();
        let publisher = slot.clone();
        ticket.on_complete(move |outcome| publisher.publish(outcome));
        inflight.insert(
            key.clone(),
            InFlight {
                slot: slot.clone(),
                waiters: 1,
            },
        );
        Ok(CoalesceTicket::grouped(slot, key, self.inflight.clone()))
    }

    /// Drains the daemon and returns the final counters. Outstanding
    /// [`CoalesceTicket`]s stay redeemable: the daemon resolves every
    /// admitted ticket on shutdown, and each group's leader hook
    /// publishes that outcome to its waiters.
    pub fn shutdown(self) -> DaemonStats {
        self.daemon.shutdown()
    }

    #[cfg(test)]
    fn lock_inflight(&self) -> MutexGuard<'_, HashMap<String, InFlight>> {
        self.inflight.lock()
    }
}

/// A handle to one (possibly coalesced) submission; redeem it with
/// [`CoalesceTicket::wait`] or [`CoalesceTicket::wait_timeout`].
///
/// Dropping it unredeemed is safe in any state: the waiter detaches
/// from its group, and the daemon resolves the underlying job (and so
/// publishes the group's outcome) regardless, so nothing strands.
#[must_use = "an unredeemed ticket discards the response"]
pub struct CoalesceTicket {
    inner: TicketInner,
}

enum TicketInner {
    /// An uncoalesced (unseeded) submission: a plain daemon ticket.
    Solo(Option<Ticket>),
    /// A member of a coalesced group.
    Grouped {
        slot: Arc<Slot>,
        key: String,
        inflight: Arc<InflightMap>,
        detached: bool,
    },
}

impl std::fmt::Debug for CoalesceTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoalesceTicket").finish_non_exhaustive()
    }
}

impl CoalesceTicket {
    fn solo(ticket: Ticket) -> Self {
        CoalesceTicket {
            inner: TicketInner::Solo(Some(ticket)),
        }
    }

    fn grouped(slot: Arc<Slot>, key: String, inflight: Arc<InflightMap>) -> Self {
        CoalesceTicket {
            inner: TicketInner::Grouped {
                slot,
                key,
                inflight,
                detached: false,
            },
        }
    }

    /// Blocks until the group's outcome lands and returns a clone of
    /// it.
    pub fn wait(mut self) -> Result<Generated, ServeError> {
        match &mut self.inner {
            TicketInner::Solo(ticket) => ticket.take().expect("solo ticket present").wait(),
            TicketInner::Grouped { slot, key, inflight, detached } => {
                let outcome = slot.wait(None).expect("unbounded wait always resolves");
                inflight.detach(key);
                *detached = true;
                outcome
            }
        }
    }

    /// Redeems the ticket without blocking: `hook` runs once with the
    /// group's outcome, on the thread that resolves it — or on this one,
    /// right now, when it has already landed. A grouped waiter detaches
    /// just before its hook runs, as a blocking [`CoalesceTicket::wait`]
    /// does when it returns. Hooks must be quick (see
    /// `Ticket::on_complete`).
    pub(crate) fn on_complete(
        mut self,
        hook: impl FnOnce(Result<Generated, ServeError>) + Send + 'static,
    ) {
        match &mut self.inner {
            TicketInner::Solo(ticket) => {
                ticket
                    .take()
                    .expect("solo ticket present")
                    .on_complete(hook);
            }
            TicketInner::Grouped {
                slot,
                key,
                inflight,
                detached,
            } => {
                *detached = true;
                let (key, inflight) = (std::mem::take(key), inflight.clone());
                slot.on_complete(Box::new(move |outcome| {
                    inflight.detach(&key);
                    hook(outcome);
                }));
            }
        }
    }

    /// Like [`CoalesceTicket::wait`], but gives up after `timeout`,
    /// handing the still-live ticket back.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when `timeout` elapsed without an outcome.
    pub fn wait_timeout(
        mut self,
        timeout: Duration,
    ) -> Result<Result<Generated, ServeError>, CoalesceTicket> {
        match &mut self.inner {
            TicketInner::Solo(slot) => {
                let ticket = slot.take().expect("solo ticket present");
                match ticket.wait_timeout(timeout) {
                    Ok(outcome) => Ok(outcome),
                    Err(ticket) => {
                        *slot = Some(ticket);
                        Err(self)
                    }
                }
            }
            TicketInner::Grouped { slot, key, inflight, detached } => {
                match slot.wait(Some(timeout)) {
                    Some(outcome) => {
                        inflight.detach(key);
                        *detached = true;
                        Ok(outcome)
                    }
                    None => Err(self),
                }
            }
        }
    }
}

impl Drop for CoalesceTicket {
    /// Detaches from the group so an abandoned waiter cannot pin the
    /// in-flight entry. The group needs no action: its leader hook
    /// still publishes when the daemon resolves the job.
    fn drop(&mut self) {
        if let TicketInner::Grouped { key, inflight, detached, .. } = &self.inner {
            if !*detached {
                inflight.detach(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;

    fn admission_only(queue_capacity: usize) -> Coalescer {
        Coalescer::new(Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity,
            ..DaemonConfig::default()
        }))
    }

    /// K identical seeded submissions queue exactly one daemon job;
    /// the other K-1 are hits. Deterministic: zero workers means the
    /// leader stays in flight for the whole burst.
    #[test]
    fn identical_submissions_share_one_execution() {
        let c = admission_only(4);
        let request = || GenRequest::nodes(16).seeded(9);
        let tickets: Vec<_> = (0..5)
            .map(|_| c.submit("t", "/m.json", request()).unwrap())
            .collect();
        let stats = c.stats();
        assert_eq!(stats.queued, 1, "one daemon job for the whole group");
        assert_eq!(stats.coalesce_hits, 4);
        assert_eq!(stats.coalesce_misses, 1);
        // Shutdown fails the leader's job; every waiter sees the same
        // typed outcome.
        let c = &c;
        std::thread::scope(|scope| {
            let handles: Vec<_> = tickets
                .into_iter()
                .map(|t| scope.spawn(move || t.wait()))
                .collect();
            // Give the waiters a beat to attach, then resolve them.
            std::thread::sleep(Duration::from_millis(30));
            let stats = c.daemon().stats();
            assert_eq!(stats.queued, 1);
            c.daemon.begin_shutdown();
            c.daemon.fail_stranded();
            for h in handles {
                assert_eq!(h.join().unwrap().unwrap_err(), ServeError::ShuttingDown);
            }
        });
    }

    /// Different seeds, tenants, artifacts, node counts, or deadlines
    /// never coalesce.
    #[test]
    fn distinct_submissions_never_share() {
        let c = admission_only(16);
        let base = || GenRequest::nodes(16).seeded(9);
        let _t: Vec<_> = vec![
            c.submit("t", "/m.json", base()).unwrap(),
            c.submit("t", "/m.json", base().seeded(10)).unwrap(),
            c.submit("u", "/m.json", base()).unwrap(),
            c.submit("t", "/n.json", base()).unwrap(),
            c.submit("t", "/m.json", GenRequest::nodes(17).seeded(9)).unwrap(),
            c.submit("t", "/m.json", base().deadline(Duration::from_secs(5))).unwrap(),
        ];
        let stats = c.stats();
        assert_eq!(stats.coalesce_hits, 0);
        assert_eq!(stats.coalesce_misses, 6);
        assert_eq!(stats.queued, 6);
    }

    /// Unseeded requests draw fresh entropy per run, so they must not
    /// coalesce even when textually identical.
    #[test]
    fn unseeded_requests_pass_straight_through() {
        let c = admission_only(4);
        let _a = c.submit("t", "/m.json", GenRequest::nodes(16)).unwrap();
        let _b = c.submit("t", "/m.json", GenRequest::nodes(16)).unwrap();
        let stats = c.stats();
        assert_eq!(stats.coalesce_hits, 0);
        assert_eq!(stats.coalesce_misses, 2);
        assert_eq!(stats.queued, 2);
    }

    /// Dropping every waiter clears the in-flight entry, so the next
    /// identical submission leads a fresh execution.
    #[test]
    fn dropped_groups_unpin_the_key() {
        let c = admission_only(4);
        let request = || GenRequest::nodes(16).seeded(3);
        let a = c.submit("t", "/m.json", request()).unwrap();
        let b = c.submit("t", "/m.json", request()).unwrap();
        assert_eq!(c.stats().coalesce_hits, 1);
        drop(a);
        drop(b);
        assert!(c.lock_inflight().is_empty(), "no waiters, no entry");
        let _fresh = c.submit("t", "/m.json", request()).unwrap();
        let stats = c.stats();
        assert_eq!(stats.coalesce_misses, 2, "fresh submission led again");
        assert_eq!(stats.queued, 2, "the dropped leader job still queues");
    }

    /// Leader admission failure (overload) propagates to the caller
    /// and leaves no in-flight entry behind.
    #[test]
    fn admission_errors_do_not_pin_entries() {
        let c = admission_only(1);
        let _first = c.submit("t", "/m.json", GenRequest::nodes(16).seeded(1)).unwrap();
        match c.submit("t", "/m.json", GenRequest::nodes(16).seeded(2)) {
            Err(ServeError::Overloaded { capacity: 1 }) => {}
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        assert_eq!(c.lock_inflight().len(), 1, "only the admitted key is in flight");
        // The overloaded key coalesces nothing and queues nothing…
        assert_eq!(c.stats().queued, 1);
        // …but an identical retry of the *admitted* key still hits.
        let _dup = c.submit("t", "/m.json", GenRequest::nodes(16).seeded(1)).unwrap();
        assert_eq!(c.stats().coalesce_hits, 1);
    }

    /// Hooked waiters are called when the leader's job resolves, a
    /// hook registered on a published group runs at once, and every
    /// hooked waiter detaches as its hook runs.
    #[test]
    fn hooks_receive_the_published_outcome() {
        let c = admission_only(4);
        let request = || GenRequest::nodes(16).seeded(5);
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..3 {
            let tx = tx.clone();
            c.submit("t", "/m.json", request())
                .unwrap()
                .on_complete(move |outcome| tx.send(outcome).unwrap());
        }
        let late = c.submit("t", "/m.json", request()).unwrap();
        assert_eq!(c.stats().queued, 1, "one daemon job for the whole group");
        assert!(rx.try_recv().is_err(), "nothing has resolved yet");
        c.daemon.begin_shutdown();
        c.daemon.fail_stranded();
        for _ in 0..3 {
            assert_eq!(rx.try_recv().unwrap().unwrap_err(), ServeError::ShuttingDown);
        }
        assert_eq!(c.lock_inflight().len(), 1, "the unhooked waiter is still attached");
        late.on_complete(move |outcome| tx.send(outcome).unwrap());
        assert_eq!(rx.try_recv().unwrap().unwrap_err(), ServeError::ShuttingDown);
        assert!(c.lock_inflight().is_empty());
    }

    /// A bounded wait on an unresolved group hands the ticket back and
    /// the group survives to be redeemed later.
    #[test]
    fn wait_timeout_keeps_the_group_alive() {
        let c = admission_only(4);
        let request = || GenRequest::nodes(16).seeded(4);
        let a = c.submit("t", "/m.json", request()).unwrap();
        let a = match a.wait_timeout(Duration::from_millis(15)) {
            Err(t) => t,
            Ok(outcome) => panic!("expected timeout, got {:?}", outcome.map(|_| ())),
        };
        assert_eq!(c.lock_inflight().len(), 1, "timed-out waiter stays attached");
        c.daemon.begin_shutdown();
        c.daemon.fail_stranded();
        assert_eq!(a.wait().unwrap_err(), ServeError::ShuttingDown);
        assert!(c.lock_inflight().is_empty());
    }
}
