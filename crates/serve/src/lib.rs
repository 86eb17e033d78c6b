//! In-process serving daemon for trained SynCircuit models.
//!
//! The batch pipeline (`syncircuit-core`) answers "generate N designs
//! from this model"; this crate answers "keep answering generation
//! requests for *many* models, from *many* tenants, on a machine with
//! finite memory, without falling over". Three pieces compose:
//!
//! - [`ModelRegistry`] — artifacts resident keyed by path, shared via
//!   `Arc`, LRU-evicted under a configurable [`RegistryBudget`]
//!   (entry and/or byte limits). Because model artifacts round-trip
//!   bit-exactly, eviction is always safe: a reloaded model serves
//!   byte-identical designs.
//! - [`Daemon`] — a std-only work-queue daemon (`Mutex` + `Condvar`,
//!   plain threads). Admission control sheds load past a bounded
//!   queue's high-water mark with [`ServeError::Overloaded`]; a seeded
//!   request identical to one still unresolved joins that job instead
//!   of queueing its own; queued work sits in per-tenant lanes drained
//!   round-robin so no tenant starves another; shutdown drains the
//!   queue and resolves every outstanding [`Ticket`]. [`NetServer`]
//!   puts the daemon behind a TCP socket, and [`NetClient`] reaches it.
//! - [`ServeError`] — the typed surface callers program against:
//!   `Overloaded` means back off and retry, `ShuttingDown` means stop,
//!   `Model` wraps the pipeline's own error (persistence failures name
//!   the offending artifact path).
//!
//! # Resilience
//!
//! The daemon expects its environment to misbehave and degrades along
//! typed seams instead of hanging or crashing:
//!
//! - **Deadlines** — [`syncircuit_core::GenRequest::deadline`] gives a
//!   request a time budget, resolved to an absolute deadline at
//!   admission; jobs still queued past it are shed with
//!   [`ServeError::DeadlineExceeded`] without occupying a worker, and
//!   [`Ticket::wait_timeout`] bounds the caller's side of the wait.
//! - **Retries** — transient artifact-read IO errors are retried under
//!   a [`RetryPolicy`] with seeded exponential backoff; jitter derives
//!   from the request seed, so replays are bit-identical.
//! - **Quarantine** — an artifact that repeatedly fails to *parse* is
//!   embargoed under a [`QuarantinePolicy`]
//!   ([`ServeError::Quarantined`]) and re-probed only after a TTL,
//!   degrading one tenant instead of hammering disk and lock.
//! - **Panic isolation** — a panicking worker fails only its own
//!   request ([`ServeError::WorkerPanicked`]) and the worker loop
//!   recovers; poisoned daemon and registry locks are cleared and their
//!   state re-validated.
//! - **Fault injection** — every failure path above is exercised
//!   deterministically by a seeded [`FaultPlan`] implementing
//!   [`FaultInjector`], the trait behind the registry's artifact-read
//!   seam and the daemon's job boundary
//!   ([`Daemon::start_with_faults`]). Decisions are pure functions of
//!   (plan seed, site, request seed, attempt) — never of thread
//!   schedule — so a chaos run is replayable bit-for-bit.
//!
//! # Example
//!
//! ```no_run
//! use syncircuit_core::GenRequest;
//! use syncircuit_serve::{Daemon, DaemonConfig, RegistryBudget};
//!
//! # fn main() -> Result<(), syncircuit_serve::ServeError> {
//! let daemon = Daemon::start(DaemonConfig {
//!     workers: 4,
//!     queue_capacity: 256,
//!     budget: RegistryBudget::max_models(2),
//!     ..DaemonConfig::default()
//! });
//! let ticket = daemon.submit("tenant-a", "models/a.json", GenRequest::nodes(64))?;
//! let design = ticket.wait()?;
//! assert!(design.graph.is_valid());
//! daemon.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Determinism carries through the daemon: a seeded request produces
//! the same design whether served here (under any worker count, fault
//! schedule, or eviction pressure) or generated directly from a freshly
//! loaded model. `tests/registry_equivalence.rs` and
//! `tests/resilience.rs` property-test exactly that.

#![warn(missing_docs)]

mod client;
mod daemon;
mod error;
mod fault;
mod registry;
mod retry;
mod server;
pub mod wire;

pub use client::{ClientError, NetClient};
pub use daemon::{Daemon, DaemonConfig, DaemonStats, Ticket};
pub use error::ServeError;
pub use fault::{
    corrupt_text, silence_injected_panics, ConnFault, FaultCounts, FaultInjector, FaultPlan,
    JobFault, NoFaults, Predicted, ReadFault, INJECTED_PANIC_MARK,
};
pub use registry::{ModelRegistry, QuarantinePolicy, RegistryBudget, RegistryStats};
pub use retry::RetryPolicy;
pub use server::{NetServer, NetServerConfig};
