//! Multi-tenant model registry: many artifacts resident at once, keyed
//! by artifact path, LRU-evicted under a configurable byte/entry
//! budget.
//!
//! The registry is the daemon's answer to "a fleet serves many models
//! from one library, but memory is finite": a resolved model stays
//! resident (one [`Arc<SynCircuit>`] shared by every in-flight request
//! for it) until the budget forces the least-recently-used artifact
//! out. Eviction is safe by construction:
//!
//! - **in-flight requests are unaffected** — they hold their own `Arc`,
//!   so an evicted model finishes its current work and is freed when
//!   the last request drops it;
//! - **eviction ≡ reload** — model artifacts round-trip bit-exactly
//!   ([`SynCircuit::save`] / [`SynCircuit::load`]), so a model that
//!   cycles out and reloads serves byte-identical designs to one that
//!   stayed resident the whole time (property-tested in
//!   `tests/registry_equivalence.rs`). The only state an eviction
//!   discards is the model's cone counters — telemetry, never bytes.
//!
//! A model's budget cost is its artifact's rendered size in bytes (the
//! exact on-disk length the registry read), so byte budgets track real
//! artifact weight rather than a guess.
//!
//! # Resilience
//!
//! Artifact loads are where the outside world fails, so the registry
//! owns three fault-tolerance mechanisms (all deterministic enough to
//! replay, see `crate::fault`):
//!
//! - **retry with seeded backoff** — transient IO read failures retry
//!   under a [`RetryPolicy`], with jitter derived from the request seed
//!   so replayed traces back off identically; `NotFound` and
//!   `PermissionDenied` are treated as permanent and fail immediately;
//! - **quarantine** — an artifact whose *parse* fails
//!   [`QuarantinePolicy::threshold`] consecutive times is quarantined:
//!   further lookups fail fast with
//!   [`ServeError::Quarantined`](crate::ServeError::Quarantined)
//!   (no disk read, no registry-lock churn) until the TTL elapses and
//!   one re-probe is allowed. A successful load clears the strikes.
//! - **poisoned-lock recovery** — a worker that panics while holding
//!   the registry lock does not wedge every subsequent caller: the
//!   guarded map stays structurally valid under panic (entries are
//!   complete `Arc`s), so the lock is recovered, the derived byte total
//!   re-validated, and serving continues.

use crate::error::ServeError;
use crate::fault::{corrupt_text, FaultInjector, NoFaults, ReadFault};
use crate::retry::RetryPolicy;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use syncircuit_core::{PersistError, SynCircuit};

/// Quarantine policy for artifacts that repeatedly fail to parse.
///
/// A corrupt model file would otherwise be re-read and re-parsed on
/// every request routed at it — hammering the disk and the registry
/// lock for a load that cannot succeed. After `threshold` consecutive
/// parse failures the path is quarantined: lookups fail fast with a
/// typed [`ServeError::Quarantined`](crate::ServeError::Quarantined)
/// until `ttl` elapses, then exactly one re-probe is allowed (an
/// operator may have replaced the file); a failed probe re-arms the
/// TTL, a successful load clears the strikes entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Consecutive parse failures that trip quarantine (`0` disables
    /// quarantining entirely).
    pub threshold: u32,
    /// How long a tripped artifact is embargoed before a re-probe.
    pub ttl: Duration,
}

impl Default for QuarantinePolicy {
    /// Three strikes, 30 s embargo.
    fn default() -> Self {
        QuarantinePolicy {
            threshold: 3,
            ttl: Duration::from_secs(30),
        }
    }
}

impl QuarantinePolicy {
    /// Never quarantines (every lookup re-reads the artifact).
    pub fn disabled() -> Self {
        QuarantinePolicy {
            threshold: 0,
            ttl: Duration::ZERO,
        }
    }
}

/// Consecutive-failure record of one artifact path.
#[derive(Clone, Copy, Debug, Default)]
struct Strikes {
    consecutive: u32,
    embargo_until: Option<Instant>,
}

/// Residency budget of a [`ModelRegistry`]. Zero fields are unlimited;
/// with both limits set, eviction runs until *both* hold. The most
/// recently resolved model is always kept, even when it alone exceeds
/// the byte budget — a registry that cannot hold one model cannot serve
/// at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryBudget {
    /// Maximum resident models (`0` = unlimited).
    pub max_models: usize,
    /// Maximum summed artifact bytes of resident models (`0` =
    /// unlimited).
    pub max_bytes: usize,
}

impl RegistryBudget {
    /// Unlimited residency (every model loaded stays resident).
    pub fn unlimited() -> Self {
        RegistryBudget::default()
    }

    /// At most `n` resident models, unlimited bytes.
    pub fn max_models(n: usize) -> Self {
        RegistryBudget {
            max_models: n,
            max_bytes: 0,
        }
    }

    /// At most `n` summed artifact bytes, unlimited model count.
    pub fn max_bytes(n: usize) -> Self {
        RegistryBudget {
            max_models: 0,
            max_bytes: n,
        }
    }
}

/// Counters and residency snapshot of a [`ModelRegistry`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups served by a resident model, counting a cold lookup that
    /// parsed the artifact but found a racer's model published first.
    pub hits: u64,
    /// Models published by a successful artifact load (cold lookups and
    /// reloads after eviction): one per residency, however many lookups
    /// raced to parse it.
    pub loads: u64,
    /// Models evicted under budget pressure.
    pub evictions: u64,
    /// Artifact loads that ultimately failed (IO after the retry
    /// budget, or a parse failure) — counted separately from `loads`,
    /// which only counts successes.
    pub load_failures: u64,
    /// Artifact paths currently quarantined after repeated parse
    /// failures (cleared by a successful re-probe).
    pub quarantined: usize,
    /// Models currently resident.
    pub resident: usize,
    /// Summed artifact bytes of resident models.
    pub resident_bytes: usize,
}

/// One resident model with its LRU bookkeeping.
#[derive(Debug)]
struct Entry {
    model: Arc<SynCircuit>,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    resident: HashMap<String, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    loads: u64,
    evictions: u64,
    load_failures: u64,
    strikes: HashMap<String, Strikes>,
}

impl Inner {
    /// Evicts least-recently-used entries (never `keep`) until the
    /// budget holds or only `keep` remains.
    fn evict_over_budget(&mut self, budget: RegistryBudget, keep: &str) -> u64 {
        let mut evicted = 0;
        loop {
            let over_models = budget.max_models > 0 && self.resident.len() > budget.max_models;
            let over_bytes = budget.max_bytes > 0 && self.bytes > budget.max_bytes;
            if !(over_models || over_bytes) {
                break;
            }
            let victim = self
                .resident
                .iter()
                .filter(|(path, _)| path.as_str() != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(path, _)| path.clone());
            let Some(victim) = victim else {
                break; // only `keep` remains; serve it even over budget
            };
            let entry = self.resident.remove(&victim).expect("victim is resident");
            self.bytes -= entry.bytes;
            self.evictions += 1;
            evicted += 1;
        }
        evicted
    }
}

/// Multi-tenant LRU model registry (see the module docs).
///
/// Thread-safe: every daemon worker resolves models through one shared
/// registry. The artifact *load* runs outside the registry lock, so a
/// cold model does not stall hits on resident models; two workers
/// racing on one cold path may both parse the artifact, but the first
/// to publish wins and both serve the same model (artifact loading is
/// deterministic).
#[derive(Debug)]
pub struct ModelRegistry {
    budget: RegistryBudget,
    retry: RetryPolicy,
    quarantine: QuarantinePolicy,
    injector: Arc<dyn FaultInjector>,
    inner: Mutex<Inner>,
}

impl ModelRegistry {
    /// Registry with the given residency budget and default resilience
    /// (3-attempt retry, 3-strike / 30 s quarantine, no fault
    /// injection).
    pub fn new(budget: RegistryBudget) -> Self {
        Self::with_resilience(
            budget,
            RetryPolicy::default(),
            QuarantinePolicy::default(),
            Arc::new(NoFaults),
        )
    }

    /// Registry with explicit retry and quarantine policies and a fault
    /// injector consulted at the artifact-read seam (production code
    /// passes [`NoFaults`]; chaos harnesses pass a
    /// [`FaultPlan`](crate::FaultPlan)).
    pub fn with_resilience(
        budget: RegistryBudget,
        retry: RetryPolicy,
        quarantine: QuarantinePolicy,
        injector: Arc<dyn FaultInjector>,
    ) -> Self {
        ModelRegistry {
            budget,
            retry,
            quarantine,
            injector,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured residency budget.
    pub fn budget(&self) -> RegistryBudget {
        self.budget
    }

    /// Locks the registry state, recovering from poisoning: the guarded
    /// map only ever holds complete entries (no operation leaves a
    /// half-inserted `Entry` across a panic point), so after a panic the
    /// residency map is still valid and only the derived byte total
    /// needs re-validation. One panicking worker must not wedge every
    /// subsequent caller.
    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.inner.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.bytes = guard.resident.values().map(|e| e.bytes).sum();
                guard
            }
        }
    }

    /// Is `path` currently embargoed? (Cold-path gate; resident hits
    /// never consult quarantine — a resident model already proved it
    /// parses.)
    fn embargoed(&self, inner: &Inner, path: &str) -> bool {
        if self.quarantine.threshold == 0 {
            return false;
        }
        match inner.strikes.get(path) {
            Some(s) if s.consecutive >= self.quarantine.threshold => {
                s.embargo_until.is_some_and(|until| Instant::now() < until)
            }
            _ => false,
        }
    }

    /// Records a parse failure; trips (or re-arms) quarantine at the
    /// threshold.
    fn record_parse_failure(&self, inner: &mut Inner, path: &str) {
        if self.quarantine.threshold == 0 {
            return;
        }
        let strikes = inner.strikes.entry(path.to_string()).or_default();
        strikes.consecutive += 1;
        if strikes.consecutive >= self.quarantine.threshold {
            strikes.embargo_until = Some(Instant::now() + self.quarantine.ttl);
        }
    }

    /// Reads the artifact text with the retry policy, consulting the
    /// fault injector before each attempt. `NotFound` and
    /// `PermissionDenied` are permanent (no retry); everything else is
    /// treated as transient and retried under seeded backoff.
    fn read_with_retry(&self, path: &str, seed: u64) -> Result<String, ServeError> {
        let attempts = self.retry.attempts();
        let mut attempt = 0u32;
        loop {
            let read = match self.injector.artifact_read(path, seed, attempt) {
                Some(ReadFault::Io) => Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient IO fault",
                )),
                Some(ReadFault::Slow(delay)) => {
                    std::thread::sleep(delay);
                    std::fs::read_to_string(path)
                }
                Some(ReadFault::Corrupt) => {
                    std::fs::read_to_string(path).map(|text| corrupt_text(&text, seed))
                }
                None => std::fs::read_to_string(path),
            };
            match read {
                Ok(text) => return Ok(text),
                Err(e) => {
                    let permanent = matches!(
                        e.kind(),
                        std::io::ErrorKind::NotFound | std::io::ErrorKind::PermissionDenied
                    );
                    attempt += 1;
                    if !permanent && attempt < attempts {
                        std::thread::sleep(self.retry.delay(seed, attempt - 1));
                        continue;
                    }
                    return Err(ServeError::Model(
                        PersistError::Io(format!("{path}: {e}")).into(),
                    ));
                }
            }
        }
    }

    /// Resolves the model stored at artifact `path`, loading it if not
    /// resident and LRU-evicting past the budget. The returned `Arc`
    /// stays valid even if the registry evicts the model afterwards.
    ///
    /// Equivalent to [`ModelRegistry::get_or_load_seeded`] with seed 0;
    /// the seed only decorrelates retry jitter across requests.
    ///
    /// # Errors
    ///
    /// - [`ServeError::Model`] when the artifact cannot be read (after
    ///   the retry budget, for transient IO) or parsed (the message
    ///   names `path`);
    /// - [`ServeError::Quarantined`] when `path` is embargoed after
    ///   repeated parse failures.
    pub fn get_or_load(&self, path: &str) -> Result<Arc<SynCircuit>, ServeError> {
        self.get_or_load_seeded(path, 0)
    }

    /// [`ModelRegistry::get_or_load`] with an explicit `seed` (the
    /// request's resolved seed hint): retry backoff jitter and injected
    /// faults are pure functions of it, so replaying a trace replays
    /// the exact same schedule.
    pub fn get_or_load_seeded(&self, path: &str, seed: u64) -> Result<Arc<SynCircuit>, ServeError> {
        {
            let mut inner = self.lock_inner();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.resident.get_mut(path) {
                entry.last_used = tick;
                let model = entry.model.clone();
                inner.hits += 1;
                return Ok(model);
            }
            if self.embargoed(&inner, path) {
                return Err(ServeError::Quarantined {
                    path: path.to_string(),
                });
            }
        }
        // Cold: read + parse outside the lock so resident models keep
        // serving while this artifact loads (or retries, or sleeps
        // through an injected slow read).
        let text = match self.read_with_retry(path, seed) {
            Ok(text) => text,
            Err(e) => {
                self.lock_inner().load_failures += 1;
                return Err(e);
            }
        };
        let model = match SynCircuit::from_json(&text) {
            Ok(model) => Arc::new(model),
            Err(e) => {
                let mut inner = self.lock_inner();
                inner.load_failures += 1;
                self.record_parse_failure(&mut inner, path);
                return Err(ServeError::Model(e.at_path(path)));
            }
        };
        let bytes = text.len();

        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        inner.strikes.remove(path); // a successful load clears the record
        if let Some(entry) = inner.resident.get_mut(path) {
            // A racer published while we parsed; serve its copy so every
            // in-flight request for one path shares one resident model.
            entry.last_used = tick;
            let model = entry.model.clone();
            inner.hits += 1;
            return Ok(model);
        }
        inner.loads += 1;
        inner.resident.insert(
            path.to_string(),
            Entry {
                model: model.clone(),
                bytes,
                last_used: tick,
            },
        );
        inner.bytes += bytes;
        inner.evict_over_budget(self.budget, path);
        Ok(model)
    }

    /// Evicts every resident model (in-flight `Arc`s stay valid).
    pub fn clear(&self) {
        let mut inner = self.lock_inner();
        let evicted = inner.resident.len() as u64;
        inner.resident.clear();
        inner.bytes = 0;
        inner.evictions += evicted;
    }

    /// Current counters and residency snapshot.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.lock_inner();
        RegistryStats {
            hits: inner.hits,
            loads: inner.loads,
            evictions: inner.evictions,
            load_failures: inner.load_failures,
            quarantined: inner
                .strikes
                .values()
                .filter(|s| {
                    self.quarantine.threshold > 0 && s.consecutive >= self.quarantine.threshold
                })
                .count(),
            resident: inner.resident.len(),
            resident_bytes: inner.bytes,
        }
    }

    /// Poisons the registry lock by panicking while holding it — test
    /// scaffolding for the recovery path.
    #[cfg(test)]
    fn poison_for_test(&self) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.inner.lock().unwrap();
            panic!("poison the registry lock");
        }));
        assert!(result.is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::path::PathBuf;
    use syncircuit_core::{Error, GenRequest, PipelineConfig};
    use syncircuit_graph::testing::random_circuit_with_size;

    fn save_tiny_model(dir: &std::path::Path, seed: u64) -> PathBuf {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus: Vec<_> = (0..2)
            .map(|_| random_circuit_with_size(&mut rng, 18))
            .collect();
        let model = SynCircuit::fit(
            &corpus,
            PipelineConfig::builder().seed(seed).build().unwrap(),
        )
        .unwrap();
        let path = dir.join(format!("model_{seed}.json"));
        model.save(&path).unwrap();
        path
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("syncircuit-registry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn resident_models_hit_without_reloading() {
        let dir = temp_dir("hits");
        let path = save_tiny_model(&dir, 1).display().to_string();
        let reg = ModelRegistry::new(RegistryBudget::unlimited());
        let a = reg.get_or_load(&path).unwrap();
        let b = reg.get_or_load(&path).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second lookup reuses the resident model"
        );
        let s = reg.stats();
        assert_eq!((s.loads, s.hits, s.evictions), (1, 1, 0));
        assert_eq!(s.resident, 1);
        assert!(s.resident_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_budget_evicts_lru_first() {
        let dir = temp_dir("lru");
        let paths: Vec<String> = (1..=3)
            .map(|s| save_tiny_model(&dir, s).display().to_string())
            .collect();
        let reg = ModelRegistry::new(RegistryBudget::max_models(2));
        reg.get_or_load(&paths[0]).unwrap();
        reg.get_or_load(&paths[1]).unwrap();
        reg.get_or_load(&paths[0]).unwrap(); // 0 is now more recent than 1
        reg.get_or_load(&paths[2]).unwrap(); // evicts 1, the LRU
        assert_eq!(reg.stats().resident, 2);
        assert_eq!(reg.stats().evictions, 1);
        // 0 and 2 are resident (hits); 1 reloads.
        let loads_before = reg.stats().loads;
        reg.get_or_load(&paths[0]).unwrap();
        reg.get_or_load(&paths[2]).unwrap();
        assert_eq!(reg.stats().loads, loads_before, "0 and 2 stayed resident");
        reg.get_or_load(&paths[1]).unwrap();
        assert_eq!(
            reg.stats().loads,
            loads_before + 1,
            "1 was the eviction victim"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_budget_keeps_at_least_the_newest_model() {
        let dir = temp_dir("bytes");
        let p1 = save_tiny_model(&dir, 1).display().to_string();
        let p2 = save_tiny_model(&dir, 2).display().to_string();
        // A 1-byte budget cannot hold any artifact; the registry still
        // serves by keeping exactly the newest resident.
        let reg = ModelRegistry::new(RegistryBudget::max_bytes(1));
        reg.get_or_load(&p1).unwrap();
        assert_eq!(reg.stats().resident, 1, "sole model is kept over budget");
        reg.get_or_load(&p2).unwrap();
        let s = reg.stats();
        assert_eq!(s.resident, 1, "older model evicted to approach the budget");
        assert_eq!(s.evictions, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_equals_reload_byte_identity() {
        // The registry's core guarantee: a model that cycled out and
        // reloaded generates byte-identical designs.
        let dir = temp_dir("identity");
        let p1 = save_tiny_model(&dir, 7).display().to_string();
        let p2 = save_tiny_model(&dir, 8).display().to_string();
        let reg = ModelRegistry::new(RegistryBudget::max_models(1));
        let req = GenRequest::nodes(24).seeded(5);
        let before = reg.get_or_load(&p1).unwrap().generate_one(&req).unwrap();
        reg.get_or_load(&p2).unwrap(); // evicts p1
        assert_eq!(reg.stats().evictions, 1);
        let after = reg.get_or_load(&p1).unwrap().generate_one(&req).unwrap();
        assert_eq!(before.graph, after.graph);
        assert_eq!(before.gval, after.gval);
        assert_eq!(before.seed, after.seed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_flight_arcs_survive_eviction() {
        let dir = temp_dir("inflight");
        let p1 = save_tiny_model(&dir, 3).display().to_string();
        let p2 = save_tiny_model(&dir, 4).display().to_string();
        let reg = ModelRegistry::new(RegistryBudget::max_models(1));
        let held = reg.get_or_load(&p1).unwrap();
        reg.get_or_load(&p2).unwrap(); // evicts p1 from the registry
                                       // The held Arc still serves.
        let out = held.generate_one(&GenRequest::nodes(20).seeded(1)).unwrap();
        assert!(out.graph.is_valid());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_failures_name_the_artifact() {
        let reg = ModelRegistry::new(RegistryBudget::unlimited());
        let err = reg.get_or_load("/no/such/artifact.json").unwrap_err();
        match err {
            ServeError::Model(Error::Persist(PersistError::Io(msg))) => {
                assert!(msg.contains("/no/such/artifact.json"), "{msg}");
            }
            other => panic!("expected a path-bearing Io error, got {other:?}"),
        }
        let s = reg.stats();
        assert_eq!(s.resident, 0);
        assert_eq!(
            s.load_failures, 1,
            "a failed load is counted apart from loads"
        );
        assert_eq!(s.loads, 0, "loads only counts successes");
        assert_eq!(s.quarantined, 0, "IO failures never quarantine");
    }

    /// Fails the first `fails` read attempts of every load with a
    /// transient IO error.
    #[derive(Debug)]
    struct FlakyReads {
        fails: u32,
        reads: std::sync::atomic::AtomicU64,
    }

    impl FlakyReads {
        fn new(fails: u32) -> Self {
            FlakyReads {
                fails,
                reads: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }

    impl crate::fault::FaultInjector for FlakyReads {
        fn artifact_read(&self, _path: &str, _seed: u64, attempt: u32) -> Option<ReadFault> {
            use std::sync::atomic::Ordering;
            self.reads.fetch_add(1, Ordering::Relaxed);
            (attempt < self.fails).then_some(ReadFault::Io)
        }
    }

    /// Corrupts every read.
    #[derive(Debug)]
    struct AlwaysCorrupt {
        reads: std::sync::atomic::AtomicU64,
    }

    impl AlwaysCorrupt {
        fn new() -> Self {
            AlwaysCorrupt {
                reads: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }

    impl crate::fault::FaultInjector for AlwaysCorrupt {
        fn artifact_read(&self, _path: &str, _seed: u64, _attempt: u32) -> Option<ReadFault> {
            use std::sync::atomic::Ordering;
            self.reads.fetch_add(1, Ordering::Relaxed);
            Some(ReadFault::Corrupt)
        }
    }

    fn fast_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
        }
    }

    #[test]
    fn retry_absorbs_transient_io() {
        let dir = temp_dir("retry");
        let path = save_tiny_model(&dir, 11).display().to_string();
        let reg = ModelRegistry::with_resilience(
            RegistryBudget::unlimited(),
            fast_retry(3),
            QuarantinePolicy::default(),
            Arc::new(FlakyReads::new(2)),
        );
        let model = reg
            .get_or_load_seeded(&path, 9)
            .expect("third attempt succeeds");
        assert!(model.generate_one(&GenRequest::nodes(16).seeded(1)).is_ok());
        let s = reg.stats();
        assert_eq!(s.loads, 1);
        assert_eq!(s.load_failures, 0, "absorbed retries are not failures");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_exhaustion_fails_typed_after_the_budget() {
        let dir = temp_dir("exhaust");
        let path = save_tiny_model(&dir, 12).display().to_string();
        let injector = Arc::new(FlakyReads::new(u32::MAX));
        let reg = ModelRegistry::with_resilience(
            RegistryBudget::unlimited(),
            fast_retry(2),
            QuarantinePolicy::default(),
            injector.clone(),
        );
        let err = reg.get_or_load_seeded(&path, 4).unwrap_err();
        match err {
            ServeError::Model(Error::Persist(PersistError::Io(msg))) => {
                assert!(msg.contains(&path), "{msg}");
                assert!(msg.contains("injected"), "{msg}");
            }
            other => panic!("expected a typed Io error, got {other:?}"),
        }
        use std::sync::atomic::Ordering;
        assert_eq!(
            injector.reads.load(Ordering::Relaxed),
            2,
            "one read per attempt"
        );
        let s = reg.stats();
        assert_eq!((s.loads, s.load_failures, s.quarantined), (0, 1, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_trips_after_threshold_and_fails_fast() {
        let dir = temp_dir("quarantine");
        let path = save_tiny_model(&dir, 13).display().to_string();
        let injector = Arc::new(AlwaysCorrupt::new());
        let reg = ModelRegistry::with_resilience(
            RegistryBudget::unlimited(),
            RetryPolicy::none(),
            QuarantinePolicy {
                threshold: 2,
                ttl: Duration::from_secs(3600),
            },
            injector.clone(),
        );
        use std::sync::atomic::Ordering;
        for strike in 1..=2u64 {
            let err = reg.get_or_load_seeded(&path, strike).unwrap_err();
            assert!(
                matches!(err, ServeError::Model(Error::Persist(_))),
                "strike {strike}: expected a typed persist error, got {err:?}"
            );
        }
        assert_eq!(injector.reads.load(Ordering::Relaxed), 2);
        // Third lookup: embargoed — fails fast, no disk read.
        match reg.get_or_load_seeded(&path, 3).unwrap_err() {
            ServeError::Quarantined { path: p } => assert_eq!(p, path),
            other => panic!("expected Quarantined, got {other:?}"),
        }
        assert_eq!(
            injector.reads.load(Ordering::Relaxed),
            2,
            "an embargoed path must not be re-read"
        );
        let s = reg.stats();
        assert_eq!((s.load_failures, s.quarantined), (2, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_ttl_reprobe_clears_on_success() {
        let dir = temp_dir("reprobe");
        let path = save_tiny_model(&dir, 14).display().to_string();
        // Corrupt exactly the first two loads, then serve clean bytes —
        // "the operator replaced the file".
        let injector = Arc::new(FlakyReads::new(0)); // counts reads, never faults
        let corrupting = Arc::new(AlwaysCorrupt::new());
        let policy = QuarantinePolicy {
            threshold: 2,
            ttl: Duration::ZERO, // embargo expires immediately: probe allowed
        };
        let reg = ModelRegistry::with_resilience(
            RegistryBudget::unlimited(),
            RetryPolicy::none(),
            policy,
            corrupting.clone(),
        );
        for _ in 0..2 {
            assert!(reg.get_or_load(&path).is_err());
        }
        assert_eq!(reg.stats().quarantined, 1, "threshold reached");
        // Zero TTL: the embargo is already over, so the next lookup is a
        // re-probe. Swap in a clean registry sharing no state to mimic a
        // repaired artifact via a registry whose injector is benign.
        let repaired = ModelRegistry::with_resilience(
            RegistryBudget::unlimited(),
            RetryPolicy::none(),
            policy,
            injector.clone(),
        );
        assert!(repaired.get_or_load(&path).is_ok());
        // And on the original registry the re-probe still runs (TTL
        // elapsed) — it fails again (injector still corrupts) and
        // re-arms rather than failing fast forever.
        assert!(matches!(
            reg.get_or_load(&path).unwrap_err(),
            ServeError::Model(_)
        ));
        assert_eq!(reg.stats().load_failures, 3, "probe after TTL re-reads");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_artifact_errors_name_the_path() {
        let dir = temp_dir("corrupt-path");
        let path = save_tiny_model(&dir, 15).display().to_string();
        let reg = ModelRegistry::with_resilience(
            RegistryBudget::unlimited(),
            RetryPolicy::none(),
            QuarantinePolicy::default(),
            Arc::new(AlwaysCorrupt::new()),
        );
        let err = reg.get_or_load(&path).unwrap_err();
        assert!(
            format!("{err}").contains(&path),
            "parse errors must name the artifact: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_lock_recovers_and_serves() {
        let dir = temp_dir("poison");
        let path = save_tiny_model(&dir, 16).display().to_string();
        let reg = ModelRegistry::new(RegistryBudget::unlimited());
        reg.get_or_load(&path).unwrap();
        reg.poison_for_test();
        // Recovery: the resident map is still valid, a hit still serves,
        // and stats are re-validated rather than panicking.
        let model = reg.get_or_load(&path).expect("post-poison lookup succeeds");
        assert!(model.generate_one(&GenRequest::nodes(14).seeded(2)).is_ok());
        let s = reg.stats();
        assert_eq!(s.resident, 1);
        assert!(s.resident_bytes > 0, "byte total re-validated after poison");
        assert_eq!(s.hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Holds every artifact read until two readers have arrived, so two
    /// lookups of one cold path both parse it before either publishes.
    #[derive(Debug)]
    struct PairedReads(std::sync::Barrier);

    impl crate::fault::FaultInjector for PairedReads {
        fn artifact_read(&self, _path: &str, _seed: u64, _attempt: u32) -> Option<ReadFault> {
            self.0.wait();
            None
        }
    }

    #[test]
    fn racing_cold_lookups_count_one_load() {
        let dir = temp_dir("race");
        let path = save_tiny_model(&dir, 17).display().to_string();
        let reg = ModelRegistry::with_resilience(
            RegistryBudget::unlimited(),
            RetryPolicy::none(),
            QuarantinePolicy::default(),
            Arc::new(PairedReads(std::sync::Barrier::new(2))),
        );
        let models: Vec<_> = std::thread::scope(|scope| {
            let lookups: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| reg.get_or_load(&path).unwrap()))
                .collect();
            lookups.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            Arc::ptr_eq(&models[0], &models[1]),
            "the loser serves the published model"
        );
        let s = reg.stats();
        assert_eq!(
            (s.loads, s.hits, s.resident),
            (1, 1, 1),
            "one model was published; the racer's lookup is a hit"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_resets_residency() {
        let dir = temp_dir("clear");
        let p = save_tiny_model(&dir, 9).display().to_string();
        let reg = ModelRegistry::new(RegistryBudget::unlimited());
        reg.get_or_load(&p).unwrap();
        reg.clear();
        let s = reg.stats();
        assert_eq!((s.resident, s.resident_bytes), (0, 0));
        assert_eq!(s.evictions, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
