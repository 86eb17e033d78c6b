//! Serving under eviction pressure ≡ direct generation.
//!
//! The registry's headline guarantee is that eviction is invisible in
//! the bytes: a model that cycled out of residency and reloaded serves
//! designs byte-identical to a model that never left memory — and to a
//! model loaded fresh, outside any daemon. This battery drives a
//! daemon whose registry budget holds only half the tenant fleet
//! (every request storm forces reloads), plus real multi-worker
//! serving, and compares every response against a reference computed
//! by `SynCircuit::load(path)?.generate_one(request)`.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;
use std::sync::OnceLock;
use syncircuit_core::{GenRequest, Generated, PipelineConfig, RewardKind, SynCircuit};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_serve::{Daemon, DaemonConfig, RegistryBudget};

const TENANTS: usize = 4;

/// Four tiny trained models saved as artifacts, one per tenant —
/// trained once per process and shared by every test case.
fn fleet() -> &'static Vec<String> {
    static FLEET: OnceLock<Vec<String>> = OnceLock::new();
    FLEET.get_or_init(|| {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("syncircuit-registry-equiv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        (0..TENANTS as u64)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(700 + t);
                let corpus: Vec<_> = (0..2)
                    .map(|_| random_circuit_with_size(&mut rng, 20))
                    .collect();
                let cfg = PipelineConfig::builder()
                    .seed(700 + t)
                    .reward(RewardKind::IncrementalCone)
                    .build()
                    .expect("valid configuration");
                let model = SynCircuit::fit(&corpus, cfg).expect("fit tiny model");
                let path = dir.join(format!("tenant_{t}.json"));
                model.save(&path).expect("save artifact");
                path.display().to_string()
            })
            .collect()
    })
}

fn assert_generated_identical(a: &Generated, b: &Generated) {
    assert_eq!(a.graph, b.graph, "final graphs must be identical");
    assert_eq!(a.gval, b.gval, "G_val must be identical");
    assert_eq!(a.gini_edges, b.gini_edges);
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.mcts.len(), b.mcts.len());
    for (x, y) in a.mcts.iter().zip(&b.mcts) {
        assert_eq!(x.best_reward.to_bits(), y.best_reward.to_bits());
        assert_eq!(x.evaluations, y.evaluations);
        assert_eq!(x.best, y.best);
    }
}

/// The un-served reference: load the artifact fresh, generate once.
fn direct(path: &str, request: &GenRequest) -> Generated {
    SynCircuit::load(path)
        .expect("load artifact")
        .generate_one(request)
        .expect("direct generation")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn eviction_pressured_daemon_matches_direct_generation(base in any::<u64>()) {
        let paths = fleet();
        // Half-fleet residency: every round-robin sweep over 4 tenants
        // evicts and reloads, which is exactly the path under test.
        let daemon = Daemon::start(DaemonConfig {
            workers: 2,
            queue_capacity: 64,
            budget: RegistryBudget::max_models(TENANTS / 2),
            ..DaemonConfig::default()
        });
        let requests: Vec<(usize, GenRequest)> = (0..12u64)
            .map(|k| {
                // Interleave tenants so consecutive jobs alternate models.
                let tenant = (base.wrapping_add(k) % TENANTS as u64) as usize;
                let req = GenRequest::nodes(16 + (k % 6) as usize)
                    .seeded(base.wrapping_mul(13).wrapping_add(k));
                (tenant, req)
            })
            .collect();
        let tickets: Vec<_> = requests
            .iter()
            .map(|(tenant, req)| {
                daemon
                    .submit(&format!("tenant-{tenant}"), &paths[*tenant], req.clone())
                    .expect("queue has headroom")
            })
            .collect();
        for (ticket, (tenant, req)) in tickets.into_iter().zip(&requests) {
            let served = ticket.wait().expect("daemon serves every admitted job");
            assert_generated_identical(&served, &direct(&paths[*tenant], req));
        }
        let registry = daemon.registry().stats();
        prop_assert!(
            registry.evictions > 0,
            "half-fleet budget must force evictions, got {:?}",
            registry
        );
        prop_assert!(registry.resident <= TENANTS / 2);
        let stats = daemon.shutdown();
        prop_assert_eq!(stats.served, 12);
        prop_assert_eq!(stats.queued, 0);
    }
}

#[test]
fn unbounded_registry_serves_identically_and_never_evicts() {
    // The other side of the equivalence: with no budget pressure the
    // daemon serves the same bytes and the registry never reloads.
    let paths = fleet();
    let daemon = Daemon::start(DaemonConfig {
        workers: 4,
        queue_capacity: 64,
        budget: RegistryBudget::unlimited(),
        ..DaemonConfig::default()
    });
    let mut expected = Vec::new();
    let mut tickets = Vec::new();
    for k in 0..8u64 {
        let tenant = (k % TENANTS as u64) as usize;
        let req = GenRequest::nodes(18).seeded(40 + k);
        expected.push(direct(&paths[tenant], &req));
        tickets.push(
            daemon
                .submit(&format!("tenant-{tenant}"), &paths[tenant], req)
                .unwrap(),
        );
    }
    for (ticket, reference) in tickets.into_iter().zip(&expected) {
        assert_generated_identical(&ticket.wait().unwrap(), reference);
    }
    let registry = daemon.registry().stats();
    assert_eq!(registry.evictions, 0);
    assert_eq!(registry.loads, TENANTS as u64, "each artifact loads once");
    daemon.shutdown();
}

#[test]
fn worker_count_is_invisible_in_served_bytes() {
    // The same trace served at 1 and 4 workers yields identical bytes
    // — scheduling may reorder execution, never results.
    let paths = fleet();
    let trace: Vec<(usize, GenRequest)> = (0..6u64)
        .map(|k| {
            (
                (k % TENANTS as u64) as usize,
                GenRequest::nodes(17 + (k % 4) as usize).seeded(200 + k),
            )
        })
        .collect();
    let serve_all = |workers: usize| -> Vec<Generated> {
        let daemon = Daemon::start(DaemonConfig {
            workers,
            queue_capacity: 32,
            budget: RegistryBudget::max_models(2),
            ..DaemonConfig::default()
        });
        let tickets: Vec<_> = trace
            .iter()
            .map(|(t, req)| {
                daemon
                    .submit(&format!("tenant-{t}"), &paths[*t], req.clone())
                    .unwrap()
            })
            .collect();
        let out = tickets
            .into_iter()
            .map(|ticket| ticket.wait().unwrap())
            .collect();
        daemon.shutdown();
        out
    };
    let lone = serve_all(1);
    let pooled = serve_all(4);
    for (a, b) in lone.iter().zip(&pooled) {
        assert_generated_identical(a, b);
    }
}

#[test]
fn failure_counters_separate_io_from_quarantine() {
    use std::sync::Arc;
    use std::time::Duration;
    use syncircuit_serve::{
        FaultInjector, ModelRegistry, QuarantinePolicy, ReadFault, RetryPolicy, ServeError,
    };

    /// Corrupts reads of exactly one artifact path.
    #[derive(Debug)]
    struct CorruptOne {
        victim: String,
    }

    impl FaultInjector for CorruptOne {
        fn artifact_read(&self, path: &str, _seed: u64, _attempt: u32) -> Option<ReadFault> {
            (path == self.victim).then_some(ReadFault::Corrupt)
        }
    }

    let paths = fleet();
    let reg = ModelRegistry::with_resilience(
        RegistryBudget::unlimited(),
        RetryPolicy::none(),
        QuarantinePolicy {
            threshold: 2,
            ttl: Duration::from_secs(3600),
        },
        Arc::new(CorruptOne {
            victim: paths[0].clone(),
        }),
    );
    // A healthy tenant loads and counts as a success, nothing else.
    reg.get_or_load(&paths[1]).expect("clean artifact loads");
    // A missing artifact is a load failure but never quarantines (IO
    // says nothing about the bytes on disk).
    assert!(reg.get_or_load("/no/such/model.json").is_err());
    // The corrupted artifact strikes out, then fails fast.
    for _ in 0..2 {
        assert!(matches!(
            reg.get_or_load(&paths[0]).unwrap_err(),
            ServeError::Model(_)
        ));
    }
    assert!(matches!(
        reg.get_or_load(&paths[0]).unwrap_err(),
        ServeError::Quarantined { .. }
    ));
    let s = reg.stats();
    assert_eq!(s.loads, 1, "only the healthy artifact loaded");
    assert_eq!(s.load_failures, 3, "one missing + two corrupt parses");
    assert_eq!(s.quarantined, 1, "only the parse-striking artifact");
    assert_eq!(s.resident, 1);
}

#[test]
fn model_errors_surface_through_tickets() {
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        queue_capacity: 8,
        budget: RegistryBudget::unlimited(),
        ..DaemonConfig::default()
    });
    let ticket = daemon
        .submit("tenant-x", "/no/such/model.json", GenRequest::nodes(16))
        .unwrap();
    let err = ticket.wait().unwrap_err();
    assert!(
        format!("{err}").contains("/no/such/model.json"),
        "serving errors must name the artifact: {err}"
    );
    let stats = daemon.shutdown();
    assert_eq!(stats.served, 1, "a failed job still counts as served");
}
