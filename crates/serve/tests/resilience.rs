//! Chaos equivalence: serving under a seeded fault schedule is
//! predictable, hang-free, and byte-identical where it succeeds.
//!
//! A [`FaultPlan`] derives every injection decision from (plan seed,
//! site, request seed, attempt) — never from thread schedule — so a
//! chaos trace can be *planned* before it runs: requests scheduled to
//! hit must-fail faults get private artifact copies (registry
//! residency cannot mask them), zero-deadline requests must expire,
//! and everything else must complete with designs byte-identical to
//! fault-free direct generation. The battery also property-tests
//! shutdown under fault: whatever mix of faulted, expired, and healthy
//! jobs is in flight, `Daemon::shutdown` strands no ticket and leaves
//! nothing queued.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use syncircuit_core::{GenRequest, Generated, PipelineConfig, RewardKind, SynCircuit};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_serve::{
    silence_injected_panics, Daemon, DaemonConfig, FaultPlan, Predicted, QuarantinePolicy,
    RegistryBudget, RetryPolicy, ServeError, Ticket,
};

const TENANTS: usize = 2;

/// No ticket may take longer than this to resolve; exceeding it is the
/// hang this battery exists to rule out.
const HANG_GUARD: Duration = Duration::from_secs(60);

/// Two tiny trained models saved as artifacts, shared by every test.
fn fleet() -> &'static Vec<String> {
    static FLEET: OnceLock<Vec<String>> = OnceLock::new();
    FLEET.get_or_init(|| {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("syncircuit-resilience-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        (0..TENANTS as u64)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(900 + t);
                let corpus: Vec<_> = (0..2)
                    .map(|_| random_circuit_with_size(&mut rng, 20))
                    .collect();
                let cfg = PipelineConfig::builder()
                    .seed(900 + t)
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

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_micros(100),
        max_delay: Duration::from_millis(1),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expected {
    Ok,
    Deadline,
    Panicked,
    ModelError,
}

struct Planned {
    tenant: usize,
    path: String,
    request: GenRequest,
    expected: Expected,
}

/// Plans a chaos trace of `n` requests: per-request expectations from
/// the plan's pure prediction, zero deadlines every 7th request, and
/// private artifact copies for must-fail read faults.
fn plan_trace(plan: &FaultPlan, retry: &RetryPolicy, n: u64, dir: &Path) -> Vec<Planned> {
    let fleet = fleet();
    (0..n)
        .map(|k| {
            let seed = k + 1;
            let tenant = (k % TENANTS as u64) as usize;
            let mut request = GenRequest::nodes(12 + (k % 4) as usize).seeded(seed);
            let (expected, path) = if k % 7 == 3 {
                request = request.deadline(Duration::ZERO);
                (Expected::Deadline, fleet[tenant].clone())
            } else {
                match plan.predict(seed, retry.max_attempts) {
                    Predicted::Ok { .. } => (Expected::Ok, fleet[tenant].clone()),
                    Predicted::Panic => (Expected::Panicked, fleet[tenant].clone()),
                    Predicted::Corrupt | Predicted::IoExhausted => {
                        let private = dir.join(format!("chaos_{k}.json"));
                        std::fs::copy(&fleet[tenant], &private).expect("copy artifact");
                        (Expected::ModelError, private.display().to_string())
                    }
                }
            };
            Planned {
                tenant,
                path,
                request,
                expected,
            }
        })
        .collect()
}

/// Replays `trace` through a fresh chaos daemon and returns every
/// ticket's outcome, in submission order. Panics on a hang.
fn serve_trace(
    trace: &[Planned],
    plan_seed: u64,
    workers: usize,
) -> Vec<Result<Generated, ServeError>> {
    let daemon = Daemon::start_with_faults(
        DaemonConfig {
            workers,
            queue_capacity: trace.len().max(1),
            budget: RegistryBudget::max_models(1),
            retry: fast_retry(),
            quarantine: QuarantinePolicy::disabled(),
        },
        Arc::new(FaultPlan::seeded(plan_seed)),
    );
    let tickets: Vec<Ticket> = trace
        .iter()
        .map(|p| {
            daemon
                .submit(&format!("tenant-{}", p.tenant), &p.path, p.request.clone())
                .expect("queue sized to the trace")
        })
        .collect();
    let outcomes: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait_timeout(HANG_GUARD).expect("no ticket may hang"))
        .collect();
    let stats = daemon.shutdown();
    assert_eq!(stats.queued, 0, "shutdown leaves nothing queued");
    assert_eq!(stats.served, trace.len() as u64);
    outcomes
}

#[test]
fn chaos_outcomes_match_the_plan_and_the_reference() {
    silence_injected_panics();
    let plan_seed = 41;
    let retry = fast_retry();
    let plan = FaultPlan::seeded(plan_seed);
    let dir = std::env::temp_dir().join(format!("syncircuit-chaos-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create chaos dir");
    let trace = plan_trace(&plan, &retry, 42, &dir);

    // The planned trace must actually exercise every failure class —
    // otherwise the test silently proves nothing.
    for class in [
        Expected::Ok,
        Expected::Deadline,
        Expected::Panicked,
        Expected::ModelError,
    ] {
        assert!(
            trace.iter().any(|p| p.expected == class),
            "seed {plan_seed} schedules no {class:?} request; pick another seed"
        );
    }

    let outcomes = serve_trace(&trace, plan_seed, 2);
    for (k, (planned, outcome)) in trace.iter().zip(&outcomes).enumerate() {
        match (planned.expected, outcome) {
            (Expected::Ok, outcome) => {
                // Byte-identical to fault-free direct generation.
                // Generation can fail legitimately (e.g. a refinement
                // dead-end for one (nodes, seed) combo); that failure
                // is deterministic, so the daemon must reproduce it
                // error-for-error rather than mask or alter it.
                let reference = SynCircuit::load(&fleet()[planned.tenant])
                    .expect("load artifact")
                    .generate_one(&planned.request);
                match (reference, outcome) {
                    (Ok(reference), Ok(gen)) => {
                        assert_eq!(gen.graph, reference.graph, "request {k} diverged");
                        assert_eq!(gen.seed, reference.seed);
                    }
                    (Err(expected), Err(ServeError::Model(e))) => {
                        assert_eq!(*e, expected, "request {k}: generation failure altered");
                    }
                    (reference, got) => panic!(
                        "request {k}: fault-free outcome not reproduced: \
                         reference {:?}, served {:?}",
                        reference.as_ref().map(|_| "Ok"),
                        got.as_ref().map(|_| "Ok")
                    ),
                }
            }
            (Expected::Deadline, Err(ServeError::DeadlineExceeded)) => {}
            (Expected::Panicked, Err(ServeError::WorkerPanicked { .. })) => {}
            (Expected::ModelError, Err(ServeError::Model(e))) => {
                assert!(
                    format!("{e}").contains(&planned.path),
                    "request {k}: fault errors must name the artifact: {e}"
                );
            }
            (expected, got) => panic!(
                "request {k}: expected {expected:?}, got {:?}",
                got.as_ref().map(|_| "Ok")
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_is_deterministic_across_worker_counts() {
    silence_injected_panics();
    let plan_seed = 41;
    let retry = fast_retry();
    let plan = FaultPlan::seeded(plan_seed);
    let dir = std::env::temp_dir().join(format!("syncircuit-chaos-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create chaos dir");
    let trace = plan_trace(&plan, &retry, 28, &dir);

    let lone = serve_trace(&trace, plan_seed, 1);
    let pooled = serve_trace(&trace, plan_seed, 4);
    for (k, (a, b)) in lone.iter().zip(&pooled).enumerate() {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(
                    x.graph, y.graph,
                    "request {k}: bytes differ across worker counts"
                );
            }
            (Err(x), Err(y)) => {
                // Same typed failure class on both schedules.
                assert_eq!(
                    std::mem::discriminant(x),
                    std::mem::discriminant(y),
                    "request {k}: {x:?} vs {y:?}"
                );
            }
            (x, y) => panic!(
                "request {k}: outcome class diverged across worker counts: {:?} vs {:?}",
                x.as_ref().map(|_| "Ok"),
                y.as_ref().map(|_| "Ok")
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shutdown under fault: whatever mix of healthy, missing-model,
    /// zero-deadline, and panic-scheduled jobs is in flight when
    /// shutdown begins, every ticket resolves (no hangs) and nothing
    /// stays queued.
    #[test]
    fn shutdown_under_fault_strands_no_ticket(
        workers in 0usize..3,
        jobs in 1usize..10,
        seed in any::<u64>(),
    ) {
        silence_injected_panics();
        let mut plan = FaultPlan::seeded(seed);
        plan.panic_permille = 400; // make injected panics likely in small traces
        let daemon = Daemon::start_with_faults(
            DaemonConfig {
                workers,
                queue_capacity: 64,
                budget: RegistryBudget::max_models(1),
                retry: RetryPolicy {
                    max_attempts: 2,
                    base_delay: Duration::from_micros(50),
                    max_delay: Duration::from_micros(200),
                },
                quarantine: QuarantinePolicy::disabled(),
            },
            Arc::new(plan),
        );
        let tickets: Vec<Ticket> = (0..jobs as u64)
            .map(|k| {
                let req_seed = seed.wrapping_add(k).wrapping_mul(2) | 1;
                let mut req = GenRequest::nodes(10).seeded(req_seed);
                if k % 3 == 1 {
                    req = req.deadline(Duration::ZERO);
                }
                let path = if k % 3 == 2 {
                    "/no/such/model.json".to_string()
                } else {
                    fleet()[(k % TENANTS as u64) as usize].clone()
                };
                daemon
                    .submit(&format!("tenant-{}", k % 2), &path, req)
                    .expect("queue has headroom")
            })
            .collect();
        // Shut down immediately: in-flight and queued jobs must all
        // resolve — served, typed-failed, or ShuttingDown — never hang.
        let stats = daemon.shutdown();
        prop_assert_eq!(stats.queued, 0);
        let mut resolved = 0usize;
        for ticket in tickets {
            match ticket.wait_timeout(HANG_GUARD) {
                Ok(_) => resolved += 1,
                Err(_) => prop_assert!(false, "a ticket hung past shutdown"),
            }
        }
        prop_assert_eq!(resolved, jobs);
        prop_assert!(stats.served <= jobs as u64);
    }
}
