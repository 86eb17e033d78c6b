//! Load generator for the serving stack: replays a mixed-tenant request
//! trace through the daemon, in process or over TCP, with or without a
//! seeded fault plan, and checks every answer against its plan.
//!
//! ```text
//! load-gen [--requests N] [--tenants T] [--workers W] [--max-resident M]
//!          [--inflight K] [--nodes SIZE] [--json OUT] [--chaos SEED]
//!          [--net [ADDR]]
//! ```
//!
//! The harness trains one tiny model per tenant and saves the artifacts.
//! It serves the trace through one of two transports: a [`Daemon`] in
//! this process, or, with `--net [ADDR]` (default `127.0.0.1:0`), a
//! [`NetServer`] reached through [`NetClient`]s. The
//! registry budget (`--max-resident`, by default half the default fleet)
//! keeps traffic evicting and reloading models.
//!
//! Every request has a plan, fixed before anything is served. Without a
//! fault plan it is whatever direct generation from a freshly loaded
//! model returns: the same design, byte for byte, or the same typed
//! error. `--chaos SEED` serves the trace under a seeded [`FaultPlan`]:
//! IO errors, slow and corrupt artifact reads and worker panics, plus
//! connection drops and slowed writes over TCP. Every 13th request also
//! carries a zero deadline. The planner applies the server's own order
//! of checks: connection drop, then deadline, then
//! [`FaultPlan::predict`]. A request that must fail its artifact read
//! gets a private copy of the artifact, so registry residency cannot
//! mask the fault at any worker count.
//!
//! Request `k` has seed `k + 1`. Requests go out through one sliding
//! window of `--inflight` outstanding submissions. Over TCP they share
//! one pipelined connection, except under a fault plan, where each
//! request opens its own so that a scheduled drop severs exactly one
//! exchange. A fault-free run ends with a burst: one long filler per
//! worker, then identical seeded duplicates in the same tenant lane,
//! which must coalesce onto one execution.
//!
//! The run fails on an answer that differs from its plan, a job left
//! queued at shutdown, a rejected submission, serving counters that
//! disagree with the plan, a burst without coalesce hits, an in-process
//! registry budget that forced no evictions, or a fault plan that
//! injected too little. The queue holds `max(inflight, workers + 8)`
//! jobs, so a correct run is never `Overloaded`. `--json OUT` writes
//! the latency percentiles as `serve_load_{p50,p99,mean}_ns` in process
//! or `serve_net_*` over TCP, for the `bench-json` trajectory merge.
//! `just serve-smoke`, `just chaos-smoke` and `just net-smoke` run it as
//! CI gates.

use rand::{rngs::StdRng, SeedableRng};
use std::collections::VecDeque;
use std::fmt::Debug;
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use syncircuit_core::{
    Error as CoreError, GenRequest, Generated, PipelineConfig, RewardKind, SynCircuit,
};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_serve::{
    silence_injected_panics, ClientError, ConnFault, Daemon, DaemonConfig, DaemonStats,
    FaultInjector, FaultPlan, NetClient, NetServer, NetServerConfig, NoFaults, Predicted,
    QuarantinePolicy, RegistryBudget, RegistryStats, RetryPolicy, ServeError, Ticket,
};

struct Args {
    requests: usize,
    tenants: usize,
    workers: usize,
    max_resident: usize,
    inflight: usize,
    nodes: usize,
    json: Option<String>,
    chaos: Option<u64>,
    /// Bind address of the TCP transport (`--net [ADDR]`).
    net: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            requests: 1000,
            tenants: 4,
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            max_resident: 2,
            inflight: 1000,
            nodes: 16,
            json: None,
            chaos: None,
            net: None,
        };
        let mut it = std::env::args().skip(1).peekable();
        while let Some(flag) = it.next() {
            if flag == "--net" {
                // The address operand is optional: `--net` alone binds
                // an ephemeral local port.
                args.net = Some(match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked value exists"),
                    _ => "127.0.0.1:0".to_string(),
                });
                continue;
            }
            let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
            match flag.as_str() {
                "--requests" => args.requests = parse(&flag, &value()?)?,
                "--tenants" => args.tenants = parse(&flag, &value()?)?,
                "--workers" => args.workers = parse(&flag, &value()?)?,
                "--max-resident" => args.max_resident = parse(&flag, &value()?)?,
                "--inflight" => args.inflight = parse(&flag, &value()?)?,
                "--nodes" => args.nodes = parse(&flag, &value()?)?,
                "--json" => args.json = Some(value()?),
                "--chaos" => {
                    let text = value()?;
                    args.chaos = Some(
                        text.parse()
                            .map_err(|e| format!("--chaos: invalid seed {text:?}: {e}"))?,
                    );
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.requests == 0 || args.tenants == 0 || args.workers == 0 || args.inflight == 0 {
            return Err(
                "--requests, --tenants, --workers and --inflight must be positive".to_string(),
            );
        }
        Ok(args)
    }
}

fn parse(flag: &str, text: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|e| format!("{flag}: invalid value {text:?}: {e}"))
}

/// Trains and saves one tiny artifact per tenant under a temp dir.
fn train_fleet(dir: &Path, tenants: usize) -> Vec<String> {
    (0..tenants as u64)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(1000 + t);
            let corpus: Vec<_> = (0..2)
                .map(|_| random_circuit_with_size(&mut rng, 20))
                .collect();
            let cfg = PipelineConfig::builder()
                .seed(1000 + t)
                .reward(RewardKind::IncrementalCone)
                .build()
                .expect("valid configuration");
            let model = SynCircuit::fit(&corpus, cfg).expect("fit tenant model");
            let path = dir.join(format!("tenant_{t}.json"));
            model.save(&path).expect("save tenant artifact");
            path.display().to_string()
        })
        .collect()
}

/// Nearest-rank percentile: the smallest sample with at least `p` of
/// the distribution at or below it, i.e. rank `⌈n·p⌉` (1-based).
///
/// The previous `((n-1)·p).round()` interpolation-style index biases
/// low and reads the wrong sample on small `n` — e.g. the p50 of four
/// samples is the 2nd (rank ⌈4·0.5⌉ = 2), not the 3rd
/// (`round(3·0.5) = 2` zero-based), and the p50 of two samples is the
/// 1st, not the 2nd.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Upper bound on any single wait: an answer still missing after this
/// long counts as a hang, the failure mode the harness exists to rule
/// out.
const HANG_GUARD: Duration = Duration::from_secs(60);

/// Identical duplicates in the coalescing burst.
const DUPS: usize = 8;

/// Fast retries, so that an exhausted IO budget resolves quickly.
/// Without faults no read is ever retried.
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 3,
    base_delay: Duration::from_micros(200),
    max_delay: Duration::from_millis(2),
};

/// What one request must resolve to, fixed before anything is served.
#[derive(Clone, Debug)]
enum Plan {
    /// Exactly what direct generation from a freshly loaded model
    /// returns: the same design, or the same typed model error.
    Answer(Result<Box<Generated>, CoreError>),
    /// The server hangs up before admission.
    Dropped,
    /// Shed with `DeadlineExceeded` (zero time budget).
    Deadline,
    /// Failed with `WorkerPanicked` (an injected panic, isolated).
    Panicked,
    /// Failed with a typed model error (corrupt bytes or exhausted IO
    /// retries).
    ModelError,
}

impl Plan {
    /// Plans what direct generation from `model` returns.
    fn direct(model: &SynCircuit, request: &GenRequest) -> Plan {
        Plan::Answer(model.generate_one(request).map(Box::new))
    }
}

/// One request and its plan.
#[derive(Clone)]
struct Planned {
    tenant: usize,
    artifact: String,
    request: GenRequest,
    plan: Plan,
}

impl Planned {
    fn seed(&self) -> u64 {
        self.request
            .seed()
            .expect("every planned request is seeded")
    }
}

/// Plans the trace: request `k` has seed `k + 1` and goes to tenant
/// `k % tenants`.
fn plan_trace(
    args: &Args,
    fleet: &[String],
    models: &[SynCircuit],
    faults: Option<&FaultPlan>,
    dir: &Path,
) -> Result<Vec<Planned>, String> {
    let mut trace = Vec::with_capacity(args.requests);
    for k in 0..args.requests as u64 {
        let seed = k + 1;
        let tenant = (k % args.tenants as u64) as usize;
        let mut request = GenRequest::nodes(args.nodes + (k % 5) as usize).seeded(seed);
        let mut artifact = fleet[tenant].clone();
        let plan = match faults {
            None => Plan::direct(&models[tenant], &request),
            Some(faults) if faults.decide_conn(seed) == Some(ConnFault::Drop) => Plan::Dropped,
            Some(_) if k % 13 == 5 => {
                request = request.deadline(Duration::ZERO);
                Plan::Deadline
            }
            Some(faults) => match faults.predict(seed, RETRY.max_attempts) {
                Predicted::Ok { .. } => Plan::direct(&models[tenant], &request),
                Predicted::Panic => Plan::Panicked,
                Predicted::Corrupt | Predicted::IoExhausted => {
                    let private = dir.join(format!("private_{k}.json"));
                    std::fs::copy(&artifact, &private)
                        .map_err(|e| format!("{}: {e}", private.display()))?;
                    artifact = private.display().to_string();
                    Plan::ModelError
                }
            },
        };
        trace.push(Planned {
            tenant,
            artifact,
            request,
            plan,
        });
    }
    Ok(trace)
}

/// Plans the coalescing burst: one filler per worker, then [`DUPS`]
/// identical requests, all in one tenant's lane. A lane is FIFO, so the
/// duplicates' leader waits behind the fillers (eight times the trace's
/// node count, so they run long) while its followers are admitted.
fn plan_burst(args: &Args, fleet: &[String], models: &[SynCircuit]) -> Vec<Planned> {
    let tenant = 1 % args.tenants;
    let planned = |request: GenRequest| Planned {
        tenant,
        artifact: fleet[tenant].clone(),
        plan: Plan::direct(&models[tenant], &request),
        request,
    };
    let mut burst: Vec<Planned> = (0..args.workers as u64)
        .map(|w| planned(GenRequest::nodes(8 * args.nodes).seeded(u64::MAX - 10 - w)))
        .collect();
    let dup = planned(GenRequest::nodes(args.nodes).seeded(u64::MAX - 1));
    burst.extend(std::iter::repeat_n(dup, DUPS));
    burst
}

/// Bit-exact equality of two generated designs (graphs, Gini edge
/// count, seed, and MCTS reward bit patterns).
fn generated_identical(a: &Generated, b: &Generated) -> bool {
    a.graph == b.graph
        && a.gval == b.gval
        && a.gini_edges == b.gini_edges
        && a.seed == b.seed
        && a.mcts.len() == b.mcts.len()
        && a.mcts.iter().zip(&b.mcts).all(|(x, y)| {
            x.best_reward.to_bits() == y.best_reward.to_bits()
                && x.evaluations == y.evaluations
                && x.best == y.best
        })
}

/// How a request resolved, on either transport.
type Outcome = Result<Generated, ClientError>;

fn describe<T, E: Debug>(outcome: &Result<T, E>) -> String {
    match outcome {
        Ok(_) => "a design".to_string(),
        Err(e) => format!("{e:?}"),
    }
}

/// Checks one answer against its plan.
fn verdict(plan: &Plan, got: &Outcome) -> Result<(), String> {
    match (plan, got) {
        (Plan::Answer(Ok(want)), Ok(design)) if generated_identical(design, want) => Ok(()),
        (Plan::Answer(Err(want)), Err(ClientError::Serve(ServeError::Model(e)))) if e == want => {
            Ok(())
        }
        // A dropped connection closes cleanly, or resets when the
        // kernel tears the socket down first.
        (Plan::Dropped, Err(ClientError::Disconnected | ClientError::Io(_)))
        | (Plan::Deadline, Err(ClientError::Serve(ServeError::DeadlineExceeded)))
        | (Plan::Panicked, Err(ClientError::Serve(ServeError::WorkerPanicked { .. })))
        | (Plan::ModelError, Err(ClientError::Serve(ServeError::Model(_)))) => Ok(()),
        (Plan::Answer(Ok(_)), Ok(_)) => {
            Err("the design differs from direct generation".to_string())
        }
        (Plan::Answer(want), got) => {
            Err(format!("planned {}, got {}", describe(want), describe(got)))
        }
        (plan, got) => Err(format!("planned {plan:?}, got {}", describe(got))),
    }
}

/// Where requests are served.
enum Transport {
    /// A daemon in this process.
    Local(Daemon),
    /// A TCP server, with one pipelined connection, or none when every
    /// request opens its own.
    Net {
        server: NetServer,
        shared: Option<NetClient>,
    },
}

/// A submitted request, redeemed by [`Transport::wait`].
enum Pending {
    Local(Ticket),
    /// A correlation id on the shared connection.
    Shared(u64),
    /// A request on a connection of its own.
    Own(NetClient, u64),
}

fn connect(addr: SocketAddr) -> Result<NetClient, ClientError> {
    let mut client = NetClient::connect(addr)?;
    client.set_read_timeout(Some(HANG_GUARD))?;
    Ok(client)
}

impl Transport {
    fn submit(&mut self, planned: &Planned) -> Result<Pending, ClientError> {
        let tenant = format!("tenant-{}", planned.tenant);
        let (artifact, request) = (&planned.artifact, planned.request.clone());
        Ok(match self {
            Transport::Local(daemon) => Pending::Local(
                daemon
                    .submit(&tenant, artifact, request)
                    .map_err(ClientError::Serve)?,
            ),
            Transport::Net {
                shared: Some(client),
                ..
            } => Pending::Shared(client.submit(&tenant, artifact, request)?),
            Transport::Net { server, .. } => {
                let mut client = connect(server.local_addr())?;
                let id = client.submit(&tenant, artifact, request)?;
                Pending::Own(client, id)
            }
        })
    }

    /// Blocks for the answer. A hang surfaces as an IO error after
    /// [`HANG_GUARD`], as a socket read timeout does over TCP.
    fn wait(&mut self, pending: Pending) -> Outcome {
        match (pending, self) {
            (Pending::Local(ticket), _) => match ticket.wait_timeout(HANG_GUARD) {
                Ok(outcome) => outcome.map_err(ClientError::Serve),
                Err(_) => Err(ClientError::Io(format!("no answer after {HANG_GUARD:?}"))),
            },
            (Pending::Own(mut client, id), _) => client.wait(id),
            (
                Pending::Shared(id),
                Transport::Net {
                    shared: Some(client),
                    ..
                },
            ) => client.wait(id),
            (Pending::Shared(_), _) => unreachable!("a shared id needs the shared connection"),
        }
    }

    /// Drains the server and returns its counters, with the registry's
    /// in process (`NetServer` exposes none).
    fn shutdown(self) -> (DaemonStats, Option<RegistryStats>) {
        match self {
            Transport::Local(daemon) => {
                let registry = daemon.registry().stats();
                (daemon.shutdown(), Some(registry))
            }
            Transport::Net { server, shared } => {
                drop(shared);
                (server.shutdown(), None)
            }
        }
    }
}

/// Serves `trace` through a sliding window of `inflight` outstanding
/// requests, redeemed in submission order. Returns every request's
/// latency and the number of answers that differ from their plan.
fn replay(
    transport: &mut Transport,
    trace: &[Planned],
    inflight: usize,
) -> Result<(Vec<Duration>, usize), String> {
    let mut unsent = trace.iter();
    let mut window = VecDeque::with_capacity(inflight.min(trace.len()));
    let mut latencies = Vec::with_capacity(trace.len());
    let mut mismatches = 0;
    loop {
        while window.len() < inflight {
            let Some(planned) = unsent.next() else { break };
            let pending = transport
                .submit(planned)
                .map_err(|e| format!("submitting seed {}: {e}", planned.seed()))?;
            window.push_back((planned, Instant::now(), pending));
        }
        let Some((planned, submitted, pending)) = window.pop_front() else {
            break;
        };
        let outcome = transport.wait(pending);
        latencies.push(submitted.elapsed());
        if let Err(why) = verdict(&planned.plan, &outcome) {
            eprintln!("load-gen: seed {} MISMATCH: {why}", planned.seed());
            mismatches += 1;
        }
    }
    Ok((latencies, mismatches))
}

fn run(args: &Args, dir: &Path) -> Result<(), String> {
    let faults = args.chaos.map(|seed| {
        Arc::new(match args.net {
            Some(_) => FaultPlan::seeded_with_conn_faults(seed),
            None => FaultPlan::seeded(seed),
        })
    });
    silence_injected_panics();
    let (transport_name, json_prefix) = match args.net {
        Some(_) => ("net", "serve_net"),
        None => ("in-process", "serve_load"),
    };
    let chaos = args.chaos.map(|seed| format!(" chaos seed {seed}"));
    let mode = format!("{transport_name}{}", chaos.unwrap_or_default());
    eprintln!(
        "load-gen: {mode}: training {} tenant model(s)...",
        args.tenants
    );
    let fleet = train_fleet(dir, args.tenants);
    let models: Vec<SynCircuit> = fleet
        .iter()
        .map(|p| SynCircuit::load(p).expect("load tenant artifact"))
        .collect();
    let trace = plan_trace(args, &fleet, &models, faults.as_deref(), dir)?;
    // A fault plan would fault the fillers too, so only a fault-free
    // run bursts.
    let burst = match faults {
        Some(_) => Vec::new(),
        None => plan_burst(args, &fleet, &models),
    };

    let config = DaemonConfig {
        workers: args.workers,
        queue_capacity: args.inflight.max(args.workers + DUPS),
        budget: RegistryBudget::max_models(args.max_resident),
        retry: RETRY,
        // A planned read failure must stay a typed model error, never
        // `Quarantined`.
        quarantine: QuarantinePolicy::disabled(),
    };
    let injector: Arc<dyn FaultInjector> = match &faults {
        Some(plan) => plan.clone(),
        None => Arc::new(NoFaults),
    };
    let mut transport = match &args.net {
        None => Transport::Local(Daemon::start_with_faults(config, injector)),
        Some(addr) => {
            let daemon = NetServerConfig { daemon: config };
            let server = NetServer::bind_with_faults(addr.as_str(), daemon, injector)
                .map_err(|e| format!("bind {addr}: {e}"))?;
            let shared = match faults {
                Some(_) => None,
                None => Some(connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?),
            };
            Transport::Net { server, shared }
        }
    };
    eprintln!(
        "load-gen: {mode}: replaying {} requests, {} tenants, {} workers, window {}, \
         registry budget {} model(s)",
        args.requests, args.tenants, args.workers, args.inflight, args.max_resident
    );

    let started = Instant::now();
    let (mut latencies, mut mismatches) = replay(&mut transport, &trace, args.inflight)?;
    let wall = started.elapsed();
    mismatches += replay(&mut transport, &burst, burst.len())?.1;
    let (stats, registry) = transport.shutdown();

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let mean = latencies.iter().sum::<Duration>() / latencies.len() as u32;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "load-gen: {mode}: {} requests in {:.2}s ({:.0} req/s), window {}, {} workers",
        args.requests,
        wall.as_secs_f64(),
        args.requests as f64 / wall.as_secs_f64(),
        args.inflight,
        args.workers
    );
    println!(
        "  latency p50 {:.2}ms  p99 {:.2}ms  mean {:.2}ms",
        ms(p50),
        ms(p99),
        ms(mean)
    );
    println!(
        "  daemon: {} served, {} rejected, {} expired, {} panicked, {} coalesce hits, \
         {} queued at shutdown",
        stats.served,
        stats.rejected,
        stats.expired,
        stats.panicked,
        stats.coalesce_hits,
        stats.queued
    );
    if let Some(r) = &registry {
        println!(
            "  registry: {} hits, {} loads, {} load failures, {} evictions, {} resident ({} bytes)",
            r.hits, r.loads, r.load_failures, r.evictions, r.resident, r.resident_bytes
        );
    }

    let planned = |want: fn(&Plan) -> bool| trace.iter().filter(|p| want(&p.plan)).count() as u64;
    let admitted = (trace.len() + burst.len()) as u64 - planned(|p| matches!(p, Plan::Dropped));
    let expired = planned(|p| matches!(p, Plan::Deadline));
    let panicked = planned(|p| matches!(p, Plan::Panicked));
    let mut failures = Vec::new();
    if mismatches > 0 {
        failures.push(format!("{mismatches} answer(s) differ from their plan"));
    }
    if stats.rejected != 0 {
        failures.push(format!("{} submission(s) were rejected", stats.rejected));
    }
    if stats.queued != 0 {
        failures.push(format!("{} job(s) leaked past shutdown", stats.queued));
    }
    if stats.served + stats.coalesce_hits != admitted {
        failures.push(format!(
            "accounting is off: {} served + {} coalesce hits != {admitted} admitted",
            stats.served, stats.coalesce_hits
        ));
    }
    if stats.expired != expired || stats.panicked != panicked {
        failures.push(format!(
            "counters diverged from the plan: expired {} (want {expired}), panicked {} \
             (want {panicked})",
            stats.expired, stats.panicked
        ));
    }
    if !burst.is_empty() && stats.coalesce_hits == 0 {
        failures.push("the duplicate burst produced no coalesce hits".to_string());
    }
    if let Some(r) = registry.filter(|r| args.max_resident < args.tenants && r.evictions == 0) {
        failures.push(format!(
            "registry budget ({} < {} tenants) forced no evictions: {r:?}",
            args.max_resident, args.tenants
        ));
    }
    if let Some(plan) = &faults {
        let c = plan.counts();
        println!(
            "  injected: {} io errors, {} slow reads, {} corrupt reads, {} panics, \
             {} conn drops, {} slowed writes",
            c.io_errors, c.slow_reads, c.corrupt_reads, c.panics, c.conn_drops, c.conn_slows
        );
        let wire = [c.conn_drops, c.conn_slows];
        let kinds = [c.io_errors, c.corrupt_reads, c.panics];
        if kinds.contains(&0) || (args.net.is_some() && wire.contains(&0)) {
            failures.push(format!(
                "the fault plan injected too little to prove anything: {c:?} \
                 (raise --requests or change the seed)"
            ));
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }

    if let Some(path) = &args.json {
        let doc = serde_json::Value::Object(
            [("p50", p50), ("p99", p99), ("mean", mean)]
                .map(|(name, d)| {
                    let ns = serde_json::Value::UInt(d.as_nanos() as u64);
                    (format!("{json_prefix}_{name}_ns"), ns)
                })
                .to_vec(),
        );
        let text = serde_json::to_string_pretty(&doc).map_err(|e| format!("{e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("  wrote {path}");
    }
    println!("  every answer matched its plan; nothing hung, leaked or was rejected");
    Ok(())
}

fn main() -> ExitCode {
    let result = Args::parse().and_then(|args| {
        let dir = std::env::temp_dir().join(format!("syncircuit-load-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let result = run(&args, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        result
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("load-gen: error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::NodeType;

    fn ms(xs: &[u64]) -> Vec<Duration> {
        xs.iter().map(|&x| Duration::from_millis(x)).collect()
    }

    /// Nearest-rank answers for every n in 1..=5, pinned against the
    /// hand-computed ranks. The n=2 and n=4 medians are exactly the
    /// cases where the old `((n-1)·p).round()` index picked the sample
    /// one slot too high.
    #[test]
    fn percentile_uses_nearest_rank() {
        let p50 = |xs: &[u64]| percentile(&ms(xs), 0.50).as_millis() as u64;
        let p99 = |xs: &[u64]| percentile(&ms(xs), 0.99).as_millis() as u64;

        assert_eq!(p50(&[10]), 10);
        assert_eq!(p50(&[10, 20]), 10); // rank ⌈2·0.5⌉ = 1 — old formula said 20
        assert_eq!(p50(&[10, 20, 30]), 20);
        assert_eq!(p50(&[10, 20, 30, 40]), 20); // rank 2 — old formula said 30
        assert_eq!(p50(&[10, 20, 30, 40, 50]), 30);

        // p99 of small samples is the maximum, under both formulas.
        for n in 1..=5u64 {
            let xs: Vec<u64> = (1..=n).map(|i| i * 10).collect();
            assert_eq!(p99(&xs), n * 10);
        }
        // p0 clamps to the minimum instead of underflowing rank 0.
        assert_eq!(percentile(&ms(&[10, 20]), 0.0).as_millis(), 10);
    }

    /// Every plan against every kind of answer, built from one tiny
    /// model's design and typed error: only the planned pairs pass, and
    /// a design differing in one field fails.
    #[test]
    fn verdict_passes_only_the_planned_outcome() {
        let mut rng = StdRng::seed_from_u64(1000);
        let corpus: Vec<_> = (0..2)
            .map(|_| random_circuit_with_size(&mut rng, 20))
            .collect();
        let cfg = PipelineConfig::builder()
            .seed(1000)
            .reward(RewardKind::IncrementalCone)
            .build()
            .unwrap();
        let model = SynCircuit::fit(&corpus, cfg).unwrap();
        let design = model
            .generate_one(&GenRequest::nodes(16).seeded(1))
            .unwrap();
        assert!(
            !design.mcts.is_empty(),
            "the design must carry MCTS rewards"
        );
        let error = model
            .generate_one(&GenRequest::with_attrs(Vec::new()))
            .unwrap_err();

        let variant = |edit: fn(&mut Generated)| {
            let mut other = design.clone();
            edit(&mut other);
            Ok(other)
        };
        let served = |e: ServeError| Err(ClientError::Serve(e));
        let outcomes: Vec<(&str, Outcome)> = vec![
            ("design", Ok(design.clone())),
            ("other seed", variant(|g| g.seed ^= 1)),
            (
                "other gval",
                variant(|g| {
                    g.gval.add_node(NodeType::Input, 1);
                }),
            ),
            (
                "other reward bit",
                variant(|g| {
                    g.mcts[0].best_reward = f64::from_bits(g.mcts[0].best_reward.to_bits() ^ 1)
                }),
            ),
            ("model error", served(ServeError::Model(error.clone()))),
            (
                "other model error",
                served(ServeError::Model(CoreError::EmptyCorpus)),
            ),
            ("close", Err(ClientError::Disconnected)),
            (
                "reset",
                Err(ClientError::Io("connection reset by peer".to_string())),
            ),
            ("deadline", served(ServeError::DeadlineExceeded)),
            (
                "panic",
                served(ServeError::WorkerPanicked {
                    message: "boom".to_string(),
                }),
            ),
            ("overloaded", served(ServeError::Overloaded { capacity: 1 })),
        ];
        let table: Vec<(&str, Plan, &[&str])> = vec![
            (
                "answer",
                Plan::Answer(Ok(Box::new(design.clone()))),
                &["design"],
            ),
            ("model error", Plan::Answer(Err(error)), &["model error"]),
            ("dropped", Plan::Dropped, &["close", "reset"]),
            ("deadline", Plan::Deadline, &["deadline"]),
            ("panicked", Plan::Panicked, &["panic"]),
            (
                "any model error",
                Plan::ModelError,
                &["model error", "other model error"],
            ),
        ];
        for (plan_name, plan, passing) in &table {
            for (name, got) in &outcomes {
                assert_eq!(
                    verdict(plan, got).is_ok(),
                    passing.contains(name),
                    "plan {plan_name}, outcome {name}: {:?}",
                    verdict(plan, got)
                );
            }
        }
    }
}
