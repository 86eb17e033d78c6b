//! Resource bounds of the TCP front-end, read from `/proc/self` (so
//! Linux only):
//!
//! - a long-running server keeps its fd count flat while connections
//!   come and go;
//! - a connection costs a fixed number of threads however many requests
//!   it pipelines, and shutdown still answers every one of them;
//! - a peer that never reads its answers cannot hold shutdown up;
//! - a request too large to serve gets a typed error frame, and its
//!   connection keeps serving.
//!
//! The tests count process-wide resources, so they take turns on one
//! lock.
#![cfg(target_os = "linux")]

use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use syncircuit_core::{
    Error as CoreError, GenRequest, PipelineConfig, RequestError, RewardKind, SynCircuit,
    MAX_REQUEST_NODES,
};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_serve::{
    ClientError, DaemonConfig, NetClient, NetServer, NetServerConfig, RegistryBudget, RetryPolicy,
    ServeError,
};

/// Connection cycles in the fd test, and pipelined requests in the
/// thread test.
const ROUNDS: u64 = 200;

/// How far a count may sit above its baseline: the harness and the
/// allocator may hold a few of their own.
const SLACK: usize = 4;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).expect("procfs is readable").count()
}

/// One tiny trained artifact.
fn artifact() -> &'static String {
    static ARTIFACT: OnceLock<String> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("syncircuit-net-resources-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let mut rng = StdRng::seed_from_u64(7);
        let corpus: Vec<_> = (0..2)
            .map(|_| random_circuit_with_size(&mut rng, 20))
            .collect();
        let cfg = PipelineConfig::builder()
            .seed(7)
            .reward(RewardKind::IncrementalCone)
            .build()
            .expect("valid configuration");
        let model = SynCircuit::fit(&corpus, cfg).expect("fit tiny model");
        let path = dir.join("model.json");
        model.save(&path).expect("save artifact");
        path.display().to_string()
    })
}

fn server(workers: usize, queue_capacity: usize) -> NetServer {
    NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            daemon: DaemonConfig {
                workers,
                queue_capacity,
                budget: RegistryBudget::unlimited(),
                ..DaemonConfig::default()
            },
        },
    )
    .expect("bind ephemeral port")
}

/// Polls until `settled` holds; `false` after a generous bound
/// (connection threads wind down asynchronously).
fn settles(mut settled: impl FnMut() -> bool) -> bool {
    let give_up = Instant::now() + Duration::from_secs(30);
    while !settled() {
        if Instant::now() >= give_up {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

/// Every closed connection gives its fds back: after many connect →
/// call → close cycles the process holds about what it held before.
#[test]
fn closed_connections_release_their_fds() {
    let _turn = serial();
    let artifact = artifact();
    let srv = server(1, 16);
    let before = entries("/proc/self/fd");
    for k in 0..ROUNDS {
        let mut client = NetClient::connect(srv.local_addr()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("bound the wait");
        client
            .call("tenant", artifact, GenRequest::nodes(16).seeded(k))
            .expect("served");
    }
    assert!(
        settles(|| entries("/proc/self/fd") <= before + SLACK),
        "{before} fds before {ROUNDS} connections, {} after",
        entries("/proc/self/fd")
    );
    srv.shutdown();
}

/// A request for 2^34 nodes once made the attribute sampler ask for
/// 256 GiB, and the failed allocation aborted the server's process. It
/// is refused with a typed error frame before anything is allocated,
/// and the same connection then serves a normal request.
#[test]
fn an_oversized_request_is_refused_and_the_connection_serves_on() {
    let _turn = serial();
    let artifact = artifact();
    let srv = server(1, 16);
    let mut client = NetClient::connect(srv.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("bound the wait");
    match client.call("tenant", artifact, GenRequest::nodes(1 << 34).seeded(1)) {
        Err(ClientError::Serve(ServeError::Model(CoreError::Request(e)))) => assert_eq!(
            e,
            RequestError::TooManyNodes {
                requested: 1 << 34,
                max: MAX_REQUEST_NODES,
            }
        ),
        other => panic!("expected a typed too-many-nodes answer, got {other:?}"),
    }
    let served = client
        .call("tenant", artifact, GenRequest::nodes(16).seeded(2))
        .expect("the connection serves on");
    assert_eq!(served.graph.node_count(), 16);
    srv.shutdown();
}

/// A pipelined connection runs one reader and one writer thread, not a
/// thread per request in flight, and shutdown answers every parked
/// request with a typed `ShuttingDown` frame.
#[test]
fn pipelined_requests_cost_no_threads() {
    let _turn = serial();
    // No workers: every admitted request stays parked until shutdown.
    let srv = server(0, ROUNDS as usize);
    let before = entries("/proc/self/task");
    let mut client = NetClient::connect(srv.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("bound the wait");
    let ids: Vec<u64> = (0..ROUNDS)
        .map(|k| {
            client
                .submit(
                    "tenant",
                    "/never/loaded.json",
                    GenRequest::nodes(16).seeded(k),
                )
                .expect("submit")
        })
        .collect();
    assert!(
        settles(|| srv.stats().queued == ROUNDS as usize),
        "the requests were never all admitted"
    );
    let grown = entries("/proc/self/task").saturating_sub(before);
    assert!(
        grown <= 2 + SLACK,
        "{grown} threads appeared for one connection with {ROUNDS} requests in flight"
    );
    let stats = srv.shutdown();
    assert_eq!(stats.queued, 0);
    for id in ids {
        match client.wait(id) {
            Err(ClientError::Serve(ServeError::ShuttingDown)) => {}
            other => panic!("request {id}: expected a ShuttingDown frame, got {other:?}"),
        }
    }
}

/// Bytes the kernel may buffer between the server's writer and a peer
/// that never reads: at most the largest TCP send buffer plus the
/// largest receive buffer.
fn socket_buffer_ceiling() -> usize {
    ["/proc/sys/net/ipv4/tcp_wmem", "/proc/sys/net/ipv4/tcp_rmem"]
        .iter()
        .map(|knob| {
            std::fs::read_to_string(knob)
                .ok()
                .and_then(|text| text.split_whitespace().nth(2)?.parse().ok())
                .unwrap_or(32 << 20)
        })
        .sum()
}

/// A peer that pipelines requests and never reads its answers fills the
/// socket buffers until the connection's writer blocks mid-send.
/// Shutdown must still return promptly: after its grace period it
/// closes the socket under the blocked writer.
#[test]
fn a_peer_that_stops_reading_cannot_hold_shutdown_up() {
    const ANSWER_BYTES: usize = 1 << 20;
    let _turn = serial();
    let srv = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            daemon: DaemonConfig {
                workers: 1,
                retry: RetryPolicy::none(),
                ..DaemonConfig::default()
            },
        },
    )
    .expect("bind ephemeral port");
    // Each answer is an I/O error that names its artifact path, so a
    // megabyte-long path makes a megabyte-long answer.
    let artifact = format!("/never/{}", "x".repeat(ANSWER_BYTES));
    let requests = socket_buffer_ceiling() / ANSWER_BYTES + 2;
    let mut client = NetClient::connect(srv.local_addr()).expect("connect");
    for k in 0..requests as u64 {
        client
            .submit("tenant", &artifact, GenRequest::nodes(16).seeded(k))
            .expect("submit");
    }
    assert!(
        settles(|| srv.stats().served == requests as u64),
        "the requests were never all served"
    );
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(srv.shutdown());
    });
    let stats = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown stayed blocked on a peer that stopped reading");
    assert_eq!(stats.served, requests as u64);
    drop(client);
}
