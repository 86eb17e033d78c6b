//! The TCP front-end: frames off the wire, into the daemon, back out.
//!
//! [`NetServer`] binds a `std::net` listener and speaks the
//! [`crate::wire`] protocol. The acceptor thread owns the listener and
//! sets `TCP_NODELAY` on every accepted socket (frames go out in one
//! write each, see [`crate::wire::write_frame`], so Nagle's algorithm
//! has nothing to coalesce and would only hold a response back until
//! the peer's delayed ACK). Each connection then runs exactly two
//! threads, however many requests it pipelines:
//!
//! - a **reader** decodes frames and submits them to the [`Daemon`],
//!   which coalesces identical seeded requests onto one job. For each
//!   admitted request it registers a completion hook on the ticket and
//!   moves on, so slow generation never blocks frame decoding;
//! - a **writer** encodes and sends response frames. The hooks run on
//!   whichever thread resolves the request's job (a daemon worker or
//!   shutdown) and push the outcome onto the writer's mpsc channel.
//!
//! No thread is spawned per request, so a connection's cost is fixed
//! and thread exhaustion cannot close it.
//!
//! Invariants the tests hold this module to:
//!
//! - **Backpressure is typed.** A submission past the daemon's
//!   high-water mark comes back as an `Overloaded` error *frame*; the
//!   connection stays usable.
//! - **Deadlines resolve at network admission.** The request frame
//!   carries a millisecond budget; the countdown starts when the
//!   reader admits the job, not when the client built the request.
//! - **Disconnects leak nothing.** A client hanging up mid-flight
//!   leaves its hooks to fire into a dead writer; the daemon still
//!   resolves every admitted job and drops its coalescing key, so no
//!   worker or in-flight entry strands. A closed connection
//!   deregisters its socket, so fds stay flat however many connections
//!   come and go.
//! - **Protocol garbage cannot take the server down.** A malformed
//!   frame gets a typed `protocol` response (when the id is known) and
//!   a connection close — never a panic, and never any effect on other
//!   connections.
//! - **Shutdown drains.** [`NetServer::shutdown`] stops accepting,
//!   fails every queued request with a typed `ShuttingDown` answer,
//!   closes the read half of live connections so their writers flush
//!   every answer, closes outright whatever is still open after a short
//!   grace (a peer that stopped reading cannot hold it up), joins every
//!   thread, then drains the daemon.
//!
//! Chaos runs exercise one more seam: the injector's
//! [`FaultInjector::connection`] verdict is consulted per request —
//! `Drop` hangs up without answering (client sees a clean close),
//! `Slow` makes the writer hold that response aside until its delay has
//! passed, while other responses on the connection go out as they
//! complete.

use crate::daemon::{Daemon, DaemonConfig, DaemonStats, Ticket};
use crate::fault::{ConnFault, FaultInjector, NoFaults};
use crate::wire::{
    decode_request, encode_response, read_frame, write_frame, ResponseBody, ResponseFrame,
    WireError, MAX_FRAME_BYTES,
};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long shutdown lets live connections flush their answers before
/// it closes them outright, so a peer that stopped reading (and so
/// blocks its writer mid-send) cannot hold shutdown up.
const SHUTDOWN_WRITE_GRACE: Duration = Duration::from_secs(1);

/// Configuration of a [`NetServer`]. Frames in both directions are
/// bounded by [`MAX_FRAME_BYTES`].
#[derive(Clone, Debug, Default)]
pub struct NetServerConfig {
    /// Configuration of the daemon behind the socket.
    pub daemon: DaemonConfig,
}

/// What the writer thread processes. Responses go out in *completion*
/// order, not submission order — that is what the correlation ids are
/// for, and it keeps an admission rejection (or a fast job) from
/// queueing behind a slow one, or behind a response held back by an
/// injected `Slow` fault.
enum WriterItem {
    /// A finished outcome: respond once the injected `slow` delay, if
    /// any, has passed.
    Ready {
        frame: ResponseFrame,
        slow: Option<Duration>,
    },
    /// A protocol failure: respond (typed), then close the connection.
    Fatal(ResponseFrame),
}

struct ServerShared {
    daemon: Daemon,
    injector: Arc<dyn FaultInjector>,
    stopping: AtomicBool,
    /// A handle on each live connection's socket, by connection number,
    /// for shutdown to close. Each connection removes its own entry when
    /// it ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled whenever a connection removes its entry.
    conn_closed: Condvar,
}

impl ServerShared {
    fn lock_conns(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(|poisoned| {
            self.conns.clear_poison();
            poisoned.into_inner()
        })
    }

    fn deregister(&self, id: u64) {
        self.lock_conns().remove(&id);
        self.conn_closed.notify_all();
    }
}

/// The TCP serving front-end (see the module docs).
pub struct NetServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving, with no fault injection.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind(addr: impl ToSocketAddrs, config: NetServerConfig) -> io::Result<Self> {
        Self::bind_with_faults(addr, config, Arc::new(NoFaults))
    }

    /// Like [`NetServer::bind`], with a fault injector wired into both
    /// the daemon's seams and the server's connection seam.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind_with_faults(
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
        injector: Arc<dyn FaultInjector>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            daemon: Daemon::start_with_faults(config.daemon, injector.clone()),
            injector,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            conn_closed: Condvar::new(),
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("syncircuit-net-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(NetServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the real port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current serving counters of the daemon behind the socket.
    pub fn stats(&self) -> DaemonStats {
        self.shared.daemon.stats()
    }

    /// Stops accepting, answers every queued request with a typed
    /// `ShuttingDown` frame, flushes and closes live connections, joins
    /// every thread, and drains the daemon. Returns the final counters.
    pub fn shutdown(mut self) -> DaemonStats {
        self.stop_network();
        let shared = self.shared.clone();
        // The network is already down, so `Drop` has nothing left to do.
        // Every server thread has been joined: after it, `shared` is the
        // only strong reference left.
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(inner) => inner.daemon.shutdown(),
            Err(shared) => shared.daemon.stats(),
        }
    }

    /// Signals stop, unblocks `accept`, ends live connections, and joins
    /// the acceptor (and through it every connection thread). Runs once;
    /// later calls return at once.
    fn stop_network(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Resolve every queued ticket first: the completion hooks queue
        // the answers on their connections' writers, and no connection
        // can end while one of its hooks is still pending.
        self.shared.daemon.begin_shutdown();
        self.shared.daemon.fail_stranded();
        // `accept()` has no native wakeup: a throwaway connection to
        // ourselves gets it to return, at which point it sees the flag.
        let _ = TcpStream::connect(self.local_addr);
        // Close only the read half: each reader sees EOF and exits, and
        // each writer still sends every answer queued for it before it
        // closes the socket. A writer whose peer stopped reading blocks
        // in its send, so whatever is still open after the grace is
        // closed outright, which fails that send.
        let grace_ends = Instant::now() + SHUTDOWN_WRITE_GRACE;
        let mut conns = self.shared.lock_conns();
        for conn in conns.values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        while !conns.is_empty() {
            let left = grace_ends.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            conns = match self.shared.conn_closed.wait_timeout(conns, left) {
                Ok((conns, _)) => conns,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        for conn in conns.values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        drop(conns);
        let _ = acceptor.join();
    }
}

impl Drop for NetServer {
    /// Safety net for servers dropped without [`NetServer::shutdown`]:
    /// closes the network side so no acceptor or connection thread
    /// outlives the handle. (The daemon's own `Drop` resolves any
    /// still-queued tickets.)
    fn drop(&mut self) {
        self.stop_network();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for id in 0u64.. {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if shared.stopping.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        let _ = stream.set_nodelay(true);
        {
            // Checked under the registry lock, so shutdown either sees
            // this connection registered or this loop sees the flag.
            let mut conns = shared.lock_conns();
            if shared.stopping.load(Ordering::SeqCst) {
                break; // the wakeup connection itself lands here
            }
            let Ok(registered) = stream.try_clone() else {
                continue; // refused: shutdown could not close it
            };
            conns.insert(id, registered);
        }
        let conn_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("syncircuit-net-conn".to_string())
            .spawn(move || {
                serve_connection(stream, &conn_shared);
                conn_shared.deregister(id);
            });
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(_) => shared.deregister(id),
        }
        workers.retain(|h| !h.is_finished());
    }
    for handle in workers {
        let _ = handle.join();
    }
}

/// Runs one connection: this thread reads and admits, and one writer
/// thread sends the response frames that the admitted requests'
/// completion hooks queue for it. The writer exits once the reader and
/// every pending hook have dropped their senders, so joining it drains
/// the connection. Returning closes both halves.
fn serve_connection(stream: TcpStream, shared: &ServerShared) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<WriterItem>();
    let writer = std::thread::Builder::new()
        .name("syncircuit-net-writer".to_string())
        .spawn(move || write_loop(write_half, &rx));
    let Ok(writer) = writer else {
        return;
    };
    read_loop(stream, &tx, shared);
    drop(tx); // the writer drains the hooks still pending, then exits
    let _ = writer.join();
}

/// Redeems an admitted ticket through a completion hook that queues its
/// response on the connection's writer. A failed send means the
/// connection died first; dropping the outcome is correct (the daemon
/// already resolved the job).
fn respond_on_completion(
    id: u64,
    ticket: Ticket,
    slow: Option<Duration>,
    tx: &mpsc::Sender<WriterItem>,
) {
    let tx = tx.clone();
    ticket.on_complete(move |outcome| {
        let body = match outcome {
            Ok(design) => ResponseBody::Ok(Box::new(design)),
            Err(e) => ResponseBody::Err(e),
        };
        let frame = ResponseFrame { id, body };
        let _ = tx.send(WriterItem::Ready { frame, slow });
    });
}

/// Decodes frames and admits them until EOF, protocol failure, or an
/// injected connection drop.
fn read_loop(mut stream: TcpStream, tx: &mpsc::Sender<WriterItem>, shared: &ServerShared) {
    loop {
        let payload = match read_frame(&mut stream, MAX_FRAME_BYTES) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean close
            Err(e) => {
                // Answer with a typed protocol error (correlation id
                // unknown: 0), then close. Io/truncation means the
                // socket is gone — nothing to answer on.
                if !matches!(e, WireError::Io(_) | WireError::Truncated { .. }) {
                    let _ = tx.send(WriterItem::Fatal(ResponseFrame {
                        id: 0,
                        body: ResponseBody::Protocol(e),
                    }));
                }
                return;
            }
        };
        let frame = match decode_request(&payload) {
            Ok(frame) => frame,
            Err(e) => {
                let _ = tx.send(WriterItem::Fatal(ResponseFrame {
                    id: 0,
                    body: ResponseBody::Protocol(e),
                }));
                return;
            }
        };
        // The chaos seam: drop hangs up before admission (so the
        // client sees a clean close, not a stuck request); slow tags
        // the response for a delayed write.
        let slow = match shared
            .injector
            .connection(frame.request.seed().unwrap_or(0))
        {
            Some(ConnFault::Drop) => return,
            Some(ConnFault::Slow(delay)) => Some(delay),
            None => None,
        };
        // Network admission: the deadline budget the frame carried
        // starts counting here, inside Daemon::submit.
        match shared
            .daemon
            .submit(&frame.tenant, &frame.artifact, frame.request)
        {
            Ok(ticket) => respond_on_completion(frame.id, ticket, slow, tx),
            Err(e) => {
                let rejected = WriterItem::Ready {
                    frame: ResponseFrame {
                        id: frame.id,
                        body: ResponseBody::Err(e),
                    },
                    slow: None,
                };
                if tx.send(rejected).is_err() {
                    return; // writer gone (socket dead)
                }
            }
        }
    }
}

/// Writes response frames in arrival (= completion) order. A frame an
/// injected `Slow` fault delayed is held aside until it is due, so it
/// holds back no other response. The loop ends once every sender is
/// gone and every held frame is out, so joining the writer means the
/// connection has no hook pending. After a write failure it still
/// drains, but writes nothing further.
fn write_loop(mut stream: TcpStream, rx: &mpsc::Receiver<WriterItem>) {
    // Delayed frames by due time; equal times keep their arrival order.
    let mut held: VecDeque<(Instant, ResponseFrame)> = VecDeque::new();
    let mut live = true;
    loop {
        while live && held.front().is_some_and(|(due, _)| *due <= Instant::now()) {
            let (_, frame) = held.pop_front().expect("a held frame is due");
            live = send(&mut stream, &frame);
        }
        if !live {
            held.clear();
        }
        let next = match held.front() {
            Some((due, _)) => rx.recv_timeout(due.saturating_duration_since(Instant::now())),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        let item = match next {
            Ok(item) => item,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => match held.front() {
                Some((due, _)) => {
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    continue;
                }
                None => break,
            },
        };
        if !live {
            continue;
        }
        match item {
            WriterItem::Ready {
                frame,
                slow: Some(delay),
            } => {
                let due = Instant::now() + delay;
                let at = held.partition_point(|(held_due, _)| *held_due <= due);
                held.insert(at, (due, frame));
            }
            WriterItem::Ready { frame, slow: None } => {
                live = send(&mut stream, &frame);
            }
            WriterItem::Fatal(frame) => {
                send(&mut stream, &frame);
                let _ = stream.shutdown(Shutdown::Both);
                live = false;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Sends one response frame. On failure it closes the socket, so the
/// reader stops too, and returns `false`.
fn send(stream: &mut TcpStream, frame: &ResponseFrame) -> bool {
    let sent = write_frame(stream, &encode_response(frame), MAX_FRAME_BYTES).is_ok();
    if !sent {
        let _ = stream.shutdown(Shutdown::Both);
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Accepted sockets run with `TCP_NODELAY`, so a response frame goes
    /// out at once instead of waiting out the peer's delayed ACK.
    #[test]
    fn accepted_streams_are_no_delay() {
        let srv = NetServer::bind(
            "127.0.0.1:0",
            NetServerConfig {
                daemon: DaemonConfig {
                    workers: 0,
                    queue_capacity: 1,
                    ..DaemonConfig::default()
                },
            },
        )
        .expect("bind ephemeral port");
        let client = TcpStream::connect(srv.local_addr()).expect("connect");
        let give_up = Instant::now() + Duration::from_secs(30);
        let flags = loop {
            let flags: Vec<bool> = srv
                .shared
                .lock_conns()
                .values()
                .map(|conn| conn.nodelay().expect("read TCP_NODELAY"))
                .collect();
            if !flags.is_empty() {
                break flags;
            }
            assert!(
                Instant::now() < give_up,
                "the connection was never accepted"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(flags, [true]);
        drop(client);
        srv.shutdown();
    }

    /// Slows the response to every odd-seeded request by `DELAY`.
    #[derive(Debug)]
    struct SlowOddSeeds;

    const DELAY: Duration = Duration::from_millis(600);

    impl FaultInjector for SlowOddSeeds {
        fn connection(&self, seed: u64) -> Option<ConnFault> {
            (seed % 2 == 1).then_some(ConnFault::Slow(DELAY))
        }
    }

    fn expect_expired(outcome: Result<syncircuit_core::Generated, crate::ClientError>) {
        match outcome {
            Err(crate::ClientError::Serve(crate::ServeError::DeadlineExceeded)) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    /// A `Slow` connection fault holds back only its own response: the
    /// answer leaves the writer a full delay after its request arrived,
    /// and a later request on the same connection is answered in the
    /// meantime.
    #[test]
    fn slow_faults_delay_only_their_own_response() {
        let srv = NetServer::bind_with_faults(
            "127.0.0.1:0",
            NetServerConfig {
                daemon: DaemonConfig {
                    workers: 1,
                    queue_capacity: 4,
                    ..DaemonConfig::default()
                },
            },
            Arc::new(SlowOddSeeds),
        )
        .expect("bind ephemeral port");
        let mut client = crate::NetClient::connect(srv.local_addr()).expect("connect");
        // A zero budget resolves on the worker without touching a model.
        let expiring = |seed| {
            syncircuit_core::GenRequest::nodes(8)
                .seeded(seed)
                .deadline(Duration::ZERO)
        };
        let start = Instant::now();
        let slow = client
            .submit("t", "/never/read.json", expiring(1))
            .expect("submit");
        let fast = client
            .submit("t", "/never/read.json", expiring(2))
            .expect("submit");
        expect_expired(client.wait(fast));
        let fast_at = start.elapsed();
        assert!(
            fast_at < DELAY,
            "the unslowed answer arrived after {fast_at:?}, behind the slowed one"
        );
        expect_expired(client.wait(slow));
        let slow_at = start.elapsed();
        assert!(
            slow_at >= DELAY,
            "the slowed answer arrived after only {slow_at:?}"
        );
        srv.shutdown();
    }
}
