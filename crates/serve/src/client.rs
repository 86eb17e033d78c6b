//! Blocking client for the [`crate::wire`] protocol.
//!
//! [`NetClient`] drives one TCP connection. [`NetClient::call`] is the
//! one-shot path; [`NetClient::submit`] + [`NetClient::wait`] pipeline
//! many requests over the same connection, matched back up by
//! correlation id (responses arriving out of the asked-for order are
//! stashed, not lost). Everything the server can say comes back typed:
//! a generated design, a [`ServeError`], or a [`WireError`] — see
//! [`ClientError`].

use crate::error::ServeError;
use crate::wire::{
    encode_request, read_frame, write_frame, RequestFrame, ResponseBody, WireError, MAX_FRAME_BYTES,
};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use syncircuit_core::{GenRequest, Generated};

/// A failure on the client side of the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientError {
    /// The socket failed (connect, read, or write).
    Io(String),
    /// A frame violated the protocol — ours according to the server
    /// (which answers with a typed `protocol` frame and hangs up), or
    /// the server's according to us.
    Wire(WireError),
    /// The server answered with a typed serving error.
    Serve(ServeError),
    /// The connection closed before the awaited response arrived.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(msg) => write!(f, "client I/O failed: {msg}"),
            ClientError::Wire(e) => write!(f, "protocol failure: {e}"),
            ClientError::Serve(e) => write!(f, "server error: {e}"),
            ClientError::Disconnected => {
                write!(f, "connection closed before the response arrived")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A blocking connection to a [`crate::NetServer`] (see the module
/// docs).
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
    /// Responses that arrived while waiting for a different id.
    stashed: HashMap<u64, Result<Generated, ClientError>>,
}

impl fmt::Debug for NetClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetClient")
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

impl NetClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            next_id: 1,
            stashed: HashMap::new(),
        })
    }

    /// Bounds every subsequent socket read; a response not arriving in
    /// time surfaces as [`ClientError::Io`] instead of blocking
    /// forever. `None` restores unbounded reads.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the socket rejects the option.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Submits a request without waiting, returning its correlation id
    /// for a later [`NetClient::wait`]. Submit any number before
    /// waiting — the server pipelines the whole batch over this one
    /// connection.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`]/[`ClientError::Wire`] when the frame cannot
    /// be written.
    pub fn submit(
        &mut self,
        tenant: &str,
        artifact: &str,
        request: GenRequest,
    ) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = encode_request(&RequestFrame {
            id,
            tenant: tenant.to_string(),
            artifact: artifact.to_string(),
            request,
        });
        write_frame(&mut self.stream, &payload, MAX_FRAME_BYTES)?;
        Ok(id)
    }

    /// Blocks until the response with correlation id `id` arrives and
    /// returns its outcome. Responses for *other* pending ids that
    /// arrive meanwhile are stashed for their own `wait` calls, so
    /// waits may happen in any order.
    ///
    /// # Errors
    ///
    /// - [`ClientError::Serve`] — the server answered with a typed
    ///   serving error.
    /// - [`ClientError::Wire`] — a protocol failure on either side.
    /// - [`ClientError::Disconnected`] — the server hung up first.
    /// - [`ClientError::Io`] — the socket failed (or timed out, under
    ///   [`NetClient::set_read_timeout`]).
    pub fn wait(&mut self, id: u64) -> Result<Generated, ClientError> {
        loop {
            if let Some(outcome) = self.stashed.remove(&id) {
                return outcome;
            }
            let payload = match read_frame(&mut self.stream, MAX_FRAME_BYTES) {
                Ok(Some(payload)) => payload,
                Ok(None) => return Err(ClientError::Disconnected),
                Err(WireError::Io(msg)) => return Err(ClientError::Io(msg)),
                Err(e) => return Err(ClientError::Wire(e)),
            };
            let frame = crate::wire::decode_response(&payload)?;
            let outcome = match frame.body {
                ResponseBody::Ok(design) => Ok(*design),
                ResponseBody::Err(e) => Err(ClientError::Serve(e)),
                // A protocol frame is addressed to the whole
                // connection (the server closes after it): surface it
                // to whoever is waiting, regardless of id.
                ResponseBody::Protocol(e) => return Err(ClientError::Wire(e)),
            };
            if frame.id == id {
                return outcome;
            }
            self.stashed.insert(frame.id, outcome);
        }
    }

    /// Submit + wait in one step.
    ///
    /// # Errors
    ///
    /// As [`NetClient::submit`] and [`NetClient::wait`].
    pub fn call(
        &mut self,
        tenant: &str,
        artifact: &str,
        request: GenRequest,
    ) -> Result<Generated, ClientError> {
        let id = self.submit(tenant, artifact, request)?;
        self.wait(id)
    }
}
