//! A small blocking client for the daemon's wire protocol — used by the
//! benchmark ladder, the e2e harness, and anything scripting the daemon.

use everest_evql::wire::{self, Request, Response};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One connection to the daemon: sequential request/response exchanges
/// with auto-assigned request ids.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream, next_id: 1 })
    }

    /// Bounds how long [`Client::read_response`] blocks. `None` waits
    /// forever.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends a request without waiting for its response. Returns the
    /// request id the daemon will echo. A request over
    /// [`wire::MAX_FRAME`] fails here with `InvalidInput`, before any
    /// byte reaches the socket.
    pub fn send(&mut self, mut build: impl FnMut(u64) -> Request) -> io::Result<u64> {
        let id = self.take_id();
        let payload = build(id).encode();
        wire::write_frame(&mut self.stream, &payload, wire::MAX_FRAME)?;
        self.stream.flush()?;
        Ok(id)
    }

    /// Reads the next response frame.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let payload = wire::read_frame(&mut self.stream, wire::MAX_FRAME)?;
        Response::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Executes one EVQL statement and returns the daemon's response.
    pub fn query(&mut self, text: &str) -> io::Result<Response> {
        self.send(|id| Request::Query {
            id,
            text: text.to_string(),
        })?;
        self.read_response()
    }

    /// Runs one admin command (`SHOW SESSIONS`, `RELOAD`, …).
    pub fn admin(&mut self, command: &str) -> io::Result<Response> {
        self.send(|id| Request::Admin {
            id,
            command: command.to_string(),
        })?;
        self.read_response()
    }

    /// Ping/pong with an arbitrary nonce; returns the echoed nonce.
    pub fn ping(&mut self, nonce: Vec<u8>) -> io::Result<Vec<u8>> {
        let sent = self.send(|id| Request::Ping {
            id,
            nonce: nonce.clone(),
        })?;
        match self.read_response()? {
            Response::Pong { id, nonce } if id == sent => Ok(nonce),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected pong for request {sent}, got {other:?}"),
            )),
        }
    }

    /// Writes raw bytes straight onto the socket — for fuzzing the
    /// daemon's frame handling with adversarial input.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Shuts down the write half, signalling EOF to the daemon while
    /// responses can still be read.
    pub fn finish_writing(&self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}
