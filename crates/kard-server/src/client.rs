//! A small blocking client for the firehose protocol.
//!
//! Wraps one socket (TCP or Unix) and the session handshake, collects
//! race report lines and their withdrawals as they arrive, and exposes
//! the request/response pairs (`flush`, `stats`, `bye`) as plain blocking
//! calls. The raw received report lines are kept verbatim so tests can
//! compare runs byte for byte.

use crate::proto::{
    parse_response, request_payload, Request, Response, SessionSummary, Statsz, WireRace,
};
use crate::sock::Sock;
use kard_trace::wire::write_frame;
use kard_trace::Event;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// One client session on a running firehose server.
pub struct FirehoseClient {
    writer: Sock,
    reader: BufReader<Sock>,
    session: u64,
    shard: usize,
    races: Vec<WireRace>,
    race_lines: Vec<String>,
    retractions: Vec<WireRace>,
}

impl FirehoseClient {
    /// Connect over TCP and perform the Hello handshake.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or a rejected handshake.
    pub fn connect(addr: impl ToSocketAddrs, client: &str) -> io::Result<FirehoseClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        FirehoseClient::handshake(Sock::Tcp(stream), client)
    }

    /// Connect over a Unix socket and perform the Hello handshake.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or a rejected handshake.
    pub fn connect_unix(path: impl AsRef<Path>, client: &str) -> io::Result<FirehoseClient> {
        FirehoseClient::handshake(Sock::Unix(UnixStream::connect(path)?), client)
    }

    fn handshake(writer: Sock, client: &str) -> io::Result<FirehoseClient> {
        let mut this = FirehoseClient {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            session: 0,
            shard: 0,
            races: Vec::new(),
            race_lines: Vec::new(),
            retractions: Vec::new(),
        };
        this.send(&Request::Hello {
            client: client.to_string(),
        })?;
        match this.recv()? {
            Response::Hello { session, shard } => {
                this.session = session;
                this.shard = shard;
                Ok(this)
            }
            Response::Error { message } => Err(bad_data(message)),
            other => Err(bad_data(format!("unexpected handshake reply: {other:?}"))),
        }
    }

    /// The server-assigned session serial.
    #[must_use]
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The shard this session routed to.
    #[must_use]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Race reports received so far (in delivery order), including any
    /// the server later withdrew (see [`FirehoseClient::retractions`]).
    #[must_use]
    pub fn races(&self) -> &[WireRace] {
        &self.races
    }

    /// The raw JSON report lines exactly as received, for byte-identical
    /// run comparisons.
    #[must_use]
    pub fn race_lines(&self) -> &[String] {
        &self.race_lines
    }

    /// Delivered reports the server has since withdrawn (§5.5 offset
    /// pruning), in the order the withdrawals arrived.
    #[must_use]
    pub fn retractions(&self) -> &[WireRace] {
        &self.retractions
    }

    /// Send one request frame.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.send_payload(&request_payload(request))
    }

    /// Send a pre-encoded request payload (benchmarks encode each burst
    /// once, outside the timed region).
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn send_payload(&mut self, payload: &str) -> io::Result<()> {
        write_frame(&mut self.writer, payload.as_bytes())
            .map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e.to_string()))?;
        self.writer.flush()
    }

    /// Send a batch of events.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn send_batch(&mut self, events: &[Event]) -> io::Result<()> {
        self.send(&Request::Batch(events.to_vec()))
    }

    fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        parse_response(&line).map_err(bad_data)
    }

    /// Read responses until `want` picks one, collecting race reports
    /// along the way.
    fn recv_until<T>(&mut self, mut want: impl FnMut(Response) -> Option<T>) -> io::Result<T> {
        loop {
            let response = self.recv()?;
            match &response {
                Response::Race(race) => {
                    self.race_lines.push(crate::proto::response_line(&response));
                    self.races.push(race.clone());
                }
                Response::Retracted(race) => self.retractions.push(race.clone()),
                Response::Error { message } => return Err(bad_data(message.clone())),
                _ => {}
            }
            if let Some(out) = want(response) {
                return Ok(out);
            }
        }
    }

    /// Flush the session: apply everything accepted so far and collect
    /// the pending race reports.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and server-reported protocol errors.
    pub fn flush(&mut self) -> io::Result<SessionSummary> {
        self.send(&Request::Flush)?;
        self.recv_until(|r| match r {
            Response::Flushed(summary) => Some(summary),
            _ => None,
        })
    }

    /// Fetch a `/statsz` snapshot.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and server-reported protocol errors.
    pub fn stats(&mut self) -> io::Result<Statsz> {
        self.send(&Request::Stats)?;
        self.recv_until(|r| match r {
            Response::Stats(stats) => Some(stats),
            _ => None,
        })
    }

    /// End the session and collect the final summary.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and server-reported protocol errors.
    pub fn bye(&mut self) -> io::Result<SessionSummary> {
        self.send(&Request::Bye)?;
        self.wait_bye()
    }

    /// Wait for the server to end the session (after a `Bye`, an
    /// eviction, or a server shutdown), collecting reports on the way.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and server-reported protocol errors.
    pub fn wait_bye(&mut self) -> io::Result<SessionSummary> {
        self.recv_until(|r| match r {
            Response::Bye(summary) => Some(summary),
            _ => None,
        })
    }

    /// Ask the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        self.send(&Request::Shutdown)
    }
}
