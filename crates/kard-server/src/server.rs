//! The server front end: listeners, connection threads, shard routing,
//! `/statsz`, and graceful drain.
//!
//! Threading model: one acceptor thread per listener, blocked in
//! `accept` (no poll: a connection is served the moment it arrives), one
//! reader thread plus one writer thread per connection, one shard thread
//! per shard. The accept and reader loops never block on a shard —
//! events either fit the session's queue budget and are enqueued, or are
//! dropped and counted (fail-open). Both hand-offs are `std::sync::mpsc`
//! channels: a reader's send to its shard never blocks, and the only
//! blocking edge is the writer's receive from its session's response
//! channel, which it stops reading after `Bye`. Shutdown is one
//! [`Work::Close`] per shard, then one connection to each listener's own
//! address, which wakes its acceptor to see the switch and exit (it drops
//! that connection, and any other that arrives after shutdown); a send
//! after the shard has exited fails and is counted (a batch as dropped,
//! an `Attach` answered "server is draining"), never lost silently. After
//! `Bye` the writer ends the stream and waits up to [`LINGER`] while the
//! reader drains what the client still sends, so the close never resets
//! the connection under its last lines. A connection thread that has
//! ended is joined at the next accept (the rest in [`Server::join`]), so
//! the server holds thread handles, and their stacks, for live
//! connections only.

use crate::proto::{
    parse_request, response_line, Request, Response, ShardStatsz, Statsz,
};
use crate::shard::{SessionHandle, ShardEngine, ShardShared, Work};
use crate::sock::Sock;
use kard_core::{KardConfig, KeyCachePolicy, KeyMode};
use kard_rt::Rejection;
use kard_telemetry::{merged_summary, Telemetry};
use kard_trace::wire::{read_frame, WireError};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection's writer waits, after ending the stream, for the
/// client to close its side before shutting the socket down.
const LINGER: Duration = Duration::from_millis(250);

/// Everything tunable about a server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Number of detector shards (one OS thread + one detector each).
    pub shards: usize,
    /// Per-session ingest budget, in events. A batch that would push the
    /// session past this bound is dropped whole and counted.
    pub queue_bound: usize,
    /// Per-session cap on logical threads.
    pub max_session_threads: usize,
    /// Evict sessions idle this long (`None` disables eviction).
    pub idle_timeout: Option<Duration>,
    /// Artificial per-event apply cost, for overload tests and benches
    /// (`Duration::ZERO` disables it).
    pub apply_throttle: Duration,
    /// Detector configuration for every shard. Defaults to the paper
    /// configuration with virtualized keys, so detection quality does
    /// not depend on how many sessions share a shard's key pool.
    pub detector: KardConfig,
    /// Enable fault-path telemetry. It fills the cycle histograms that
    /// `/statsz` summarises and production mode steers on, and it also
    /// records every session thread's event ring (1.25 MiB each), which
    /// nothing on the server reads or frees. Forced on when `detector`
    /// runs in production mode ([`KardConfig::production`]).
    pub telemetry: bool,
    /// TCP listen address (`None` disables TCP). Use port 0 to let the
    /// OS pick; [`Server::tcp_addr`] reports the bound address.
    pub tcp: Option<String>,
    /// Unix socket path (`None` disables the Unix listener). A stale
    /// socket file at the path is removed at startup.
    pub unix: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 4,
            queue_bound: 16_384,
            max_session_threads: 64,
            idle_timeout: Some(Duration::from_secs(60)),
            apply_throttle: Duration::ZERO,
            detector: KardConfig {
                keys: KeyMode::Virtual(KeyCachePolicy::Lru),
                ..KardConfig::paper()
            },
            telemetry: false,
            tcp: Some("127.0.0.1:0".to_string()),
            unix: None,
        }
    }
}

/// The session shard a client name routes to: `hash(name) % shards`.
/// `DefaultHasher::new()` is keyed with fixed constants, so routing is
/// stable across processes and the tests can place sessions on chosen
/// shards.
#[must_use]
pub fn shard_for(client: &str, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    client.hash(&mut h);
    (h.finish() % shards.max(1) as u64) as usize
}

struct ServerInner {
    config: ServerConfig,
    shards: Vec<Arc<ShardShared>>,
    telemetry: Vec<Arc<Telemetry>>,
    /// Per-shard detector handles, kept so `/statsz` can read the
    /// production-mode controller counters without disturbing the shard.
    detectors: Vec<Arc<kard_core::Kard>>,
    shutdown: AtomicBool,
    next_serial: AtomicU64,
    sessions_total: AtomicU64,
    protocol_errors: AtomicU64,
    /// The bound TCP address, when TCP is enabled.
    tcp_addr: Option<SocketAddr>,
    /// The bound Unix socket path, when the Unix listener is enabled.
    unix_path: Option<PathBuf>,
}

impl ServerInner {
    /// Flip the shutdown switch once: every shard gets [`Work::Close`]
    /// (drain-then-exit), readers drop late events, and each acceptor,
    /// blocked in `accept`, is woken by a connection to its own listener
    /// and exits.
    fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            for shard in &self.shards {
                shard.send(Work::Close);
            }
            if let Some(addr) = self.tcp_addr {
                let _ = TcpStream::connect(addr);
            }
            if let Some(path) = &self.unix_path {
                let _ = UnixStream::connect(path);
            }
        }
    }

    fn statsz(&self) -> Statsz {
        let mut out = Statsz {
            sessions_total: self.sessions_total.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            // Merge the per-shard histograms first, then take quantiles:
            // averaging per-shard p99s would manufacture a global "p99"
            // that is not the p99 of anything.
            ingest_latency_ns: merged_summary(
                self.shards.iter().map(|shard| &shard.ingest_latency),
            ),
            ..Statsz::default()
        };
        for (i, shard) in self.shards.iter().enumerate() {
            let hists = self.telemetry[i].histograms();
            let by_reason: BTreeMap<String, u64> = Rejection::ALL
                .iter()
                .zip(&shard.rejected)
                .map(|(why, n)| (why.name().to_string(), n.load(Ordering::Relaxed)))
                .filter(|&(_, n)| n > 0)
                .collect();
            let block = ShardStatsz {
                shard: i,
                active_sessions: shard.active_sessions.load(Ordering::Relaxed),
                threads_live: self.detectors[i].machine().live_threads(),
                threads_registered: self.detectors[i].machine().thread_count(),
                queue_depth: shard.queue_depth.load(Ordering::Relaxed),
                applied: shard.applied.load(Ordering::Relaxed),
                dropped: shard.dropped.load(Ordering::Relaxed),
                rejected: by_reason.values().sum(),
                rejected_by_reason: by_reason,
                races: shard.races.load(Ordering::Relaxed),
                evictions: shard.evictions.load(Ordering::Relaxed),
                ingest_latency_ns: shard.ingest_latency.summary(),
                fault_delay_cycles: hists.fault_delay.summary(),
                section_hold_cycles: hists.section_hold.summary(),
                detector: self.detectors[i].snapshot(),
            };
            out.active_sessions += block.active_sessions;
            out.applied += block.applied;
            out.dropped += block.dropped;
            out.rejected += block.rejected;
            for (why, n) in &block.rejected_by_reason {
                *out.rejected_by_reason.entry(why.clone()).or_default() += n;
            }
            out.races += block.races;
            out.shards.push(block);
        }
        out
    }
}

/// A running firehose server. Dropping the handle does **not** stop the
/// server; call [`Server::shutdown`] (or send a [`Request::Shutdown`])
/// and then [`Server::join`].
pub struct Server {
    inner: Arc<ServerInner>,
    threads: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind the configured listeners, spawn the shard threads, and start
    /// accepting sessions.
    ///
    /// # Errors
    ///
    /// Returns the bind error when a listener address is unusable.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let tcp = config.tcp.as_ref().map(TcpListener::bind).transpose()?;
        let tcp_addr = tcp.as_ref().map(TcpListener::local_addr).transpose()?;
        let unix_path = config.unix.clone();
        let unix = match &unix_path {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Some(UnixListener::bind(path)?)
            }
            None => None,
        };
        let mut shards = Vec::new();
        let mut telemetry = Vec::new();
        let mut detectors = Vec::new();
        let mut threads = Vec::new();
        for _ in 0..config.shards.max(1) {
            let rt = kard_rt::Session::builder()
                .config(config.detector)
                .telemetry(config.telemetry)
                .build();
            telemetry.push(Arc::clone(rt.telemetry()));
            detectors.push(Arc::clone(rt.kard()));
            let engine = ShardEngine::new(rt, config.clone());
            shards.push(Arc::clone(&engine.shared));
            threads.push(std::thread::spawn(move || engine.run()));
        }
        let inner = Arc::new(ServerInner {
            config,
            shards,
            telemetry,
            detectors,
            shutdown: AtomicBool::new(false),
            next_serial: AtomicU64::new(1),
            sessions_total: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            tcp_addr,
            unix_path,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        if let Some(listener) = tcp {
            let inner2 = Arc::clone(&inner);
            let conns2 = Arc::clone(&conns);
            threads.push(std::thread::spawn(move || {
                accept_loop(&inner2, &conns2, || {
                    listener.accept().map(|(s, _)| {
                        let _ = s.set_nodelay(true);
                        Sock::Tcp(s)
                    })
                });
            }));
        }
        if let Some(listener) = unix {
            let inner2 = Arc::clone(&inner);
            let conns2 = Arc::clone(&conns);
            threads.push(std::thread::spawn(move || {
                accept_loop(&inner2, &conns2, || {
                    listener.accept().map(|(s, _)| Sock::Unix(s))
                });
            }));
        }

        Ok(Server {
            inner,
            threads,
            conns,
        })
    }

    /// The bound TCP address, when TCP is enabled.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.inner.tcp_addr
    }

    /// The bound Unix socket path, when the Unix listener is enabled.
    #[must_use]
    pub fn unix_path(&self) -> Option<&Path> {
        self.inner.unix_path.as_deref()
    }

    /// A `/statsz` snapshot, taken without disturbing the shards.
    #[must_use]
    pub fn statsz(&self) -> Statsz {
        self.inner.statsz()
    }

    /// A detachable stats handle, usable from other threads while
    /// [`Server::join`] consumes the server itself.
    #[must_use]
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Connection threads not yet joined: the live connections plus any
    /// that ended since the last accept (test hook).
    #[doc(hidden)]
    #[must_use]
    pub fn connection_threads(&self) -> usize {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Begin graceful drain: stop accepting, close every shard, flush
    /// and end every session. Equivalent to a client sending
    /// [`Request::Shutdown`].
    pub fn shutdown(&self) {
        self.inner.trigger_shutdown();
    }

    /// Wait for the drain to finish: blocks until shutdown is triggered
    /// (by [`Server::shutdown`] or a client), then joins every shard,
    /// acceptor, and connection thread.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        // Acceptors are down; no new connection threads can appear.
        let pending =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for t in pending {
            let _ = t.join();
        }
        if let Some(path) = &self.inner.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A cloneable view of a running server's counters: `/statsz` snapshots
/// and the drain switch, without ownership of the server.
#[derive(Clone)]
pub struct StatsHandle {
    inner: Arc<ServerInner>,
}

impl StatsHandle {
    /// A `/statsz` snapshot.
    #[must_use]
    pub fn statsz(&self) -> Statsz {
        self.inner.statsz()
    }

    /// True once the server has begun draining.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }
}

/// Accept on one listener until shutdown, spawning a connection thread
/// per accepted socket. The thread blocks in `accept`; shutdown wakes it
/// with a connection of its own, which, like any connection accepted
/// after the switch, is dropped unserved.
fn accept_loop<F>(inner: &Arc<ServerInner>, conns: &Arc<Mutex<Vec<JoinHandle<()>>>>, mut accept: F)
where
    F: FnMut() -> io::Result<Sock>,
{
    while !inner.shutdown.load(Ordering::SeqCst) {
        match accept() {
            Ok(_) if inner.shutdown.load(Ordering::SeqCst) => break,
            Ok(sock) => {
                let inner2 = Arc::clone(inner);
                let handle = std::thread::spawn(move || serve_connection(&inner2, sock));
                // The registry is a whole list after every update, so a
                // lock poisoned by a panic elsewhere still guards it.
                let mut conns = conns.lock().unwrap_or_else(PoisonError::into_inner);
                // Join the connections that ended since the last accept: a
                // finished thread keeps its stack mapped until it is joined,
                // so the registry must track live connections, not every
                // connection the server ever served.
                let (done, mut live): (Vec<_>, Vec<_>) =
                    conns.drain(..).partition(JoinHandle::is_finished);
                for t in done {
                    let _ = t.join();
                }
                live.push(handle);
                *conns = live;
            }
            // A failing accept (`EMFILE` when the process is out of
            // descriptors, say) fails again at once until a connection
            // closes: back off rather than spin on it.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Write one response line straight to a socket (pre-session errors
/// only; everything after Hello goes through the session's writer).
fn write_direct(sock: &Sock, response: &Response) {
    if let Ok(mut w) = sock.try_clone() {
        let mut line = response_line(response);
        line.push('\n');
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}

/// The reader side of one connection: frames in, work items out.
fn serve_connection(inner: &Arc<ServerInner>, sock: Sock) {
    let Ok(read_half) = sock.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);

    // The first frame must be Hello; anything else is a protocol error.
    let client = match read_frame(&mut reader) {
        Ok(Some(payload)) => match parse_request(&payload) {
            Ok(Request::Hello { client }) => client,
            Ok(Request::Shutdown) => {
                inner.trigger_shutdown();
                return;
            }
            Ok(Request::Stats) => {
                write_direct(&sock, &Response::Stats(inner.statsz()));
                return;
            }
            Ok(_) => {
                inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                write_direct(
                    &sock,
                    &Response::Error {
                        message: "expected Hello as the first request".to_string(),
                    },
                );
                return;
            }
            Err(why) => {
                inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                write_direct(&sock, &Response::Error { message: why });
                return;
            }
        },
        Ok(None) | Err(_) => return,
    };

    if inner.shutdown.load(Ordering::SeqCst) {
        write_direct(
            &sock,
            &Response::Error {
                message: "server is draining".to_string(),
            },
        );
        return;
    }

    let serial = inner.next_serial.fetch_add(1, Ordering::Relaxed);
    inner.sessions_total.fetch_add(1, Ordering::Relaxed);
    let shard_index = shard_for(&client, inner.config.shards);
    let shard = Arc::clone(&inner.shards[shard_index]);
    let (handle, responses) = SessionHandle::new(serial);
    let handle = Arc::new(handle);
    handle.send(Response::Hello {
        session: serial,
        shard: shard_index,
    });
    if !shard.send(Work::Attach(Arc::clone(&handle))) {
        // The shard drained and exited between the check above and now.
        write_direct(
            &sock,
            &Response::Error {
                message: "server is draining".to_string(),
            },
        );
        return;
    }

    // The writer owns the socket from here: it writes responses up to and
    // including `Bye`, then drops the channel (so later responses are
    // discarded) and ends the stream. It shuts the read side down only once
    // this reader has drained what the client sent, or after `LINGER`,
    // which is also what unblocks a reader parked in `read_frame`: closing
    // on unread input would reset the connection and could cut `Bye` off.
    let (drained, reader_done) = mpsc::channel::<()>();
    let writer = std::thread::spawn(move || {
        if let Ok(w) = sock.try_clone() {
            let mut w = BufWriter::new(w);
            for response in responses {
                let mut line = response_line(&response);
                line.push('\n');
                if w.write_all(line.as_bytes()).is_err() || w.flush().is_err() {
                    break;
                }
                if matches!(response, Response::Bye(_)) {
                    break;
                }
            }
        }
        sock.shutdown(Shutdown::Write);
        let _ = reader_done.recv_timeout(LINGER);
        sock.shutdown(Shutdown::Both);
    });

    let mut detach_sent = false;
    loop {
        if handle.done.load(Ordering::Acquire) {
            break;
        }
        match read_frame(&mut reader) {
            Ok(Some(payload)) => match parse_request(&payload) {
                Ok(Request::Event(event)) => {
                    enqueue_events(inner, &shard, &handle, vec![event]);
                }
                Ok(Request::Batch(events)) => enqueue_events(inner, &shard, &handle, events),
                // A shard that has exited already ended the session, or
                // never saw its `Attach`: nothing would answer.
                Ok(Request::Flush) => {
                    if !shard.send(Work::Flush { session: serial }) {
                        break;
                    }
                }
                Ok(Request::Stats) => handle.send(Response::Stats(inner.statsz())),
                Ok(Request::Bye) => {
                    shard.send(Work::Detach { session: serial });
                    detach_sent = true;
                    break;
                }
                Ok(Request::Shutdown) => inner.trigger_shutdown(),
                Ok(Request::Hello { .. }) => {
                    inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    handle.send(Response::Error {
                        message: "session already established".to_string(),
                    });
                    break;
                }
                Err(why) => {
                    inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    handle.send(Response::Error { message: why });
                    break;
                }
            },
            Ok(None) => break,
            Err(WireError::Oversize { len }) => {
                inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                handle.send(Response::Error {
                    message: format!("frame of {len} bytes exceeds the frame limit"),
                });
                break;
            }
            Err(_) => break,
        }
    }
    if !detach_sent && !handle.done.load(Ordering::Acquire) {
        shard.send(Work::Detach { session: serial });
    }
    // A shard that exited before ending this session holds no sender of
    // its responses; dropping ours then ends the writer.
    drop(handle);
    let _ = io::copy(&mut reader, &mut io::sink());
    drop(drained);
    let _ = writer.join();
}

/// Enqueue a batch within the session's queue budget, or drop it whole
/// and count it (fail-open — the reader never blocks on a full shard, and
/// a shard that has exited drops the batch the same way).
fn enqueue_events(
    inner: &Arc<ServerInner>,
    shard: &Arc<ShardShared>,
    handle: &Arc<SessionHandle>,
    events: Vec<kard_trace::Event>,
) {
    let n = events.len() as u64;
    if n == 0 {
        return;
    }
    let fits = !inner.shutdown.load(Ordering::SeqCst)
        && !handle.done.load(Ordering::Acquire)
        && handle.queued.load(Ordering::Relaxed) + n <= inner.config.queue_bound as u64;
    if fits {
        handle.queued.fetch_add(n, Ordering::Relaxed);
        shard.queue_depth.fetch_add(n, Ordering::Relaxed);
        let work = Work::Events {
            session: handle.serial,
            events,
            enqueued: Instant::now(),
        };
        if shard.send(work) {
            return;
        }
        // The shard has exited: the batch is dropped like any other.
        handle.queued.fetch_sub(n, Ordering::Relaxed);
        shard.queue_depth.fetch_sub(n, Ordering::Relaxed);
    }
    handle.dropped.fetch_add(n, Ordering::Relaxed);
    shard.dropped.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kard_trace::{Event, Op};

    #[test]
    fn a_batch_sent_to_an_exited_shard_is_counted_dropped() {
        let (sender, receiver) = mpsc::channel();
        drop(receiver);
        let shard = Arc::new(ShardShared::new(sender));
        let inner = Arc::new(ServerInner {
            config: ServerConfig::default(),
            shards: vec![Arc::clone(&shard)],
            telemetry: Vec::new(),
            detectors: Vec::new(),
            shutdown: AtomicBool::new(false),
            next_serial: AtomicU64::new(1),
            sessions_total: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            tcp_addr: None,
            unix_path: None,
        });
        let handle = Arc::new(SessionHandle::new(1).0);
        let batch = vec![Event { thread: 0, op: Op::Compute { cycles: 1 } }; 3];
        for _ in 0..2 {
            enqueue_events(&inner, &shard, &handle, batch.clone());
        }
        assert_eq!(handle.dropped.load(Ordering::Relaxed), 6);
        assert_eq!(shard.dropped.load(Ordering::Relaxed), 6);
        assert_eq!(handle.queued.load(Ordering::Relaxed), 0);
        assert_eq!(shard.queue_depth.load(Ordering::Relaxed), 0);
    }
}
