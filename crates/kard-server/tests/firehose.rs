//! End-to-end tests of the firehose server over real sockets.

use kard_server::proto::{parse_response, request_payload};
use kard_server::{shard_for, FirehoseClient, Request, Response, Server, ServerConfig};
use kard_sim::CodeSite;
use kard_trace::wire::write_frame;
use kard_trace::{Event, ObjectTag, Op};
use kard_workloads::storm::{self, StormConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn start(config: ServerConfig) -> Server {
    Server::start(config).expect("server starts")
}

fn racy_storm() -> StormConfig {
    StormConfig {
        racy_sessions: 1,
        ..StormConfig::default()
    }
}

/// Replay one storm session through a connected client, flushing after
/// every burst, and return the final summary.
fn play(
    client: &mut FirehoseClient,
    session: &storm::StormSession,
) -> kard_server::SessionSummary {
    for burst in &session.bursts {
        client.send_batch(burst).expect("batch sends");
    }
    client.flush().expect("flush answers")
}

#[test]
fn racy_session_reports_in_client_vocabulary() {
    let server = start(ServerConfig::default());
    let addr = server.tcp_addr().unwrap();
    let session = storm::session(&racy_storm(), 0);

    let mut client = FirehoseClient::connect(addr, &session.name).unwrap();
    let summary = play(&mut client, &session);
    assert_eq!(summary.applied, session.total_events() as u64);
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.rejected, 0);
    assert_eq!(summary.races, 1);

    let races = client.races();
    assert_eq!(races.len(), 1);
    let race = &races[0];
    // The report speaks the client's vocabulary: the storm's shared
    // object tag (threads * objects_per_thread) and the storm's own lock
    // sites, not the server's namespaced ids.
    assert_eq!(race.object, 8, "shared object tag");
    for side in [&race.faulting, &race.holding] {
        assert!(side.thread < 2, "client thread index: {}", side.thread);
        let section = side.section.expect("both sides are locked");
        assert!(
            section == 0xaaa0 || section == 0xbbb0,
            "client lock site: {section:#x}"
        );
    }
    assert_ne!(race.faulting.section, race.holding.section);

    let final_summary = client.bye().unwrap();
    assert_eq!(final_summary.races, 1);
    assert!(!final_summary.evicted);
    server.shutdown();
    server.join();
}

#[test]
fn identical_traffic_yields_byte_identical_reports() {
    // Two servers, one busy with extra sessions — the observed session's
    // report lines must match byte for byte.
    let cfg = StormConfig {
        sessions: 3,
        racy_sessions: 3,
        ..StormConfig::default()
    };
    let sessions = storm::sessions(&cfg);
    let observed = &sessions[0];

    let mut runs = Vec::new();
    for busy in [false, true] {
        let server = start(ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        });
        let addr = server.tcp_addr().unwrap();
        if busy {
            for other in &sessions[1..] {
                let mut c = FirehoseClient::connect(addr, &other.name).unwrap();
                play(&mut c, other);
                c.bye().unwrap();
            }
        }
        let mut client = FirehoseClient::connect(addr, &observed.name).unwrap();
        let summary = play(&mut client, observed);
        assert_eq!(summary.races, 1);
        runs.push(client.race_lines().to_vec());
        client.bye().unwrap();
        server.shutdown();
        server.join();
    }
    assert_eq!(runs[0], runs[1], "report lines must not depend on load");
}

#[test]
fn invalid_events_are_rejected_never_fatal() {
    // One shard, so the bystander session shares the hostile one's.
    let server = start(ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    });
    let addr = server.tcp_addr().unwrap();
    let mut client = FirehoseClient::connect(addr, "hostile").unwrap();

    let bad = vec![
        // Access to a tag that was never allocated.
        Event { thread: 0, op: Op::Write { tag: ObjectTag(9), offset: 0, ip: CodeSite(1) } },
        // Unlock of a lock that is not held.
        Event { thread: 0, op: Op::Unlock { lock: kard_core::LockId(5) } },
        // Allocation far beyond the per-session memory cap.
        Event { thread: 0, op: Op::Alloc { tag: ObjectTag(1), size: u64::MAX / 2 } },
        // Zero-size allocation.
        Event { thread: 0, op: Op::Alloc { tag: ObjectTag(2), size: 0 } },
        // Free of an unknown tag.
        Event { thread: 0, op: Op::Free { tag: ObjectTag(3) } },
    ];
    client.send_batch(&bad).unwrap();
    let summary = client.flush().unwrap();
    assert_eq!(summary.rejected, bad.len() as u64);
    assert_eq!(summary.applied, 0);

    // Inputs that once killed the shard: a free of a global, and an
    // unlock of a lock that is held but not innermost. The global then
    // stays live until `Bye`, which must not free it either.
    let (global, outer, inner) = (ObjectTag(7), kard_core::LockId(1), kard_core::LockId(2));
    client
        .send_batch(&[
            Event { thread: 0, op: Op::Global { tag: global, size: 8 } },
            Event { thread: 0, op: Op::Free { tag: global } },
            Event { thread: 0, op: Op::Lock { lock: outer, site: CodeSite(0xa) } },
            Event { thread: 0, op: Op::Lock { lock: inner, site: CodeSite(0xb) } },
            Event { thread: 0, op: Op::Unlock { lock: outer } },
        ])
        .unwrap();
    let summary = client.flush().unwrap();
    assert_eq!(summary.rejected, bad.len() as u64 + 2);
    assert_eq!(summary.applied, 3);

    // A second session on the same shard is still answered.
    let mut bystander = FirehoseClient::connect(addr, "bystander").unwrap();
    assert_eq!(bystander.shard(), client.shard());
    let alloc = |tag| Event { thread: 0, op: Op::Alloc { tag: ObjectTag(tag), size: 64 } };
    bystander.send_batch(&[alloc(1)]).unwrap();
    assert_eq!(bystander.flush().unwrap().applied, 1);

    // The session still works after every rejection, and ends cleanly
    // with its global live and both locks held.
    client
        .send_batch(&[
            alloc(1),
            Event { thread: 0, op: Op::Write { tag: ObjectTag(1), offset: 0, ip: CodeSite(2) } },
        ])
        .unwrap();
    let summary = client.bye().unwrap();
    assert_eq!(summary.applied, 5);
    assert_eq!(summary.rejected, bad.len() as u64 + 2);

    bystander.send_batch(&[alloc(2)]).unwrap();
    assert_eq!(bystander.flush().unwrap().applied, 2);
    assert_eq!(bystander.bye().unwrap().rejected, 0);
    server.shutdown();
    server.join();
}

/// A report the client already holds is retracted (§5.5 offset pruning)
/// before the next one is made. The client is told: one `Retracted` for
/// it, and the session's race count drops to the reports still standing.
/// The delivery cursor must not move with the retraction: the later
/// report still arrives, exactly once.
#[test]
fn report_after_a_retracted_delivered_report_still_arrives() {
    let server = start(ServerConfig::default());
    let addr = server.tcp_addr().unwrap();
    let mut client = FirehoseClient::connect(addr, "retraction").unwrap();
    let (x, y) = (ObjectTag(1), ObjectTag(2));
    let lock = |thread, id, site| Event {
        thread,
        op: Op::Lock { lock: kard_core::LockId(id), site: CodeSite(site) },
    };
    let unlock = |thread, id| Event { thread, op: Op::Unlock { lock: kard_core::LockId(id) } };
    let write = |thread, tag, offset| Event {
        thread,
        op: Op::Write { tag, offset, ip: CodeSite(0x100 + offset) },
    };

    // Both threads write X under different locks, at different offsets:
    // a candidate race, delivered by the flush.
    client
        .send_batch(&[
            Event { thread: 0, op: Op::Alloc { tag: x, size: 128 } },
            Event { thread: 0, op: Op::Alloc { tag: y, size: 128 } },
            lock(0, 1, 0xa),
            write(0, x, 0),
            lock(1, 2, 0xb),
            write(1, x, 64),
        ])
        .unwrap();
    assert_eq!(client.flush().unwrap().races, 1);

    // Thread 0's counterpart fault shows the offsets differ: the record
    // is retracted. Then a confirmed race on Y (same offset).
    client
        .send_batch(&[
            write(0, x, 0),
            unlock(0, 1),
            unlock(1, 2),
            lock(0, 3, 0xc),
            write(0, y, 8),
            lock(1, 4, 0xd),
            write(1, y, 8),
            write(0, y, 8),
            unlock(0, 3),
            unlock(1, 4),
        ])
        .unwrap();
    let summary = client.flush().unwrap();
    assert_eq!(summary.applied, 16);
    let shard = &client.stats().unwrap().shards[client.shard()];
    assert_eq!(shard.detector.detector.races_pruned_offset, 1, "X was retracted");
    assert_eq!(shard.detector.detector.races_reported, 1, "only Y survives");

    let objects: Vec<u64> = client.races().iter().map(|r| r.object).collect();
    assert_eq!(objects, [x.0, y.0], "X (delivered before its retraction), then Y");
    assert_eq!(client.race_lines().len(), 2, "race lines stay verbatim");
    assert_eq!(client.retractions(), &client.races()[..1], "X is withdrawn");
    assert_eq!(summary.races, 1);
    assert_eq!(client.stats().unwrap().shards[client.shard()].races, 1);
    assert_eq!(client.bye().unwrap().races, 1);
    server.shutdown();
    server.join();
}

/// Thread ids are never reused, so a shard's one long-lived detector runs
/// out of them after `THREAD_CAPACITY` registrations. That must end in
/// counted rejections, not a shard panic: the sessions already attached
/// keep being served on the threads they have.
#[test]
fn thread_capacity_exhaustion_is_rejected_never_fatal() {
    let server = start(ServerConfig {
        shards: 1,
        max_session_threads: usize::MAX,
        ..ServerConfig::default()
    });
    let addr = server.tcp_addr().unwrap();
    let write = |thread| Event { thread, op: Op::Write { tag: ObjectTag(1), offset: 0, ip: CodeSite(2) } };

    let mut resident = FirehoseClient::connect(addr, "resident").unwrap();
    resident
        .send_batch(&[Event { thread: 0, op: Op::Alloc { tag: ObjectTag(1), size: 64 } }])
        .unwrap();
    assert_eq!(resident.flush().unwrap().applied, 1);

    // One client registers every thread id the shard has left, and 50
    // more (standing in for ~2,048 well-behaved two-thread sessions).
    let mut hog = FirehoseClient::connect(addr, "hog").unwrap();
    let left = kard_sim::THREAD_CAPACITY - 1;
    let asked: Vec<Event> = (0..left + 50)
        .map(|thread| Event { thread, op: Op::Compute { cycles: 1 } })
        .collect();
    for chunk in asked.chunks(1024) {
        hog.send_batch(chunk).unwrap();
    }
    let summary = hog.flush().unwrap();
    assert_eq!(summary.applied, left as u64);
    assert_eq!(summary.rejected, 50);

    // The shard is alive: the resident session's registered thread still
    // applies, and a thread it has not registered is one more rejection.
    resident.send_batch(&[write(0), write(1)]).unwrap();
    let summary = resident.flush().unwrap();
    assert_eq!((summary.applied, summary.rejected), (2, 1));
    let stats = resident.stats().unwrap();
    assert_eq!(stats.shards[0].rejected, 51, "/statsz counts every rejection");
    assert_eq!(stats.shards[0].active_sessions, 2);

    hog.bye().unwrap();
    resident.bye().unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn out_of_bounds_offsets_are_rejected() {
    let server = start(ServerConfig::default());
    let addr = server.tcp_addr().unwrap();
    let mut client = FirehoseClient::connect(addr, "bounds").unwrap();
    client
        .send_batch(&[
            Event { thread: 0, op: Op::Alloc { tag: ObjectTag(1), size: 64 } },
            Event { thread: 0, op: Op::Read { tag: ObjectTag(1), offset: 1 << 40, ip: CodeSite(3) } },
        ])
        .unwrap();
    let summary = client.bye().unwrap();
    assert_eq!(summary.applied, 1);
    assert_eq!(summary.rejected, 1);
    server.shutdown();
    server.join();
}

#[test]
fn malformed_frames_end_the_connection_with_an_error() {
    let server = start(ServerConfig::default());
    let addr = server.tcp_addr().unwrap();

    let mut client = FirehoseClient::connect(addr, "soon-broken").unwrap();
    client.send_payload("this is not json").unwrap();
    // The server answers Error and closes; the next blocking read sees it.
    let err = client.flush().unwrap_err();
    assert!(
        err.kind() == std::io::ErrorKind::InvalidData
            || err.kind() == std::io::ErrorKind::UnexpectedEof
            || err.kind() == std::io::ErrorKind::BrokenPipe,
        "unexpected error kind: {err:?}"
    );

    // The server itself is unharmed and counted the violation.
    let mut probe = FirehoseClient::connect(addr, "probe").unwrap();
    let stats = probe.stats().unwrap();
    assert_eq!(stats.protocol_errors, 1);
    probe.bye().unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn idle_sessions_are_evicted_with_reports_flushed() {
    let server = start(ServerConfig {
        idle_timeout: Some(Duration::from_millis(120)),
        ..ServerConfig::default()
    });
    let addr = server.tcp_addr().unwrap();
    let session = storm::session(&racy_storm(), 0);
    let mut client = FirehoseClient::connect(addr, &session.name).unwrap();
    for burst in &session.bursts {
        client.send_batch(burst).unwrap();
    }
    // No Flush, no Bye: the eviction must deliver the pending report.
    let summary = client.wait_bye().expect("server ends the idle session");
    assert!(summary.evicted);
    assert_eq!(summary.applied, session.total_events() as u64);
    assert_eq!(summary.races, 1);
    assert_eq!(client.races().len(), 1);

    let mut probe = FirehoseClient::connect(addr, "probe").unwrap();
    let stats = probe.stats().unwrap();
    let evictions: u64 = stats.shards.iter().map(|s| s.evictions).sum();
    assert_eq!(evictions, 1);
    probe.bye().unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn unix_socket_transport_works() {
    let path = std::env::temp_dir().join(format!("kard-firehose-test-{}.sock", std::process::id()));
    let server = start(ServerConfig {
        tcp: None,
        unix: Some(path.clone()),
        ..ServerConfig::default()
    });
    assert_eq!(server.unix_path(), Some(path.as_path()));
    let session = storm::session(&racy_storm(), 0);
    let mut client = FirehoseClient::connect_unix(&path, &session.name).unwrap();
    let summary = play(&mut client, &session);
    assert_eq!(summary.races, 1);
    client.bye().unwrap();
    server.shutdown();
    server.join();
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// Every response line a raw connection receives until the server closes
/// it. A reset after the server's close counts as the end of the stream.
fn read_to_eof(stream: &TcpStream) -> Vec<Response> {
    let mut lines = Vec::new();
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return lines,
            Ok(_) => lines.push(parse_response(&line).expect("a response line")),
        }
    }
}

fn frame(request: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, request_payload(request).as_bytes()).unwrap();
    buf
}

/// `Bye` is the last line of a session: a `Stats` answer produced after
/// the shard ended the session is discarded, not written behind it.
#[test]
fn nothing_follows_bye_on_the_wire() {
    let server = start(ServerConfig {
        idle_timeout: Some(Duration::from_millis(60)),
        ..ServerConfig::default()
    });
    let addr = server.tcp_addr().unwrap();

    // Evicted while its client keeps asking for `Stats`, which the reader
    // answers without touching the shard, so the session stays idle.
    let evicted = TcpStream::connect(addr).unwrap();
    let mut w = evicted.try_clone().unwrap();
    w.write_all(&frame(&Request::Hello { client: "evicted".into() })).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let pester = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) && w.write_all(&frame(&Request::Stats)).is_ok() {
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let lines = read_to_eof(&evicted);
    stop.store(true, Ordering::Relaxed);
    pester.join().unwrap();
    assert!(matches!(lines.first(), Some(Response::Hello { .. })));
    assert!(lines.iter().any(|r| matches!(r, Response::Stats(_))));
    assert!(
        matches!(lines.last(), Some(Response::Bye(s)) if s.evicted),
        "last line: {:?}",
        lines.last()
    );

    // `Stats`, `Flush` and `Bye` in one write.
    let mut ended = TcpStream::connect(addr).unwrap();
    let mut burst = frame(&Request::Hello { client: "ended".into() });
    for request in [Request::Stats, Request::Flush, Request::Bye] {
        burst.extend(frame(&request));
    }
    ended.write_all(&burst).unwrap();
    let kinds: Vec<&str> = read_to_eof(&ended)
        .iter()
        .map(|r| match r {
            Response::Hello { .. } => "Hello",
            Response::Stats(_) => "Stats",
            Response::Flushed(_) => "Flushed",
            Response::Bye(s) if !s.evicted => "Bye",
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(kinds, ["Hello", "Stats", "Flushed", "Bye"]);
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_queued_work_and_flushes_every_session() {
    let cfg = StormConfig {
        sessions: 4,
        racy_sessions: 4,
        ..StormConfig::default()
    };
    let server = start(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });
    let addr = server.tcp_addr().unwrap();
    let sessions = storm::sessions(&cfg);
    let mut clients = Vec::new();
    for session in &sessions {
        let mut client = FirehoseClient::connect(addr, &session.name).unwrap();
        for burst in &session.bursts {
            client.send_batch(burst).unwrap();
        }
        clients.push(client);
    }
    // An in-order Stats round trip per connection proves every batch
    // frame was consumed (enqueued) before we pull the plug.
    for client in &mut clients {
        client.stats().unwrap();
    }
    clients[0].shutdown_server().unwrap();
    for (client, session) in clients.iter_mut().zip(&sessions) {
        let summary = client.wait_bye().expect("drain delivers Bye");
        assert!(summary.evicted, "server-initiated end");
        assert_eq!(summary.applied, session.total_events() as u64, "{}", session.name);
        assert_eq!(summary.dropped, 0);
        assert_eq!(summary.races, 1, "{}", session.name);
    }
    server.join();
}

#[test]
fn statsz_aggregates_match_session_counters() {
    let server = start(ServerConfig {
        shards: 3,
        ..ServerConfig::default()
    });
    let addr = server.tcp_addr().unwrap();
    let session = storm::session(&StormConfig::default(), 0);
    let mut client = FirehoseClient::connect(addr, &session.name).unwrap();
    assert_eq!(client.shard(), shard_for(&session.name, 3));
    let summary = play(&mut client, &session);

    let stats = client.stats().unwrap();
    assert_eq!(stats.shards.len(), 3);
    assert_eq!(stats.sessions_total, 1);
    assert_eq!(stats.active_sessions, 1);
    assert_eq!(stats.applied, summary.applied);
    let shard = &stats.shards[client.shard()];
    assert_eq!(shard.applied, summary.applied);
    assert!(shard.ingest_latency_ns.count > 0, "latency was recorded");
    assert!(
        !shard.detector.production.enabled,
        "production mode off unless a budget is configured"
    );
    // Satellite: the global ingest-latency block merges the per-shard
    // histograms (count is additive; quantiles come from the merged
    // distribution, never from averaging per-shard percentiles).
    let merged_count: u64 = stats.shards.iter().map(|s| s.ingest_latency_ns.count).sum();
    assert_eq!(stats.ingest_latency_ns.count, merged_count);
    assert!(
        stats
            .shards
            .iter()
            .all(|s| s.ingest_latency_ns.max <= stats.ingest_latency_ns.max),
        "merged max dominates every shard max"
    );
    client.bye().unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn overhead_budget_knob_surfaces_controller_state_in_statsz() {
    // A generous budget (100% of elapsed cycles) never narrows the
    // sample, so detection is untouched — the racy session still reports
    // its race — while `/statsz` exposes the controller's counters.
    let defaults = ServerConfig::default();
    let server = start(ServerConfig {
        detector: kard_core::KardConfig {
            production: Some(kard_core::ProductionConfig {
                overhead_budget: Some(1000),
                ..Default::default()
            }),
            ..defaults.detector
        },
        ..defaults
    });
    let addr = server.tcp_addr().unwrap();
    let session = storm::session(&racy_storm(), 0);
    let mut client = FirehoseClient::connect(addr, &session.name).unwrap();
    let summary = play(&mut client, &session);
    assert_eq!(summary.races, 1, "full-width sampling keeps detection");

    let stats = client.stats().unwrap();
    let shard = &stats.shards[client.shard()];
    let production = &shard.detector.production;
    assert!(production.enabled, "budget knob turns the controller on");
    assert_eq!(production.budget_permille, Some(1000));
    assert!(production.sampled_objects > 0, "decisions were counted");
    assert_eq!(production.skipped_objects, 0, "nothing skipped");
    assert_eq!(
        production.estimated_detection_permille, 1000,
        "estimated detection stays at 100%"
    );
    assert!(
        shard.fault_delay_cycles.count > 0,
        "budget knob forces telemetry on"
    );
    client.bye().unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn ended_connections_are_joined_while_the_server_runs() {
    let server = start(ServerConfig::default());
    let addr = server.tcp_addr().unwrap();
    let session = storm::session(&StormConfig::default(), 0);

    const SESSIONS: usize = 300;
    let mut most = 0;
    for i in 0..SESSIONS {
        let mut client = FirehoseClient::connect(addr, &format!("churn-{i}")).unwrap();
        client.send_batch(&session.bursts[0]).expect("batch sends");
        client.bye().unwrap();
        most = most.max(server.connection_threads());
    }
    // A connection's thread ends a moment after its client's `bye`
    // returns, so a few past sessions may await the next accept — not
    // one per session served.
    assert!(most < SESSIONS / 10, "registry grew to {most} handles");

    // With two connections held open, the registry settles at exactly
    // those two once the last churn thread has ended and one more accept
    // has reaped it.
    let _first = FirehoseClient::connect(addr, "held-1").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let _second = FirehoseClient::connect(addr, "held-2").unwrap();
        if server.connection_threads() <= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{} handles for 2 open connections",
            server.connection_threads()
        );
    }
    server.shutdown();
    server.join();
}

/// Shut `server` down with `stop` and join it, failing if that takes a
/// second: each acceptor sits blocked in `accept`, so the join returns
/// only if shutdown wakes it.
fn stops_within_a_second(server: Server, stop: impl FnOnce(&Server) + Send + 'static) {
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        stop(&server);
        server.join();
        let _ = done.send(());
    });
    assert!(
        stopped.recv_timeout(Duration::from_secs(1)).is_ok(),
        "shutdown and join took over a second"
    );
}

#[test]
fn shutdown_wakes_an_acceptor_no_client_ever_reached() {
    stops_within_a_second(start(ServerConfig::default()), Server::shutdown);

    let path = std::env::temp_dir().join(format!("kard-idle-{}.sock", std::process::id()));
    let both = start(ServerConfig {
        unix: Some(path.clone()),
        ..ServerConfig::default()
    });
    stops_within_a_second(both, Server::shutdown);
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn a_client_shutdown_request_wakes_every_acceptor() {
    let path = std::env::temp_dir().join(format!("kard-asked-{}.sock", std::process::id()));
    let server = start(ServerConfig {
        unix: Some(path.clone()),
        ..ServerConfig::default()
    });
    let addr = server.tcp_addr().unwrap();
    stops_within_a_second(server, move |_| {
        let mut asking = TcpStream::connect(addr).unwrap();
        asking.write_all(&frame(&Request::Shutdown)).unwrap();
        // The server closes the connection once it has acted on it.
        assert!(read_to_eof(&asking).is_empty());
    });
}

/// A session's threads retire when it ends, so a shard's live threads
/// are its attached sessions' and its walks do not grow with its
/// history; its ids are still never reused, and the last of 300 racy
/// sessions reports exactly what the first did.
#[test]
fn a_shard_holds_no_live_thread_of_an_ended_session() {
    let server = start(ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    });
    let addr = server.tcp_addr().unwrap();
    let session = storm::session(&racy_storm(), 0);
    let mut lines = Vec::new();
    for _ in 0..300 {
        let mut client = FirehoseClient::connect(addr, &session.name).unwrap();
        assert_eq!(play(&mut client, &session).races, 1);
        let live = server.statsz().shards[0].threads_live;
        assert_eq!(live, 2, "the attached session's two threads");
        lines.push(client.race_lines().to_vec());
        client.bye().unwrap();
    }
    let shard = &server.statsz().shards[0];
    assert_eq!((shard.threads_live, shard.threads_registered), (0, 600));
    assert_eq!(lines[299], lines[0], "report lines must not depend on history");
    server.shutdown();
    server.join();
}
