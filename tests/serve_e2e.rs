//! End-to-end tests for the `everest-serve` daemon: concurrent clients
//! over real TCP against a real worker pool, proving
//!
//! * **byte-identity** — answers served concurrently are canonically
//!   byte-identical to a single-process [`Session`] running the same
//!   EVQL;
//! * **robustness** — adversarial bytes (proptest-generated mutations of
//!   valid frames, raw garbage, oversized length prefixes) are rejected
//!   without killing the daemon, and an answer over the frame cap comes
//!   back as a typed error on a connection that keeps serving;
//! * **graceful shutdown** — under in-flight load, every accepted query
//!   is answered (`ShutdownReport::clean`);
//! * **fault tolerance** — client disconnects mid-query, slow readers
//!   that trip the write timeout, and `RELOAD` racing active sessions
//!   all leave `SHOW SESSIONS` / metrics consistent;
//! * **determinism** — the same concurrent schedule against two fresh
//!   daemons answers every query with the same bytes and leaves identical
//!   deterministic metrics sections.

use everest::evql::wire::{self, Request, Response};
use everest::evql::{Session, SessionSettings};
use everest_serve::{Client, ServeConfig, Server, WALL_CLOCK_MARKER};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The settings every daemon in this file serves with: floor-scaled
/// datasets (2 000 frames each) so queries answer in milliseconds.
fn test_settings() -> SessionSettings {
    SessionSettings {
        scale: 1_000,
        ..SessionSettings::default()
    }
}

fn test_config() -> ServeConfig {
    ServeConfig {
        settings: test_settings(),
        workers: 4,
        ..ServeConfig::default()
    }
}

/// Canonical answer bytes from a local, single-process session — the
/// reference the daemon must match byte for byte.
fn local_canonical(session: &mut Session, query: &str) -> Vec<u8> {
    let output = session
        .execute(query)
        .unwrap_or_else(|e| panic!("{}", e.render(query)));
    wire::canonical_output(&output)
}

/// Polls `cond` for up to 10 s.
#[expect(clippy::disallowed_methods, reason = "test timing")]
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Scan-engine queries: no Phase-1 training, so they answer fast and
/// exercise the full wire/session/pool path.
const SCAN_QUERIES: [&str; 4] = [
    "SELECT TOP 5 FRAMES FROM Archie USING scan",
    "SELECT TOP 10 FRAMES FROM Grand-Canal SCORE count(boat) USING scan",
    "SELECT TOP 3 FRAMES FROM Taipei-bus USING scan",
    "SELECT TOP 2 WINDOWS OF 30 FRAMES FROM Archie USING scan",
];

/// One full Everest-engine query (CMDN + oracle-in-the-loop cleaning),
/// pinned by seed; its Phase-1 build lands in the daemon's shared cache.
const EVEREST_QUERY: &str = "SELECT TOP 5 FRAMES FROM Archie WITH SEED 11";

#[test]
fn concurrent_answers_are_byte_identical_to_a_single_process_session() {
    let mut reference = Session::with_settings(test_settings());
    let mut queries: Vec<&str> = SCAN_QUERIES.to_vec();
    queries.push(EVEREST_QUERY);
    let expected: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| local_canonical(&mut reference, q))
        .collect();

    let first = concurrent_run(&queries, &expected);
    let second = concurrent_run(&queries, &expected);
    assert_eq!(
        first, second,
        "same schedule, fresh daemons, deterministic metrics sections diverged"
    );
}

/// Six rotating clients against a fresh daemon, every answer checked
/// against `expected`: returns the daemon's deterministic metrics
/// section after a full drain.
fn concurrent_run(queries: &[&str], expected: &[Vec<u8>]) -> String {
    let (handle, join) = Server::spawn(test_config()).unwrap();
    let addr = handle.addr();
    let clients = 6;
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let queries: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
            let expected = expected.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Rotate the order per client so the daemon sees the mix
                // interleaved, not in lockstep.
                for i in 0..queries.len() {
                    let idx = (i + c) % queries.len();
                    match client.query(&queries[idx]).unwrap() {
                        Response::Answer {
                            canonical,
                            rendered,
                            ..
                        } => {
                            assert_eq!(
                                canonical, expected[idx],
                                "client {c}: daemon answer for {:?} diverged from the \
                                 single-process session",
                                queries[idx]
                            );
                            assert!(!rendered.is_empty());
                        }
                        other => panic!("expected answer for {:?}, got {other:?}", queries[idx]),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // The Everest query was asked by 6 clients but its Phase-1 build is
    // single-flight: the shared cache saw exactly one miss for its key.
    let stats = handle.cache().stats();
    assert_eq!(
        stats.misses, 1,
        "expected one single-flight build: {stats:?}"
    );
    assert_eq!(stats.hits, (clients - 1) as u64, "{stats:?}");

    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean(), "unclean drain: {report:?}");
    assert_eq!(report.queries_accepted, (clients * queries.len()) as u64);
    handle.metrics().render_deterministic()
}

#[test]
fn k_beyond_the_retained_frames_answers_an_error_and_keeps_the_only_worker() {
    let (handle, join) = Server::spawn(ServeConfig {
        workers: 1,
        ..test_config()
    })
    .unwrap();
    let addr = handle.addr();
    let ask = |query: &str| {
        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        client.query(query).unwrap()
    };
    match ask("SELECT TOP 300 FRAMES FROM Dashcam-California") {
        Response::Error { text, .. } => assert!(text.contains("retains"), "{text}"),
        other => panic!("expected an error, got {other:?}"),
    }
    match ask(SCAN_QUERIES[0]) {
        Response::Answer { .. } => {}
        other => panic!("expected an answer, got {other:?}"),
    }
    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean(), "unclean drain: {report:?}");
}

#[test]
fn protocol_fuzz_rejects_malformed_frames_without_killing_the_daemon() {
    let (handle, join) = Server::spawn(test_config()).unwrap();
    let addr = handle.addr();

    // Proptest-driven byte mutations, generated deterministically: raw
    // garbage, single-byte corruptions of a valid frame, truncations,
    // and adversarial length prefixes.
    let mut rng = TestRng::deterministic("serve_e2e::protocol_fuzz");
    let garbage = proptest::collection::vec(any::<u8>(), 1..200);
    let corrupt_pos = any::<u16>();
    let mode = 0u8..4;
    let valid = frame_of(&Request::Query {
        id: 7,
        text: "SELECT TOP 3 FRAMES FROM Archie USING scan".into(),
    });

    for _ in 0..48 {
        let attack: Vec<u8> = match Strategy::generate(&mode, &mut rng) {
            0 => Strategy::generate(&garbage, &mut rng),
            1 => {
                let mut bytes = valid.clone();
                let pos = Strategy::generate(&corrupt_pos, &mut rng) as usize % bytes.len();
                bytes[pos] ^= 0xff;
                bytes
            }
            2 => {
                let cut =
                    1 + Strategy::generate(&corrupt_pos, &mut rng) as usize % (valid.len() - 1);
                valid[..cut].to_vec()
            }
            _ => {
                // Absurd length prefix, then whatever fits.
                let mut bytes = u32::MAX.to_be_bytes().to_vec();
                bytes.extend_from_slice(&valid);
                bytes
            }
        };
        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.send_raw(&attack).unwrap();
        let _ = client.finish_writing();
        // Drain whatever the daemon says (an error frame, a valid answer
        // if the mutation happened to keep the frame well-formed, or an
        // immediate close) until EOF. The daemon must never hang us past
        // the read timeout.
        loop {
            match client.read_response() {
                Ok(_) => {}
                Err(e) => {
                    assert_ne!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock,
                        "daemon hung on attack bytes {attack:?}"
                    );
                    assert_ne!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut,
                        "daemon hung on attack bytes {attack:?}"
                    );
                    break;
                }
            }
        }
    }

    // The daemon took every attack and still serves clean sessions.
    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(
        client.query(SCAN_QUERIES[0]).unwrap(),
        Response::Answer { .. }
    ));
    let metrics = handle.metrics();
    assert!(
        metrics.protocol_errors.load(Ordering::Relaxed) > 0,
        "the fuzz run should have tripped the protocol-error counter"
    );
    drop(client);
    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean(), "unclean drain after fuzz: {report:?}");
}

fn frame_of(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_frame(&mut out, &request.encode(), wire::MAX_FRAME).unwrap();
    out
}

#[test]
fn shutdown_under_load_loses_no_accepted_query() {
    let (handle, join) = Server::spawn(test_config()).unwrap();
    let addr = handle.addr();
    let delivered = Arc::new(AtomicU64::new(0));

    let threads: Vec<_> = (0..4)
        .map(|c| {
            let delivered = Arc::clone(&delivered);
            std::thread::spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return, // Raced shutdown before connecting.
                };
                for i in 0..200 {
                    let q = SCAN_QUERIES[(c + i) % SCAN_QUERIES.len()];
                    match client.query(q) {
                        Ok(Response::Answer { .. }) => {
                            delivered.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(other) => panic!("unexpected response {other:?}"),
                        // Connection closed by the drain: stop issuing.
                        Err(_) => return,
                    }
                }
            })
        })
        .collect();

    // Let the load build up, then pull the plug mid-flight.
    wait_for(
        || delivered.load(Ordering::Relaxed) >= 8,
        "load to get going before shutdown",
    );
    handle.shutdown();
    for t in threads {
        t.join().unwrap();
    }

    let report = join.join().unwrap();
    assert!(
        report.clean(),
        "accepted ≠ answered after drain: {report:?}"
    );
    // Every response produced was for an accepted query; clients may have
    // received fewer (a response can be in flight when they bail) but
    // never more.
    assert!(report.queries_accepted >= delivered.load(Ordering::Relaxed));
    assert!(delivered.load(Ordering::Relaxed) >= 8);
}

#[test]
fn client_disconnect_mid_query_keeps_registry_and_metrics_consistent() {
    let (handle, join) = Server::spawn(test_config()).unwrap();
    let addr = handle.addr();

    // Fire a query and vanish without reading the answer.
    {
        let mut client = Client::connect(addr).unwrap();
        client
            .send(|id| Request::Query {
                id,
                text: SCAN_QUERIES[0].to_string(),
            })
            .unwrap();
    } // dropped here, mid-query

    let metrics = handle.metrics();
    // The accepted query must still be executed and answered (the write
    // may fail, which is the client's problem, not a lost query).
    wait_for(
        || metrics.queries_answered.load(Ordering::Relaxed) == 1,
        "the abandoned query to be answered",
    );
    wait_for(
        || handle.registry().is_empty(),
        "the dead session to leave the registry",
    );
    assert_eq!(metrics.queries_accepted.load(Ordering::Relaxed), 1);

    // A fresh session sees a consistent world: itself in SHOW SESSIONS,
    // and metrics that still parse and balance.
    let mut observer = Client::connect(addr).unwrap();
    match observer.admin("SHOW SESSIONS").unwrap() {
        Response::Message { text, .. } => {
            assert!(text.starts_with("1 session(s)"), "{text}");
        }
        other => panic!("unexpected {other:?}"),
    }
    match observer.admin("SHOW METRICS").unwrap() {
        Response::Message { text, .. } => {
            assert!(text.contains("queries_accepted=1"), "{text}");
            assert!(text.contains("queries_answered=1"), "{text}");
            assert!(text.contains(WALL_CLOCK_MARKER), "{text}");
        }
        other => panic!("unexpected {other:?}"),
    }
    drop(observer);
    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean(), "{report:?}");
}

#[test]
fn slow_reader_trips_the_write_timeout_without_stalling_the_daemon() {
    let (handle, join) = Server::spawn(test_config()).unwrap();
    let addr = handle.addr();

    // A client that floods pings and never reads: the echoes pile up in
    // the socket buffers until the daemon's write blocks past its
    // timeout.
    let flooder = std::thread::spawn(move || {
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => panic!("connect: {e}"),
        };
        let nonce = vec![0xabu8; 512 * 1024];
        for _ in 0..40 {
            let sent = client.send(|id| Request::Ping {
                id,
                nonce: nonce.clone(),
            });
            if sent.is_err() {
                break; // Daemon already cut us off — that's the point.
            }
        }
    });

    let metrics = handle.metrics();
    wait_for(
        || metrics.write_timeouts.load(Ordering::Relaxed) >= 1,
        "the slow reader to trip a write timeout",
    );
    flooder.join().unwrap();

    // The daemon sheds the slow reader and keeps serving everyone else.
    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(
        client.query(SCAN_QUERIES[0]).unwrap(),
        Response::Answer { .. }
    ));
    drop(client);
    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean(), "{report:?}");
}

#[test]
fn reload_racing_active_sessions_serves_identical_answers() {
    let mut reference = Session::with_settings(test_settings());
    let expected: Vec<Vec<u8>> = SCAN_QUERIES
        .iter()
        .map(|q| local_canonical(&mut reference, q))
        .collect();

    let (handle, join) = Server::spawn(test_config()).unwrap();
    let addr = handle.addr();

    let workers: Vec<_> = (0..3)
        .map(|c| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..12 {
                    let idx = (c + i) % SCAN_QUERIES.len();
                    match client.query(SCAN_QUERIES[idx]).unwrap() {
                        Response::Answer { canonical, .. } => {
                            assert_eq!(canonical, expected[idx], "answer diverged under RELOAD");
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            })
        })
        .collect();

    let mut admin = Client::connect(addr).unwrap();
    for _ in 0..10 {
        match admin.admin("RELOAD").unwrap() {
            Response::Message { text, .. } => assert!(text.contains("reloaded"), "{text}"),
            other => panic!("unexpected {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for t in workers {
        t.join().unwrap();
    }

    assert!(handle.cache().stats().reloads >= 10);
    match admin.admin("SHOW CACHES").unwrap() {
        Response::Message { text, .. } => {
            assert!(text.contains("prepared-video cache"), "{text}");
            assert!(text.contains("reloads=10"), "{text}");
        }
        other => panic!("unexpected {other:?}"),
    }
    drop(admin);
    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean(), "{report:?}");
}

#[test]
fn an_answer_over_the_frame_cap_is_a_typed_error_and_the_connection_serves_on() {
    // Every 2 frames, 50 rows: the rendered answer runs to megabytes.
    const HUGE: &str = "SELECT TOP 50 FRAMES FROM Archie EVERY 2 FRAMES EMIT WITH SEED 7";
    let (handle, join) = Server::spawn(ServeConfig {
        workers: 1,
        ..test_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    match client.query(HUGE).unwrap() {
        Response::Error { text, .. } => {
            assert!(text.contains("exceeds"), "{text}");
            assert!(text.contains(&wire::MAX_FRAME.to_string()), "{text}");
        }
        other => panic!("expected a frame-size error, got {other:?}"),
    }
    assert!(matches!(
        client.query(SCAN_QUERIES[0]).unwrap(),
        Response::Answer { .. }
    ));
    // A request over the cap fails before it leaves the client, and the
    // connection stays in sync.
    let oversized = "x".repeat(wire::MAX_FRAME as usize);
    let err = client.query(&oversized).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(matches!(
        client.query(SCAN_QUERIES[1]).unwrap(),
        Response::Answer { .. }
    ));
    let metrics = handle.metrics().render_deterministic();
    assert!(metrics.contains("queries_accepted=3\n"), "{metrics}");
    assert!(metrics.contains("queries_failed=1\n"), "{metrics}");
    drop(client);
    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean(), "{report:?}");
}

#[test]
fn admin_surface_ping_and_oversized_frames() {
    let (handle, join) = Server::spawn(test_config()).unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.ping(vec![1, 2, 3]).unwrap(), vec![1, 2, 3]);

    match client.admin("show metrics").unwrap() {
        // Commands are case-insensitive; pings were counted.
        Response::Message { text, .. } => assert!(text.contains("pings=1"), "{text}"),
        other => panic!("unexpected {other:?}"),
    }
    match client.admin("FLUSH TABLES").unwrap() {
        Response::Error { text, .. } => assert!(text.contains("unknown admin command"), "{text}"),
        other => panic!("unexpected {other:?}"),
    }

    // An oversized length prefix is rejected with a protocol error and a
    // closed connection — on a different connection, so `client` lives.
    let mut attacker = Client::connect(addr).unwrap();
    attacker
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    attacker
        .send_raw(&(wire::MAX_FRAME + 1).to_be_bytes())
        .unwrap();
    match attacker.read_response() {
        Ok(Response::Error { id, text }) => {
            assert_eq!(id, 0);
            assert!(text.contains("exceeds"), "{text}");
        }
        Ok(other) => panic!("unexpected {other:?}"),
        Err(_) => {} // Closed before the error frame arrived: also fine.
    }
    drop(attacker);

    // The first session still works, and SHUTDOWN over the wire drains.
    assert!(matches!(
        client.query(SCAN_QUERIES[0]).unwrap(),
        Response::Answer { .. }
    ));
    match client.admin("SHUTDOWN").unwrap() {
        Response::Message { text, .. } => assert!(text.contains("shutting down"), "{text}"),
        other => panic!("unexpected {other:?}"),
    }
    drop(client);
    let report = join.join().unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.queries_accepted, 1);
}
