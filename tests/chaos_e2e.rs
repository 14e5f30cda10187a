//! Chaos end-to-end tests for fault-tolerant serving: seeded oracle
//! fault injection, admission-control overload shedding, mid-query
//! client disconnects, and keep-alive recycling — all against a real
//! daemon over TCP.
//!
//! The central claims, from the robustness contract:
//!
//! * **no panic** — every scenario ends in a clean drain
//!   ([`everest_serve::ShutdownReport::clean`]);
//! * **nothing lost** — `accepted == answered + shed`, with shed
//!   queries answered by a typed `Overloaded` frame;
//! * **degraded answers replay** — an answer produced under fault
//!   injection (with its achieved confidence and termination cause) is
//!   canonically byte-identical to an offline single-process replay of
//!   the same statement, because the fault schedule is a pure function
//!   of the `FLAKY` seed and simulated time never reads the wall clock.

use everest::core::budget::Termination;
use everest::evql::wire::Response;
use everest::evql::{Output, Session, SessionSettings};
use everest_serve::{Client, ServeConfig, Server};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

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

/// Polls `cond` for up to 10 s.
#[expect(clippy::disallowed_methods, reason = "test timing")]
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Fault-injected, budget-capped queries. `WITHIN 0` cannot even
/// bootstrap K certain items, so it is degraded by construction; the
/// others are tight enough that faults and caps bite without making the
/// outcome seed-marginal.
const CHAOS_QUERIES: [&str; 4] = [
    "SELECT TOP 5 FRAMES FROM Archie WITHIN 0 ORACLE CALLS WITH SEED 21, FLAKY 7",
    "SELECT TOP 5 FRAMES FROM Archie WITHIN 30 ORACLE CALLS WITH SEED 21, FLAKY 7",
    "SELECT TOP 3 FRAMES FROM Taipei-bus WITH SEED 22, DEADLINE 2.5, FLAKY 1000",
    "SELECT TOP 4 FRAMES FROM Irish-Center WITHIN 25 ORACLE CALLS WITH SEED 23, FLAKY 99",
];

/// One `WITH FLAKY` statement pinned to its retries, breaker trips,
/// termination, cleaned count, confidence and sim-time bits, and frames.
/// The replay test below compares two runs of the same code, which move
/// together if a fault rate, a penalty or the backoff drifts; a pin
/// does not.
#[test]
fn a_flaky_statement_keeps_its_pinned_answer() {
    let mut session = Session::with_settings(test_settings());
    let Output::Rows(out) = session.execute(CHAOS_QUERIES[3]).unwrap() else {
        panic!("a SELECT TOP statement answers with rows");
    };
    let stats = &out.stats;
    assert_eq!(stats.oracle_retries, Some(1));
    assert_eq!(stats.breaker_trips, Some(0));
    assert_eq!(stats.termination, Some(Termination::BudgetExhausted));
    assert_eq!(stats.cleaned, Some(25));
    assert_eq!(stats.iterations, Some(4));
    assert_eq!(
        stats.confidence.map(f64::to_bits),
        Some(0x3f1d_dbef_96b1_ff4d)
    );
    assert_eq!(stats.sim_seconds.to_bits(), 0x4041_38fc_7a39_81fc);
    let frames: Vec<usize> = out.rows.iter().map(|r| r.start_frame).collect();
    assert_eq!(frames, [160, 167, 175, 189]);
}

#[test]
fn flaky_answers_replay_bit_for_bit_against_an_offline_session() {
    // Offline replay: a private single-process session running the same
    // statements. Its canonical bytes (rows, confidence, termination)
    // are the reference the daemon must reproduce exactly.
    let mut reference = Session::with_settings(test_settings());
    let mut expected = Vec::new();
    let mut expected_retries = 0u64;
    let mut expected_degraded = 0u64;
    for q in CHAOS_QUERIES {
        let output = reference
            .execute(q)
            .unwrap_or_else(|e| panic!("{}", e.render(q)));
        let stats = output.stats().expect("a query answer");
        expected_retries += stats.oracle_retries.unwrap_or(0);
        expected_degraded += stats.termination.is_some_and(|t| t.is_degraded()) as u64;
        expected.push(everest::evql::wire::canonical_output(&output));
    }
    assert!(
        expected_degraded >= 1,
        "the chaos mix must contain at least one degraded answer \
         (WITHIN 0 cannot converge)"
    );

    let (handle, join) = Server::spawn(test_config()).unwrap();
    let addr = handle.addr();
    let clients = 4;
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..CHAOS_QUERIES.len() {
                    let idx = (i + c) % CHAOS_QUERIES.len();
                    match client.query(CHAOS_QUERIES[idx]).unwrap() {
                        Response::Answer { canonical, .. } => assert_eq!(
                            canonical, expected[idx],
                            "client {c}: degraded answer for {:?} diverged from the \
                             offline replay",
                            CHAOS_QUERIES[idx]
                        ),
                        other => panic!("expected answer, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Fault handling is deterministic per statement execution, so the
    // daemon totals are exact multiples of the offline run's.
    let metrics = handle.metrics();
    assert_eq!(
        metrics.oracle_retries.load(Ordering::Relaxed),
        expected_retries * clients as u64,
        "oracle retry totals diverged from the offline replay"
    );
    assert_eq!(
        metrics.degraded_answers.load(Ordering::Relaxed),
        expected_degraded * clients as u64,
    );

    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean(), "unclean drain: {report:?}");
    assert_eq!(report.queries_shed, 0);
}

#[test]
fn overload_sheds_with_typed_responses_and_loses_nothing() {
    let cfg = ServeConfig {
        // One admission slot: any concurrent arrival is shed.
        max_inflight_queries: Some(1),
        ..test_config()
    };
    let (handle, join) = Server::spawn(cfg).unwrap();
    let addr = handle.addr();

    // All clients fire the same cache-missing Everest query at once; the
    // first occupies the only slot for the whole Phase-1 build, so the
    // rest are shed and must retry until admitted.
    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> u64 {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                let mut sheds = 0u64;
                loop {
                    match client
                        .query("SELECT TOP 5 FRAMES FROM Archie WITH SEED 31")
                        .unwrap()
                    {
                        Response::Answer { .. } => return sheds,
                        Response::Overloaded { inflight, text, .. } => {
                            assert!(inflight >= 1, "shed with an empty daemon");
                            assert!(text.contains("retry"), "{text}");
                            sheds += 1;
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            })
        })
        .collect();
    let shed_seen: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(
        shed_seen >= 1,
        "8 simultaneous clients against 1 admission slot never shed"
    );

    // The daemon survived the stampede and still serves.
    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(
        client
            .query("SELECT TOP 3 FRAMES FROM Archie USING scan")
            .unwrap(),
        Response::Answer { .. }
    ));
    match client.admin("SHOW SESSIONS").unwrap() {
        Response::Message { text, .. } => {
            assert!(text.contains("admission: max_inflight_queries=1"), "{text}");
        }
        other => panic!("unexpected {other:?}"),
    }
    drop(client);

    handle.shutdown();
    let report = join.join().unwrap();
    // The overload contract: nothing silently dropped — every accepted
    // query was either answered or answered-with-Overloaded.
    assert!(report.clean(), "accepted != answered + shed: {report:?}");
    assert_eq!(report.queries_shed, shed_seen);
    assert_eq!(report.queries_answered, report.queries_accepted - shed_seen);
    assert_eq!(
        handle.metrics().shed_queries.load(Ordering::Relaxed),
        shed_seen
    );
}

/// Fires `text` (fresh seed: a guaranteed Phase-1 build, so execution
/// outlives the client) and vanishes without reading the answer. The
/// disconnect watcher trips the cancel token while the query runs; the
/// cleaning loop observes it at its next batch boundary and returns
/// `cancelled`, having scored at most one more batch of `batch` frames.
fn abandoned_query_is_cancelled(text: &str, batch: u64) {
    // The bound below means something only if the query, left alone,
    // cleans more than a batch.
    let mut offline = Session::with_settings(test_settings());
    let full = offline
        .execute(text)
        .unwrap()
        .stats()
        .unwrap()
        .cleaned
        .unwrap() as u64;
    assert!(full > batch, "uncancelled, `{text}` cleans only {full}");

    let (handle, join) = Server::spawn(test_config()).unwrap();
    {
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .send(|id| everest::evql::wire::Request::Query {
                id,
                text: text.into(),
            })
            .unwrap();
    } // dropped here, mid-query

    let metrics = handle.metrics();
    // The accepted query is still executed and counted answered (the
    // failed write is the client's loss, not a dropped query)…
    wait_for(
        || metrics.queries_answered.load(Ordering::Relaxed) == 1,
        "the abandoned query to be answered",
    );
    // …but as a cancelled, degraded answer rather than a full cleaning
    // run for a client that is no longer there.
    assert_eq!(
        metrics.degraded_answers.load(Ordering::Relaxed),
        1,
        "disconnect was not converted into a degraded (cancelled) answer"
    );
    let scored = metrics.cleaned_frames.load(Ordering::Relaxed);
    assert!(
        scored <= batch,
        "{scored} oracle frames for a client that had hung up"
    );
    wait_for(
        || handle.registry().is_empty(),
        "the dead session to leave the registry",
    );

    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean(), "{report:?}");
}

#[test]
fn disconnect_mid_query_cancels_cleaning_into_a_degraded_answer() {
    abandoned_query_is_cancelled(
        "SELECT TOP 10 FRAMES FROM Archie WITH SEED 41, CONFIDENCE 0.99",
        10, // the first batch bootstraps all K
    );
}

#[test]
fn disconnect_mid_skyline_cancels_cleaning_into_a_degraded_answer() {
    abandoned_query_is_cancelled(
        "SELECT SKYLINE FROM Archie WITH SEED 43, CONFIDENCE 0.99, BATCH 4",
        4,
    );
}

#[test]
fn keepalive_limits_recycle_connections_and_reap_idle_sessions() {
    let cfg = ServeConfig {
        max_queries_per_connection: Some(3),
        idle_timeout: Some(Duration::from_millis(150)),
        ..test_config()
    };
    let (handle, join) = Server::spawn(cfg).unwrap();
    let addr = handle.addr();
    let scan = "SELECT TOP 3 FRAMES FROM Archie USING scan";

    // Query limit: the third answer arrives, then the daemon closes.
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..3 {
        assert!(matches!(
            client.query(scan).unwrap(),
            Response::Answer { .. }
        ));
    }
    assert!(
        client.query(scan).is_err(),
        "connection outlived max_queries_per_connection"
    );

    // Idle limit: a connection that goes quiet is reaped without the
    // client doing anything.
    let idle = Client::connect(addr).unwrap();
    wait_for(
        || handle.registry().is_empty(),
        "the idle session to be reaped",
    );
    drop(idle);

    // The limits are visible in SHOW SESSIONS (fresh connection — the
    // observer itself stays under both limits).
    let mut observer = Client::connect(addr).unwrap();
    match observer.admin("SHOW SESSIONS").unwrap() {
        Response::Message { text, .. } => {
            assert!(
                text.contains("keep-alive: max_queries_per_connection=3, idle_timeout=150ms"),
                "{text}"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    drop(observer);

    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean(), "{report:?}");
    // 3 answered on the recycled connection + 1 whose connection closed
    // before the send + the observer's admin (not a query).
    assert!(report.queries_accepted >= 3);
}
