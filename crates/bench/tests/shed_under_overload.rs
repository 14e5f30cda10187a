//! Pins the `serve/shed_under_overload` behavior through the bench
//! driver's own path: `run_loadgen` with the fault-injection mix against
//! a deliberately oversubscribed daemon must observe typed `Overloaded`
//! sheds, lose nothing, and drain clean. This is a behavior test, not a
//! timing benchmark — shedding is load-dependent, so it must never
//! become a gated ladder metric.

use everest_evql::SessionSettings;
use everest_serve::{flaky_mix, run_loadgen, LoadgenConfig, ServeConfig, Server};

#[test]
fn shed_under_overload() {
    let cfg = ServeConfig {
        settings: SessionSettings {
            scale: 1_000,
            ..SessionSettings::default()
        },
        workers: 4,
        // One admission slot: concurrent arrivals beyond it are shed.
        max_inflight_queries: Some(1),
        ..ServeConfig::default()
    };
    let (handle, join) = Server::spawn(cfg).expect("spawn daemon");

    // The flaky mix runs real Phase-1 builds + fault-injected cleaning,
    // so queries overlap long enough for the single slot to saturate.
    let mut load = LoadgenConfig::new(handle.addr(), 6, 4, 0);
    load.mix = flaky_mix(7);
    let report = run_loadgen(&load).expect("loadgen run");

    assert_eq!(report.errors, 0, "shed must be typed, not an error");
    assert!(
        report.shed >= 1,
        "6 concurrent sessions against 1 admission slot never shed: {report:?}"
    );
    assert_eq!(report.queries_total, 6 * 4, "every query got a response");

    handle.shutdown();
    let shutdown = join.join().expect("daemon thread");
    // The overload contract: accepted == answered + shed, zero sessions
    // left behind.
    assert!(shutdown.clean(), "unclean drain: {shutdown:?}");
    assert_eq!(shutdown.queries_shed, report.shed);
}
