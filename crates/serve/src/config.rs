//! Daemon configuration.

use everest_evql::SessionSettings;
use std::time::Duration;

/// Accepted-connection queue bound between the accept loop and the
/// workers; a full queue backpressures `accept`.
pub(crate) const BACKLOG: usize = 64;

/// Read-poll tick: how often an idle connection checks the shutdown
/// flag. Short enough that drain latency is invisible, long enough to
/// keep idle connections cheap.
pub(crate) const READ_POLL: Duration = Duration::from_millis(20);

/// After shutdown, how long a connection with a *partial* frame may keep
/// the daemon waiting for the rest of it before being dropped. Complete
/// frames are always served regardless.
pub(crate) const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// Everything the daemon needs to bind, pool, and serve.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 binds an ephemeral port (tests, benches).
    pub addr: String,
    /// Worker threads. Each worker serves one connection at a time
    /// (pooler "session mode"), so this bounds concurrent sessions;
    /// further accepted connections wait in the queue.
    pub workers: usize,
    /// Cap on the shared prepared-video cache (ready entries).
    pub cache_capacity: usize,
    /// Default EVQL settings for every new session (`SET` adjusts a
    /// single session afterwards).
    pub settings: SessionSettings,
    /// Per-write timeout. A client that stops reading while the daemon
    /// has a response in flight is disconnected once the socket has been
    /// unwritable this long.
    pub write_timeout: Duration,
    /// Admission control: queries allowed to execute concurrently across
    /// all workers. A query arriving while this many are in flight is
    /// *shed* — answered immediately with the typed
    /// [`everest_evql::wire::Response::Overloaded`] frame instead of
    /// queueing behind work the daemon cannot keep up with. `None`
    /// disables shedding (the worker pool is then the only bound).
    pub max_inflight_queries: Option<usize>,
    /// Keep-alive bound: queries one connection may run before the
    /// daemon closes it (after answering the last one). `None` =
    /// unlimited. Recycling long-lived connections bounds per-session
    /// state and redistributes clients across workers.
    pub max_queries_per_connection: Option<u64>,
    /// Keep-alive bound: how long a connection may sit idle (no complete
    /// frame) before the daemon closes it. `None` = unlimited.
    pub idle_timeout: Option<Duration>,
    /// EVQL statements executed once at boot on a warmup session, before
    /// the listener starts serving — the "load a catalog of prepared
    /// videos" step (each statement populates the shared cache).
    pub warmup: Vec<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            cache_capacity: 8,
            settings: SessionSettings::default(),
            write_timeout: Duration::from_secs(2),
            max_inflight_queries: None,
            max_queries_per_connection: None,
            idle_timeout: None,
            warmup: Vec::new(),
        }
    }
}
