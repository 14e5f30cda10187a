//! # everest-serve — the long-running EVQL query daemon
//!
//! The paper's system is a *service*: a catalog of prepared videos
//! answering Top-K queries for many users. Everything else in this
//! workspace is a one-shot binary; this crate is the daemon behind the
//! "millions of users" north star, and the benchmark ladder's
//! `served_mixed` workload measures it. It follows the production-pooler
//! shape (pg_doorman-style): per-connection sessions over a bounded
//! worker pool, one shared single-flight prepared-video cache
//! ([`everest_evql::SharedCache`]), `SHOW`-style admin commands, and a
//! text metrics surface.
//!
//! ```text
//!                    ┌──────────────────────────────────────────┐
//!   TCP clients ───► │ accept loop ─► bounded queue ─► workers  │
//!                    │                                │         │
//!                    │   Session-per-connection ◄─────┘         │
//!                    │      │            │                      │
//!                    │      ▼            ▼                      │
//!                    │  SharedCache   SessionRegistry + Metrics │
//!                    └──────────────────────────────────────────┘
//! ```
//!
//! * **Wire protocol** — length-prefixed frames with a max-frame guard;
//!   codec in [`everest_evql::wire`] (shared with clients and fuzzers).
//! * **Sessions** — each connection gets its own [`everest_evql::Session`]
//!   (settings, `SET`, per-session state) over the shared cache.
//! * **Admin** — `SHOW SESSIONS`, `SHOW CACHES`, `SHOW METRICS`,
//!   `RELOAD` (drop prepared videos), `SHUTDOWN` (graceful drain).
//! * **Graceful shutdown** — stops accepting, finishes every request
//!   whose frame was received, answers it, then exits; the final
//!   [`ShutdownReport`] proves `accepted == answered`.
//! * **Determinism** — query answers carry canonical bytes
//!   ([`everest_evql::wire::canonical_output`]) that are byte-identical
//!   to a single-process session's answer for the same EVQL; metrics
//!   counters are deterministic under concurrency (single-flight cache,
//!   integer counters), with wall-clock-derived lines quarantined below
//!   a marker so harnesses can compare the deterministic prefix.
//!
//! See `docs/SERVING.md` for the frame layout, admin command reference,
//! metrics fields, and shutdown semantics.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::undocumented_unsafe_blocks,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]

pub mod client;
pub mod config;
pub mod metrics;
pub mod registry;
pub mod server;

pub use client::Client;
pub use config::ServeConfig;
pub use metrics::{LatencyHistogram, Metrics, WALL_CLOCK_MARKER};
pub use registry::{SessionRegistry, SessionState};
pub use server::{Server, ServerHandle, ShutdownReport};
