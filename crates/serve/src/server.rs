//! Server configuration, and the server itself.
//!
//! [`Server`] is the `poll(2)` reactor (the private `event_loop` module):
//! N shard threads run a readiness loop (caqr-reactor) over non-blocking
//! sockets, and compute requests dispatch to a panic-isolated worker pool.
//! Every shard and worker shares one [`AppState`] (compile cache,
//! response cache, metrics). After [`ShutdownHandle::shutdown`], new
//! requests get `503` for a grace window while in-flight work finishes,
//! then every thread exits and [`Server::join`] returns.
//!
//! The serve tier is Unix-only: off Unix, caqr-reactor's stubs keep the
//! crate compiling and [`Server::bind`] returns `Unsupported`.
//!
//! [`AppState`]: crate::handlers::AppState

use crate::handlers::RequestLimits;
use crate::http::HttpLimits;
use std::time::Duration;

pub use crate::event_loop::{Server, ShutdownHandle};

/// The transport that serves the sockets. There is one, the reactor; the
/// type and [`ServerConfig::backend`] stay so configurations that name it
/// (perfbench's `serve_mix` writes `backend: Backend::Reactor`) keep
/// compiling. No code branches on the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The event-driven reactor.
    #[default]
    Reactor,
}

/// Everything tunable about one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// The transport (see [`Backend`]).
    pub backend: Backend,
    /// Reactor shards, each with its own `SO_REUSEPORT` listener and
    /// readiness loop. `1` (the default) binds one plain listener.
    pub shards: usize,
    /// Worker threads; `0` = one per core (capped at 8).
    pub workers: usize,
    /// Compute requests waiting for a worker before admission control
    /// answers `429`.
    pub queue_capacity: usize,
    /// Open connections the reactor holds before refusing new ones.
    pub max_connections: usize,
    /// Compile-cache entries shared across requests.
    pub cache_capacity: usize,
    /// Whole-response cache entries (see [`crate::respcache`]).
    pub response_cache_capacity: usize,
    /// Per-request caps (deadline ceiling, shots, batch size).
    pub request_limits: RequestLimits,
    /// HTTP framing caps (head/body bytes).
    pub http_limits: HttpLimits,
    /// How long an idle keep-alive connection is held open.
    pub keep_alive_idle: Duration,
    /// How long a started-but-unfinished request may dribble in before
    /// the reactor evicts the connection (slow-loris posture).
    pub request_stall: Duration,
    /// How long new requests keep getting a clean `503` after shutdown,
    /// so clients racing the drain see a refusal instead of a reset.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            backend: Backend::Reactor,
            shards: 1,
            workers: 0,
            queue_capacity: 64,
            max_connections: 1024,
            cache_capacity: 256,
            response_cache_capacity: 1024,
            request_limits: RequestLimits::default(),
            http_limits: HttpLimits::default(),
            keep_alive_idle: Duration::from_secs(10),
            request_stall: Duration::from_secs(10),
            drain_grace: Duration::from_millis(400),
        }
    }
}

/// Resolves a worker-count request: `0` means one per core, capped at 8;
/// explicit requests are capped at 64.
pub(crate) fn effective_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested.min(64);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 8)
}
