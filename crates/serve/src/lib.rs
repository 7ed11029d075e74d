//! caqr-serve: the CaQR compile-and-simulate network service.
//!
//! A hand-rolled HTTP/1.1 server on `std::net` (the build environment
//! vendors no async runtime or HTTP stack) exposing the batch engine and
//! the Monte-Carlo simulator over five endpoints:
//!
//! | endpoint | method | body |
//! |---|---|---|
//! | `/v1/compile` | POST | one circuit (wire JSON or OpenQASM) + strategy/device/router/routing_backend |
//! | `/v1/compile-batch` | POST | a job array, compiled by the shared engine pool |
//! | `/v1/simulate` | POST | circuit + shots/seed/noise |
//! | `/healthz` | GET | — |
//! | `/metrics` | GET | — |
//!
//! One transport serves them, the **reactor** ([`server::Server`]): N
//! shard threads running a `poll(2)` readiness loop (caqr-reactor) over
//! non-blocking per-connection state machines ([`conn`] + the private
//! `event_loop` module), with `SO_REUSEPORT` listener sharding at
//! `shards > 1`. The serve tier is Unix-only; off Unix the crate compiles
//! but [`server::Server::bind`] returns `Unsupported`.
//!
//! The serving qualities, each with a dedicated mechanism:
//!
//! * **Admission control** — compute requests enter a bounded worker
//!   queue; when it is full the shard answers `429` with `Retry-After`
//!   instead of letting latency collapse. The reactor also caps open
//!   connections ([`server::ServerConfig::max_connections`]).
//! * **Deadlines** — every request gets a [`caqr::CancelToken`] deadline;
//!   compilation checks it between passes, simulation between shot chunks,
//!   and an overrun answers `504` while the worker survives to take the
//!   next request ([`handlers`]).
//! * **Panic isolation** — each request runs under `catch_unwind`; a panic
//!   answers `500`, and a worker thread that dies anyway respawns itself
//!   via a drop guard.
//! * **Slow-client eviction** — the reactor's timer wheel evicts
//!   connections that idle past the keep-alive window or dribble a
//!   request in slower than [`server::ServerConfig::request_stall`]
//!   (slow-loris posture).
//! * **Graceful shutdown** — SIGTERM (or [`server::ShutdownHandle`]) stops
//!   admission, drains queued and in-flight requests, answers `503` to
//!   requests arriving mid-drain, then exits 0 ([`signal`], [`server`]).
//!
//! Compile responses embed the compiled circuit in wire form with exact
//! float round-tripping, so the bytes a client decodes are bit-identical
//! to an in-process [`caqr_engine::Engine::run`] — the property the
//! integration suite pins across the full golden corpus. Identical
//! request bodies are answered from a whole-response cache ([`respcache`])
//! without re-running the engine, preserving those exact bytes.

// The one unsafe exception lives in `signal`: registering a SIGTERM
// handler needs libc's `signal(2)`, which std links but does not expose.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod conn;
mod event_loop;
pub mod handlers;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod respcache;
pub mod server;
pub mod signal;

pub use server::{Backend, Server, ServerConfig, ShutdownHandle};
