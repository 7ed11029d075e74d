//! caqr-reactor: a dependency-free readiness-driven event loop for the
//! caqr serve tier.
//!
//! The serve tier needs to hold hundreds of cheap keep-alive connections
//! per core without one OS thread per socket. This crate provides the
//! three primitives that make that possible, in the repo's established
//! no-tokio/no-libc-crate style (the only unsafe code is a small
//! `extern "C"` surface in the private `sys` module, mirroring
//! `caqr-serve`'s signal handling):
//!
//! - [`Poller`] — a level-triggered `poll(2)` registration set with a
//!   self-pipe [`Waker`] so worker threads (and signal handlers, via
//!   [`notify_raw`]) can interrupt a blocked poll.
//! - [`TimerWheel`] — a hashed timer wheel for keep-alive idle eviction
//!   and slow-request stall deadlines: O(1) insert/cancel, coarse ticks.
//! - [`bind_reuseport`] — an `SO_REUSEPORT` listener factory so N reactor
//!   shards can each own a listener on one port and let the kernel
//!   load-balance accepts.
//!
//! # Portability
//!
//! The FFI layer is Unix-only (`poll`, `pipe`, `fcntl`, `socket`,
//! `setsockopt`, `getrlimit`). Non-Unix builds still compile — every
//! entry point returns `io::ErrorKind::Unsupported` — so the workspace
//! builds everywhere without cfg gymnastics. caqr-serve has no other
//! transport, so it serves only on Unix: elsewhere its `Server::bind`
//! returns `Unsupported`. `SO_REUSEPORT` sharding additionally requires a
//! kernel that balances accepts across reuseport sockets (Linux ≥ 3.9;
//! BSDs accept the option with different semantics).

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
mod sys;

mod poller;
mod timer;

pub use poller::{Event, Interest, Poller, Source, Token, Waker};
pub use sys::{bind_reuseport, notify_raw, raise_nofile_limit, WakePipe};
pub use timer::{TimerKey, TimerWheel};
