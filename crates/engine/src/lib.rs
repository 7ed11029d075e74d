//! caqr-engine: a parallel batch-compilation service over the CaQR
//! pipeline.
//!
//! The core crate compiles one circuit at a time; real experiments compile
//! *suites* — every benchmark x every strategy x every device. This crate
//! turns that into a first-class service:
//!
//! * [`CompileJob`] / [`BatchRequest`] describe the work: (circuit, device,
//!   strategy) tuples plus execution options (worker count, cache size).
//! * [`Engine`] executes a batch on a fixed pool of `std` threads with
//!   deterministic result ordering (results always come back in request
//!   order, regardless of which worker finished first) and per-job panic
//!   isolation (a panicking job becomes a [`JobError`], never a dead
//!   batch).
//! * [`CompileCache`] memoizes compile reports under a cache key: the
//!   job's shape (its circuit after the peephole, angles lifted into
//!   slots) + device calibration + strategy + routing policy. A job of a
//!   cached shape binds its own angles into the stored template instead
//!   of compiling; each entry keeps its key's content and compares it on
//!   a hit. LRU eviction, hit/miss/collision counters.
//! * [`EngineMetrics`] aggregates per-stage wall-clock (width analysis,
//!   reuse pass, routing, scheduling) and compile counters (SWAPs
//!   inserted, reuse pairs, cache hits) into a human table or JSON lines.
//!
//! # Examples
//!
//! ```
//! use caqr::Strategy;
//! use caqr_arch::Device;
//! use caqr_circuit::{Circuit, Qubit};
//! use caqr_engine::{BatchRequest, CompileJob, Engine};
//!
//! let mut bell = Circuit::new(2, 2);
//! bell.h(Qubit::new(0));
//! bell.cx(Qubit::new(0), Qubit::new(1));
//! bell.measure_all();
//!
//! let jobs = vec![
//!     CompileJob::new("bell", bell.clone(), Device::mumbai(0), Strategy::Baseline),
//!     CompileJob::new("bell", bell, Device::mumbai(0), Strategy::Sr),
//! ];
//! let report = Engine::run(&BatchRequest::new(jobs));
//! assert_eq!(report.ok_count(), 2);
//! println!("{}", report.render_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod metrics;
pub mod pool;
pub mod stream;
mod sweep;

pub use cache::{CacheStats, CompileCache};
pub use job::{
    router_label, BatchOptions, BatchReport, BatchRequest, CompileJob, FailedJob, JobError,
    JobOutcome,
};
pub use metrics::EngineMetrics;
pub use pool::{Engine, JobCompiler};
pub use stream::{StreamJobError, StreamOutcome};
