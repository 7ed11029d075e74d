//! Lock-free server counters, exported on `GET /metrics`.

use caqr_sim::{KernelDispatch, ShotReport};
use caqr_wire::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative serving counters. All atomics with relaxed ordering —
/// `/metrics` is an observability snapshot, not a synchronization point.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests fully read and dispatched to a handler.
    pub requests_total: AtomicU64,
    /// Responses with a 2xx status.
    pub responses_2xx: AtomicU64,
    /// Responses with a 4xx status (excluding admission 429s, which never
    /// reach a worker).
    pub responses_4xx: AtomicU64,
    /// Responses with a 5xx status.
    pub responses_5xx: AtomicU64,
    /// Requests refused with 429: a full worker queue, or a connection
    /// past `max_connections`.
    pub rejected_429: AtomicU64,
    /// Requests that hit their deadline and answered 504.
    pub deadline_504: AtomicU64,
    /// Requests whose handler panicked (answered 500, worker survived).
    pub handler_panics: AtomicU64,
    /// Requests answered 503 because they arrived during shutdown drain.
    pub draining_503: AtomicU64,
    /// Worker threads replaced by their respawn guard after dying.
    pub workers_replaced: AtomicU64,
    /// Connections accepted.
    pub connections_accepted: AtomicU64,
    /// Requests answered straight from the body-addressed response cache.
    pub response_cache_hits: AtomicU64,
    /// Compute requests that missed the response cache and ran the engine.
    pub response_cache_misses: AtomicU64,
    /// Simulator-engine dispatch counters for `/v1/simulate` and
    /// `/v1/bind-run`, exported under `"sim"`.
    pub sim: SimMetrics,
}

/// Cumulative simulator-engine counters, fed from each run's
/// [`ShotReport`]. These surface which engine actually carried the shots
/// — dense sweeps through the compiled kernels or the generic per-gate
/// path, the stabilizer tableau, or the support-tracked sparse engine —
/// plus the tableau's absorbed-gate and handoff-cost totals.
#[derive(Debug, Default)]
pub struct SimMetrics {
    /// Runs whose dense sweeps went through the compiled kernels
    /// ([`KernelDispatch::Wide`]; every dense run the server makes).
    pub dispatch_wide: AtomicU64,
    /// Runs whose dense sweeps went through the generic per-gate
    /// reference path ([`KernelDispatch::Scalar`]).
    pub dispatch_scalar: AtomicU64,
    /// Runs carried entirely by the stabilizer tableau.
    pub dispatch_tableau: AtomicU64,
    /// Runs carried by the support-tracked sparse engine.
    pub dispatch_sparse: AtomicU64,
    /// Unitary gates absorbed by the stabilizer tableau, summed over runs.
    pub stabilizer_prefix_gates: AtomicU64,
    /// Microseconds spent converting tableaux to dense snapshots, summed
    /// over runs.
    pub tableau_to_dense_us: AtomicU64,
    /// Dispatch of the most recent run, as 1 + its index in
    /// `dispatch_wide`, `dispatch_scalar`, `dispatch_tableau`,
    /// `dispatch_sparse` (0 = no run yet).
    last_dispatch: AtomicU64,
}

impl SimMetrics {
    /// Folds one run's instrumentation into the counters.
    pub fn record(&self, report: &ShotReport) {
        let (counter, idx) = match report.kernel_dispatch {
            KernelDispatch::Wide => (&self.dispatch_wide, 1),
            KernelDispatch::Scalar => (&self.dispatch_scalar, 2),
            KernelDispatch::Tableau => (&self.dispatch_tableau, 3),
            KernelDispatch::Sparse => (&self.dispatch_sparse, 4),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.last_dispatch.store(idx, Ordering::Relaxed);
        self.stabilizer_prefix_gates
            .fetch_add(report.stabilizer_prefix_gates as u64, Ordering::Relaxed);
        self.tableau_to_dense_us
            .fetch_add(report.tableau_to_dense_us, Ordering::Relaxed);
    }

    /// The `"sim"` object for `GET /metrics`.
    pub fn to_value(&self) -> Value {
        let n = |a: &AtomicU64| Value::num(a.load(Ordering::Relaxed));
        let last = match self.last_dispatch.load(Ordering::Relaxed) {
            1 => KernelDispatch::Wide.as_str(),
            2 => KernelDispatch::Scalar.as_str(),
            3 => KernelDispatch::Tableau.as_str(),
            4 => KernelDispatch::Sparse.as_str(),
            _ => "none",
        };
        Value::obj(vec![
            ("kernel_dispatch", Value::str(last)),
            ("dispatch_wide", n(&self.dispatch_wide)),
            ("dispatch_scalar", n(&self.dispatch_scalar)),
            ("dispatch_tableau", n(&self.dispatch_tableau)),
            ("dispatch_sparse", n(&self.dispatch_sparse)),
            ("stabilizer_prefix_gates", n(&self.stabilizer_prefix_gates)),
            ("tableau_to_dense_us", n(&self.tableau_to_dense_us)),
        ])
    }
}

impl ServerMetrics {
    /// Bumps the status-class counter for one response.
    pub fn record_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if status == 504 {
            self.deadline_504.fetch_add(1, Ordering::Relaxed);
        }
        if status == 503 {
            self.draining_503.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The `"server"` object for `GET /metrics`.
    pub fn to_value(&self) -> Value {
        let n = |a: &AtomicU64| Value::num(a.load(Ordering::Relaxed));
        Value::obj(vec![
            ("requests_total", n(&self.requests_total)),
            ("responses_2xx", n(&self.responses_2xx)),
            ("responses_4xx", n(&self.responses_4xx)),
            ("responses_5xx", n(&self.responses_5xx)),
            ("rejected_429", n(&self.rejected_429)),
            ("deadline_504", n(&self.deadline_504)),
            ("handler_panics", n(&self.handler_panics)),
            ("draining_503", n(&self.draining_503)),
            ("workers_replaced", n(&self.workers_replaced)),
            ("connections_accepted", n(&self.connections_accepted)),
            ("response_cache_hits", n(&self.response_cache_hits)),
            ("response_cache_misses", n(&self.response_cache_misses)),
            ("sim", self.sim.to_value()),
        ])
    }
}

/// Counters specific to the reactor, exported under `"reactor"` on
/// `GET /metrics` when a server is running. Created by the reactor with
/// its shard count and installed into
/// [`crate::handlers::AppState`] via a `OnceLock`.
#[derive(Debug)]
pub struct ReactorMetrics {
    /// Currently open connections across all shards (gauge).
    pub open_connections: AtomicU64,
    /// Times a shard's `poll(2)` returned (readiness, timer, or wakeup).
    pub poll_cycles: AtomicU64,
    /// Cross-thread wakeups delivered to shard loops (worker completions,
    /// shutdown).
    pub wakeups: AtomicU64,
    /// Requests currently dispatched and waiting in the worker queue
    /// (gauge) — the reactor's accept-queue-depth analogue.
    pub dispatch_queue_depth: AtomicU64,
    /// Connections evicted for idling past the keep-alive window.
    pub idle_evictions: AtomicU64,
    /// Connections evicted for stalling mid-request (slow-loris posture).
    pub stall_evictions: AtomicU64,
    /// Requests fully parsed, per shard.
    pub shard_requests: Vec<AtomicU64>,
}

impl ReactorMetrics {
    /// Zeroed counters for `shards` reactor threads.
    pub fn new(shards: usize) -> ReactorMetrics {
        ReactorMetrics {
            open_connections: AtomicU64::new(0),
            poll_cycles: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            dispatch_queue_depth: AtomicU64::new(0),
            idle_evictions: AtomicU64::new(0),
            stall_evictions: AtomicU64::new(0),
            shard_requests: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The `"reactor"` object for `GET /metrics`.
    pub fn to_value(&self) -> Value {
        let n = |a: &AtomicU64| Value::num(a.load(Ordering::Relaxed));
        Value::obj(vec![
            ("shards", Value::num(self.shard_requests.len() as u64)),
            ("open_connections", n(&self.open_connections)),
            ("poll_cycles", n(&self.poll_cycles)),
            ("wakeups", n(&self.wakeups)),
            ("dispatch_queue_depth", n(&self.dispatch_queue_depth)),
            ("idle_evictions", n(&self.idle_evictions)),
            ("stall_evictions", n(&self.stall_evictions)),
            (
                "shard_requests",
                Value::Arr(self.shard_requests.iter().map(n).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_classes_and_special_counters() {
        let m = ServerMetrics::default();
        m.record_status(200);
        m.record_status(201);
        m.record_status(422);
        m.record_status(503);
        m.record_status(504);
        m.record_status(500);
        assert_eq!(m.responses_2xx.load(Ordering::Relaxed), 2);
        assert_eq!(m.responses_4xx.load(Ordering::Relaxed), 1);
        assert_eq!(m.responses_5xx.load(Ordering::Relaxed), 3);
        assert_eq!(m.deadline_504.load(Ordering::Relaxed), 1);
        assert_eq!(m.draining_503.load(Ordering::Relaxed), 1);
        let v = m.to_value();
        assert_eq!(v.get("responses_5xx").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("deadline_504").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn sim_metrics_fold_shot_reports() {
        let m = SimMetrics::default();
        assert_eq!(
            m.to_value().get("kernel_dispatch").and_then(Value::as_str),
            Some("none")
        );
        let mut report = ShotReport {
            kernel_dispatch: KernelDispatch::Tableau,
            stabilizer_prefix_gates: 12,
            tableau_to_dense_us: 40,
            ..ShotReport::default()
        };
        m.record(&report);
        report.kernel_dispatch = KernelDispatch::Sparse;
        report.stabilizer_prefix_gates = 0;
        report.tableau_to_dense_us = 0;
        m.record(&report);
        let v = m.to_value();
        assert_eq!(
            v.get("kernel_dispatch").and_then(Value::as_str),
            Some("sparse")
        );
        assert_eq!(v.get("dispatch_tableau").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("dispatch_sparse").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("dispatch_wide").and_then(Value::as_u64), Some(0));
        assert_eq!(
            v.get("stabilizer_prefix_gates").and_then(Value::as_u64),
            Some(12)
        );
        assert_eq!(
            v.get("tableau_to_dense_us").and_then(Value::as_u64),
            Some(40)
        );
    }
}
