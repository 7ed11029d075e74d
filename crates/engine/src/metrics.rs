//! Aggregated batch instrumentation: per-stage wall-clock totals plus
//! compile counters, rendered as a human table or a JSON object.

use caqr::{CompileReport, Stage, StageTrace};
use caqr_circuit::{Circuit, Gate};
use std::collections::BTreeMap;
use std::time::Duration;

use crate::cache::CacheStats;

/// Per-routing-policy totals over successful jobs, keyed by the policy's
/// report label (a cost-model name — `hop`, `lookahead:8:0.5`,
/// `noise-aware` — for SWAP-backend jobs, the backend name — `dpqa` —
/// for backends that insert no SWAPs). Lets a mixed batch report which
/// routing policy paid for which swaps, and splits totals per backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTotals {
    /// Successful jobs routed under this policy.
    pub jobs_ok: usize,
    /// SWAP gates inserted across those jobs.
    pub swaps: usize,
    /// Compiled circuit depth, summed across those jobs.
    pub depth: usize,
    /// Compiled duration in `dt`, summed across those jobs.
    pub duration_dt: u64,
}

/// Counters and stage timings aggregated over one batch run.
///
/// Stage totals are *CPU work* summed across workers, so with `--jobs 8`
/// they can legitimately exceed the batch wall-clock.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Total time spent in each pipeline stage, summed over all jobs.
    pub stage_totals: BTreeMap<Stage, Duration>,
    /// Total time spent in each named pass, summed over all jobs. Finer
    /// grained than [`EngineMetrics::stage_totals`]: a stage may span
    /// several passes (e.g. the sweep stage runs `qs-sweep`,
    /// `route-sweep`, and a `select-*` pass).
    pub pass_totals: BTreeMap<&'static str, Duration>,
    /// Jobs submitted.
    pub jobs_total: usize,
    /// Jobs that produced a report.
    pub jobs_ok: usize,
    /// Jobs that failed (route error or panic).
    pub jobs_failed: usize,
    /// Jobs served from the compile cache.
    pub jobs_from_cache: usize,
    /// SWAP gates inserted across all successful jobs.
    pub swaps_inserted: usize,
    /// Qubit-reuse pairs realized across all successful jobs (counted as
    /// mid-circuit resets in the compiled circuits).
    pub reuse_pairs: usize,
    /// Per-routing-policy attribution of swaps, depth, and duration over
    /// successful jobs, keyed by the job's router label (cost-model name
    /// for SWAP jobs, backend name for movement backends) — see
    /// [`crate::job::router_label`].
    pub policy_totals: BTreeMap<String, PolicyTotals>,
    /// Cache counters for the run (zero when caching is disabled).
    pub cache: CacheStats,
    /// Total time jobs sat in the batch queue before a worker picked them
    /// up, summed over all jobs (including failed ones). Disjoint from
    /// [`EngineMetrics::compile_total`]: a job under a saturated pool
    /// accrues queue wait without accruing compile time.
    pub queue_wait_total: Duration,
    /// Total worker time spent on jobs (cache lookup + compile), summed
    /// over successful jobs.
    pub compile_total: Duration,
    /// End-to-end batch wall-clock.
    pub batch_wall: Duration,
    /// Bind-runs whose values bound and whose bound circuit ran as a job
    /// (`caqr-serve`'s `/v1/bind-run`, hit or miss).
    pub binds_total: usize,
    /// Total time bind-runs spent stamping their values into their
    /// templates: the O(gates) bind step before the job runs, disjoint
    /// from [`EngineMetrics::compile_total`].
    pub bind_total: Duration,
    /// Bind-runs whose job was served from the compile cache (no compile
    /// ran). Counted apart from [`EngineMetrics::cache`], whose shared
    /// stats mix in every other job, so these count bind-run traffic
    /// alone.
    pub template_cache_hits: usize,
    /// Bind-runs whose job was not served from the compile cache: it
    /// compiled, or it failed.
    pub template_cache_misses: usize,
    /// Logical QS sweeps the batch built. A job that consumes a sweep (SR
    /// or QS) builds it unless another job of the batch with the same
    /// circuit, device and routing policy already has; it counts here once
    /// it holds the sweep its selection reads.
    pub sweeps_computed: usize,
    /// SR and QS jobs that ran only their selection, on a sweep another
    /// job of the batch built (for a QS job, the routed sweep or the
    /// logical sweep it routed).
    pub sweeps_reused: usize,
}

impl EngineMetrics {
    /// Folds one successful job into the totals, attributing its swaps,
    /// depth, and duration to `policy` (the job's router label).
    pub(crate) fn record_success(
        &mut self,
        policy: &str,
        trace: &StageTrace,
        report: &CompileReport,
    ) {
        self.jobs_ok += 1;
        self.swaps_inserted += report.swaps;
        self.reuse_pairs += reuse_pairs_in(&report.circuit);
        let totals = self.policy_totals.entry(policy.to_string()).or_default();
        totals.jobs_ok += 1;
        totals.swaps += report.swaps;
        totals.depth += report.depth;
        totals.duration_dt += report.duration_dt;
        for &(stage, span) in trace.spans() {
            *self.stage_totals.entry(stage).or_default() += span;
        }
        for &(name, span) in trace.pass_spans() {
            *self.pass_totals.entry(name).or_default() += span;
        }
    }

    /// Folds another run's metrics into this one — the accumulation
    /// `caqr-serve` uses to keep one cumulative `/metrics` view across
    /// requests. Counters and time totals add; `cache` is overwritten by
    /// `other`'s snapshot (a shared cache's stats are already cumulative).
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.jobs_total += other.jobs_total;
        self.jobs_ok += other.jobs_ok;
        self.jobs_failed += other.jobs_failed;
        self.jobs_from_cache += other.jobs_from_cache;
        self.swaps_inserted += other.swaps_inserted;
        self.reuse_pairs += other.reuse_pairs;
        self.queue_wait_total += other.queue_wait_total;
        self.compile_total += other.compile_total;
        self.batch_wall += other.batch_wall;
        self.binds_total += other.binds_total;
        self.bind_total += other.bind_total;
        self.template_cache_hits += other.template_cache_hits;
        self.template_cache_misses += other.template_cache_misses;
        self.sweeps_computed += other.sweeps_computed;
        self.sweeps_reused += other.sweeps_reused;
        self.cache = other.cache;
        for (&stage, &span) in &other.stage_totals {
            *self.stage_totals.entry(stage).or_default() += span;
        }
        for (&name, &span) in &other.pass_totals {
            *self.pass_totals.entry(name).or_default() += span;
        }
        for (name, theirs) in &other.policy_totals {
            let totals = self.policy_totals.entry(name.clone()).or_default();
            totals.jobs_ok += theirs.jobs_ok;
            totals.swaps += theirs.swaps;
            totals.depth += theirs.depth;
            totals.duration_dt += theirs.duration_dt;
        }
    }

    /// The human-readable metrics table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("metric                 value\n");
        out.push_str(&format!("jobs_total             {}\n", self.jobs_total));
        out.push_str(&format!("jobs_ok                {}\n", self.jobs_ok));
        out.push_str(&format!("jobs_failed            {}\n", self.jobs_failed));
        out.push_str(&format!(
            "jobs_from_cache        {}\n",
            self.jobs_from_cache
        ));
        out.push_str(&format!("swaps_inserted         {}\n", self.swaps_inserted));
        out.push_str(&format!("reuse_pairs            {}\n", self.reuse_pairs));
        out.push_str(&format!(
            "sweeps_computed        {}\n",
            self.sweeps_computed
        ));
        out.push_str(&format!("sweeps_reused          {}\n", self.sweeps_reused));
        for (name, t) in &self.policy_totals {
            out.push_str(&format!(
                "policy_{:<16} ok={} swaps={} depth={} duration_dt={}\n",
                name, t.jobs_ok, t.swaps, t.depth, t.duration_dt,
            ));
        }
        out.push_str(&format!("cache_hits             {}\n", self.cache.hits));
        out.push_str(&format!("cache_misses           {}\n", self.cache.misses));
        out.push_str(&format!(
            "cache_evictions        {}\n",
            self.cache.evictions
        ));
        out.push_str(&format!(
            "cache_key_collisions   {}\n",
            self.cache.key_collisions
        ));
        for stage in Stage::ALL {
            let total = self.stage_totals.get(&stage).copied().unwrap_or_default();
            out.push_str(&format!(
                "stage_{:<16} {:.3} ms\n",
                stage.name(),
                total.as_secs_f64() * 1e3,
            ));
        }
        for (name, total) in &self.pass_totals {
            out.push_str(&format!(
                "pass_{:<17} {:.3} ms\n",
                name,
                total.as_secs_f64() * 1e3,
            ));
        }
        out.push_str(&format!(
            "queue_wait             {:.3} ms\n",
            self.queue_wait_total.as_secs_f64() * 1e3,
        ));
        out.push_str(&format!(
            "compile                {:.3} ms\n",
            self.compile_total.as_secs_f64() * 1e3,
        ));
        out.push_str(&format!(
            "batch_wall             {:.3} ms\n",
            self.batch_wall.as_secs_f64() * 1e3,
        ));
        out.push_str(&format!("binds_total            {}\n", self.binds_total));
        out.push_str(&format!(
            "bind                   {:.3} ms\n",
            self.bind_total.as_secs_f64() * 1e3,
        ));
        out.push_str(&format!(
            "template_cache_hits    {}\n",
            self.template_cache_hits
        ));
        out.push_str(&format!(
            "template_cache_misses  {}\n",
            self.template_cache_misses
        ));
        out
    }

    /// One JSON object with every counter and stage total (microseconds).
    pub fn to_json(&self) -> String {
        let mut stages = String::new();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                stages.push(',');
            }
            let total = self.stage_totals.get(stage).copied().unwrap_or_default();
            stages.push_str(&format!("\"{}\":{}", stage.name(), total.as_micros()));
        }
        let mut passes = String::new();
        for (i, (name, total)) in self.pass_totals.iter().enumerate() {
            if i > 0 {
                passes.push(',');
            }
            passes.push_str(&format!("\"{}\":{}", name, total.as_micros()));
        }
        let mut policies = String::new();
        for (i, (name, t)) in self.policy_totals.iter().enumerate() {
            if i > 0 {
                policies.push(',');
            }
            policies.push_str(&format!(
                "\"{}\":{{\"jobs_ok\":{},\"swaps\":{},\"depth\":{},\"duration_dt\":{}}}",
                name, t.jobs_ok, t.swaps, t.depth, t.duration_dt,
            ));
        }
        format!(
            "{{\"type\":\"metrics\",\"jobs_total\":{},\"jobs_ok\":{},\"jobs_failed\":{},\
             \"jobs_from_cache\":{},\"swaps_inserted\":{},\"reuse_pairs\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
             \"policies\":{{{}}},\
             \"stage_us\":{{{}}},\"pass_us\":{{{}}},\"queue_wait_us\":{},\"compile_us\":{},\
             \"batch_wall_us\":{},\"binds_total\":{},\"bind_us\":{},\
             \"template_cache_hits\":{},\"template_cache_misses\":{},\
             \"sweeps_computed\":{},\"sweeps_reused\":{},\"cache_key_collisions\":{}}}",
            self.jobs_total,
            self.jobs_ok,
            self.jobs_failed,
            self.jobs_from_cache,
            self.swaps_inserted,
            self.reuse_pairs,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            policies,
            stages,
            passes,
            self.queue_wait_total.as_micros(),
            self.compile_total.as_micros(),
            self.batch_wall.as_micros(),
            self.binds_total,
            self.bind_total.as_micros(),
            self.template_cache_hits,
            self.template_cache_misses,
            self.sweeps_computed,
            self.sweeps_reused,
            self.cache.key_collisions,
        )
    }
}

/// Counts realized reuse pairs in a compiled circuit. Each reuse point
/// hands a physical qubit from a finished logical qubit to a fresh one via
/// the paper's fast conditional reset (a classically conditioned X) or a
/// plain `Reset`.
pub fn reuse_pairs_in(circuit: &Circuit) -> usize {
    circuit
        .instructions()
        .iter()
        .filter(|inst| inst.condition.is_some() || matches!(inst.gate, Gate::Reset))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::Qubit;

    #[test]
    fn reuse_pairs_counts_conditional_resets() {
        let mut c = Circuit::new(2, 1);
        c.h(Qubit::new(0));
        assert_eq!(reuse_pairs_in(&c), 0);
        c.reset(Qubit::new(0));
        c.cond_x(Qubit::new(1), caqr_circuit::Clbit::new(0));
        assert_eq!(reuse_pairs_in(&c), 2);
    }

    #[test]
    fn json_includes_every_stage() {
        let metrics = EngineMetrics::default();
        let json = metrics.to_json();
        for stage in Stage::ALL {
            assert!(json.contains(&format!("\"{}\":", stage.name())), "{json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn pass_totals_surface_in_table_and_json() {
        let mut metrics = EngineMetrics::default();
        metrics
            .pass_totals
            .insert("baseline-route", Duration::from_micros(1500));
        metrics
            .pass_totals
            .insert("optimize", Duration::from_micros(250));
        let table = metrics.render_table();
        assert!(table.contains("pass_baseline-route"), "{table}");
        assert!(table.contains("pass_optimize"), "{table}");
        let json = metrics.to_json();
        assert!(
            json.contains("\"pass_us\":{\"baseline-route\":1500,\"optimize\":250}"),
            "{json}"
        );
    }

    #[test]
    fn policy_totals_surface_in_table_json_and_merge() {
        let mut metrics = EngineMetrics::default();
        metrics.policy_totals.insert(
            "hop".to_string(),
            PolicyTotals {
                jobs_ok: 2,
                swaps: 5,
                depth: 40,
                duration_dt: 900,
            },
        );
        let table = metrics.render_table();
        assert!(
            table.contains("policy_hop") && table.contains("swaps=5"),
            "{table}"
        );
        let json = metrics.to_json();
        assert!(
            json.contains(
                "\"policies\":{\"hop\":{\"jobs_ok\":2,\"swaps\":5,\"depth\":40,\"duration_dt\":900}}"
            ),
            "{json}"
        );
        let mut other = EngineMetrics::default();
        other.policy_totals.insert(
            "hop".to_string(),
            PolicyTotals {
                jobs_ok: 1,
                swaps: 3,
                depth: 10,
                duration_dt: 100,
            },
        );
        other
            .policy_totals
            .insert("noise-aware".to_string(), PolicyTotals::default());
        metrics.merge(&other);
        assert_eq!(metrics.policy_totals["hop"].swaps, 8);
        assert_eq!(metrics.policy_totals["hop"].jobs_ok, 3);
        assert_eq!(metrics.policy_totals["hop"].duration_dt, 1000);
        assert!(metrics.policy_totals.contains_key("noise-aware"));
    }

    #[test]
    fn table_lists_all_counters() {
        let table = EngineMetrics::default().render_table();
        for key in [
            "jobs_total",
            "swaps_inserted",
            "reuse_pairs",
            "cache_hits",
            "queue_wait",
            "compile",
            "batch_wall",
        ] {
            assert!(table.contains(key), "missing {key} in:\n{table}");
        }
    }

    #[test]
    fn queue_wait_and_compile_surface_in_json() {
        let metrics = EngineMetrics {
            queue_wait_total: Duration::from_micros(120),
            compile_total: Duration::from_micros(3400),
            ..Default::default()
        };
        let json = metrics.to_json();
        assert!(json.contains("\"queue_wait_us\":120"), "{json}");
        assert!(json.contains("\"compile_us\":3400"), "{json}");
    }

    #[test]
    fn bind_counters_surface_in_table_json_and_merge() {
        let mut metrics = EngineMetrics {
            binds_total: 3,
            bind_total: Duration::from_micros(42),
            template_cache_hits: 2,
            template_cache_misses: 1,
            ..Default::default()
        };
        let table = metrics.render_table();
        assert!(table.contains("binds_total            3"), "{table}");
        assert!(table.contains("template_cache_hits    2"), "{table}");
        let json = metrics.to_json();
        assert!(json.contains("\"binds_total\":3"), "{json}");
        assert!(json.contains("\"bind_us\":42"), "{json}");
        assert!(json.contains("\"template_cache_hits\":2"), "{json}");
        assert!(json.contains("\"template_cache_misses\":1"), "{json}");
        let other = EngineMetrics {
            binds_total: 1,
            bind_total: Duration::from_micros(8),
            template_cache_hits: 1,
            ..Default::default()
        };
        metrics.merge(&other);
        assert_eq!(metrics.binds_total, 4);
        assert_eq!(metrics.bind_total, Duration::from_micros(50));
        assert_eq!(metrics.template_cache_hits, 3);
        assert_eq!(metrics.template_cache_misses, 1);
    }

    #[test]
    fn sweep_counters_surface_in_table_json_and_merge() {
        let mut metrics = EngineMetrics {
            sweeps_computed: 24,
            sweeps_reused: 72,
            ..Default::default()
        };
        let table = metrics.render_table();
        assert!(table.contains("sweeps_computed        24"), "{table}");
        assert!(table.contains("sweeps_reused          72"), "{table}");
        let json = metrics.to_json();
        assert!(
            json.contains("\"sweeps_computed\":24,\"sweeps_reused\":72"),
            "{json}"
        );
        metrics.merge(&EngineMetrics {
            sweeps_computed: 1,
            sweeps_reused: 3,
            ..Default::default()
        });
        assert_eq!((metrics.sweeps_computed, metrics.sweeps_reused), (25, 75));
    }

    #[test]
    fn cache_key_collisions_surface_in_table_json_and_merge() {
        let mut metrics = EngineMetrics {
            cache: CacheStats {
                key_collisions: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let table = metrics.render_table();
        assert!(table.contains("cache_key_collisions   2"), "{table}");
        let json = metrics.to_json();
        assert!(
            json.ends_with(",\"cache_key_collisions\":2}"),
            "appended last: {json}"
        );
        metrics.merge(&EngineMetrics {
            cache: CacheStats {
                key_collisions: 3,
                ..Default::default()
            },
            ..Default::default()
        });
        assert_eq!(
            metrics.cache.key_collisions, 3,
            "a shared cache's stats are cumulative"
        );
    }

    #[test]
    fn merge_accumulates_counters_and_timings() {
        let mut total = EngineMetrics {
            jobs_total: 2,
            jobs_ok: 2,
            queue_wait_total: Duration::from_micros(10),
            compile_total: Duration::from_micros(100),
            batch_wall: Duration::from_micros(500),
            ..Default::default()
        };
        total
            .pass_totals
            .insert("optimize", Duration::from_micros(40));
        let mut other = EngineMetrics {
            jobs_total: 3,
            jobs_ok: 2,
            jobs_failed: 1,
            swaps_inserted: 4,
            queue_wait_total: Duration::from_micros(5),
            compile_total: Duration::from_micros(60),
            batch_wall: Duration::from_micros(200),
            ..Default::default()
        };
        other
            .pass_totals
            .insert("optimize", Duration::from_micros(10));
        other.pass_totals.insert("report", Duration::from_micros(3));
        total.merge(&other);
        assert_eq!(total.jobs_total, 5);
        assert_eq!(total.jobs_ok, 4);
        assert_eq!(total.jobs_failed, 1);
        assert_eq!(total.swaps_inserted, 4);
        assert_eq!(total.queue_wait_total, Duration::from_micros(15));
        assert_eq!(total.compile_total, Duration::from_micros(160));
        assert_eq!(total.batch_wall, Duration::from_micros(700));
        assert_eq!(total.pass_totals["optimize"], Duration::from_micros(50));
        assert_eq!(total.pass_totals["report"], Duration::from_micros(3));
    }
}
