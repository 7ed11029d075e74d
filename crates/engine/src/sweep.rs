//! The per-batch sweep memo: one routed QS sweep per key, shared by every
//! QS strategy of a batch.
//!
//! A QS strategy is the routed sweep ([`caqr::SWEEP_PASSES`]) followed by
//! its own selection ([`caqr::Strategy::sweep_objective`]), and the sweep
//! depends only on the input circuit, the device and the routing policy.
//! So the QS strategies of one (circuit, device, router) in a batch all
//! build the same sweep. [`SweepMemo::plan`] groups a batch's QS jobs by
//! that key before its workers start: by fingerprint first, then by
//! comparing circuit, device and router in full, so two jobs share a sweep
//! only when every input is equal, never on a hash alone. A `CompileJob`
//! carries no template slots; a circuit holding NaN-boxed slot angles
//! never compares equal and so never shares. Only keys that two or more QS
//! jobs hold get an entry; a batch in which no key repeats gets an empty
//! memo and takes no lock.
//!
//! An entry is single-flight. The first of its jobs to arrive builds the
//! sweep and publishes it; a job arriving meanwhile waits, then runs only
//! its selection. If the build fails (a compile error, cancellation or a
//! panic), the entry resets and the next job builds the sweep itself, so
//! each job returns the error it would return alone. Once the last job of
//! a key has finished (hit, miss or failure), the entry drops its sweep.

use crate::job::CompileJob;
use crate::metrics::EngineMetrics;
use caqr::{
    CancelToken, CaqrError, CompileCtx, CompileReport, PassManager, RoutedSweep, StageTrace,
};
use caqr_circuit::fingerprint::{Fingerprint, StableHasher};
use caqr_circuit::Circuit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One batch's shared sweeps, and how many sweeps its QS jobs built and
/// reused.
#[derive(Debug, Default)]
pub(crate) struct SweepMemo {
    /// For each job index, the entry its key shares. Empty when no key
    /// repeats.
    entry_of: Vec<Option<usize>>,
    entries: Vec<Entry>,
    computed: AtomicUsize,
    reused: AtomicUsize,
}

impl SweepMemo {
    /// Groups the QS jobs of a batch by sweep key; one entry per key that
    /// two or more of them hold.
    pub(crate) fn plan(jobs: &[CompileJob]) -> Self {
        let mut memo = SweepMemo::default();
        let qs = || {
            jobs.iter()
                .enumerate()
                .filter(|(_, job)| job.strategy.sweep_objective().is_some())
        };
        if qs().nth(1).is_none() {
            return memo;
        }
        let mut keyed: Vec<(Fingerprint, usize)> = qs()
            .map(|(index, job)| (sweep_fingerprint(job), index))
            .collect();
        keyed.sort_unstable();
        for same_hash in keyed.chunk_by(|a, b| a.0 == b.0) {
            let first = same_hash[0].1;
            // A job equal to the first on the hash alone builds its own
            // sweep; so does one whose circuit holds a NaN angle (a
            // template slot), which never compares equal.
            let group: Vec<usize> = same_hash
                .iter()
                .map(|&(_, index)| index)
                .filter(|&index| index == first || same_sweep(&jobs[first], &jobs[index]))
                .collect();
            if group.len() < 2 {
                continue;
            }
            if memo.entry_of.is_empty() {
                memo.entry_of = vec![None; jobs.len()];
            }
            for &index in &group {
                memo.entry_of[index] = Some(memo.entries.len());
            }
            memo.entries.push(Entry::new(group.len()));
        }
        memo
    }

    /// Compiles QS job `index` of the batch: builds its routed sweep, or
    /// takes the one another job of its key built, then runs `selection`
    /// (its strategy's [`PassManager::for_selection`]) on it. The trace
    /// holds only the passes this job ran.
    pub(crate) fn compile(
        &self,
        index: usize,
        job: &CompileJob,
        selection: &PassManager,
        cancel: &CancelToken,
    ) -> (Result<CompileReport, CaqrError>, StageTrace) {
        let mut trace = StageTrace::default();
        let sweep = match self.entry(index) {
            Some(entry) => entry.obtain(|| build_sweep(job, &mut trace, cancel)),
            None => build_sweep(job, &mut trace, cancel).map(|sweep| (sweep, true)),
        };
        let result = sweep.and_then(|(sweep, built)| {
            let counter = if built { &self.computed } else { &self.reused };
            counter.fetch_add(1, Ordering::Relaxed);
            // Selection reads only the sweep, so the context needs no copy
            // of the job's circuit.
            let ctx = CompileCtx::new(Circuit::default(), &job.device, job.strategy)
                .with_router(job.router)
                .with_routed_sweep(sweep);
            selection.run_ctx(ctx, &mut trace, cancel)
        });
        (result, trace)
    }

    /// Counts job `index` as finished, whatever its outcome. The last job
    /// of a key drops the key's sweep.
    pub(crate) fn finish(&self, index: usize) {
        if let Some(entry) = self.entry(index) {
            entry.finish();
        }
    }

    /// Writes the sweep counters into the batch metrics.
    pub(crate) fn record(&self, metrics: &mut EngineMetrics) {
        metrics.sweeps_computed = self.computed.load(Ordering::Relaxed);
        metrics.sweeps_reused = self.reused.load(Ordering::Relaxed);
    }

    fn entry(&self, index: usize) -> Option<&Entry> {
        let entry = (*self.entry_of.get(index)?)?;
        Some(&self.entries[entry])
    }
}

/// Runs the passes every QS strategy shares on `job` and returns their
/// product.
fn build_sweep(
    job: &CompileJob,
    trace: &mut StageTrace,
    cancel: &CancelToken,
) -> Result<Arc<RoutedSweep>, CaqrError> {
    let mut ctx =
        CompileCtx::new(job.circuit.clone(), &job.device, job.strategy).with_router(job.router);
    PassManager::for_sweep().run_in(&mut ctx, trace, cancel)?;
    ctx.routed_sweep.take().ok_or(CaqrError::MissingArtifact {
        pass: "route-sweep",
        artifact: "routed sweep",
    })
}

/// The hashed half of a sweep key: routing policy (bit-exact), circuit and
/// device.
fn sweep_fingerprint(job: &CompileJob) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_str(&job.router.cache_tag());
    h.finish()
        .combine(job.circuit.fingerprint())
        .combine(job.device.fingerprint())
}

/// Whether two jobs build the same routed sweep, with every input
/// compared in full.
fn same_sweep(a: &CompileJob, b: &CompileJob) -> bool {
    a.router == b.router && a.circuit == b.circuit && a.device == b.device
}

/// The sweep of one key and the jobs still to finish with it.
#[derive(Debug)]
struct Entry {
    state: Mutex<State>,
    published: Condvar,
}

#[derive(Debug)]
struct State {
    sweep: Sweep,
    /// Jobs of this key that have not finished yet.
    pending: usize,
}

#[derive(Debug)]
enum Sweep {
    /// Not built, or dropped: the next job to arrive builds it.
    Absent,
    /// A job is building it; the others wait.
    Building,
    Ready(Arc<RoutedSweep>),
}

impl Entry {
    fn new(jobs: usize) -> Self {
        Entry {
            state: Mutex::new(State {
                sweep: Sweep::Absent,
                pending: jobs,
            }),
            published: Condvar::new(),
        }
    }

    /// Every update under this lock is a single assignment or decrement
    /// and nothing under it can panic, so a poisoned guard still holds a
    /// valid state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The entry's sweep, with `true` when this call built it: taken if
    /// published, awaited while another job builds it, otherwise built
    /// here by `build`.
    fn obtain(
        &self,
        build: impl FnOnce() -> Result<Arc<RoutedSweep>, CaqrError>,
    ) -> Result<(Arc<RoutedSweep>, bool), CaqrError> {
        let mut state = self.lock();
        loop {
            match &state.sweep {
                Sweep::Ready(sweep) => return Ok((Arc::clone(sweep), false)),
                Sweep::Building => {
                    state = self
                        .published
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Sweep::Absent => break,
            }
        }
        state.sweep = Sweep::Building;
        drop(state);
        let mut publish = Publish {
            entry: self,
            sweep: None,
        };
        let sweep = build()?;
        publish.sweep = Some(Arc::clone(&sweep));
        Ok((sweep, true))
    }

    fn finish(&self) {
        let mut state = self.lock();
        state.pending -= 1;
        if state.pending == 0 {
            state.sweep = Sweep::Absent;
        }
    }
}

/// Ends a build when dropped: publishes the sweep, or resets the entry
/// when the build failed or panicked so that the next job builds it.
/// Either way it wakes the waiting jobs.
struct Publish<'a> {
    entry: &'a Entry,
    sweep: Option<Arc<RoutedSweep>>,
}

impl Drop for Publish<'_> {
    fn drop(&mut self) {
        self.entry.lock().sweep = match self.sweep.take() {
            Some(sweep) => Sweep::Ready(sweep),
            None => Sweep::Absent,
        };
        self.entry.published.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr::Strategy;
    use caqr_arch::Device;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;

    fn job(strategy: Strategy, seed: u64) -> CompileJob {
        let circuit = caqr_benchmarks::bv::bv_all_ones(4).circuit;
        CompileJob::new("bv4", circuit, Device::mumbai(seed), strategy)
    }

    fn sweep() -> Arc<RoutedSweep> {
        Arc::new(Vec::new())
    }

    #[test]
    fn plan_gives_entries_only_to_repeated_qs_keys() {
        let jobs = [
            job(Strategy::Baseline, 1),
            job(Strategy::QsMaxReuse, 1),
            job(Strategy::Sr, 1),
            job(Strategy::QsMaxEsp, 1),
            job(Strategy::QsMaxReuse, 2),
        ];
        let memo = SweepMemo::plan(&jobs);
        assert_eq!(memo.entries.len(), 1);
        assert_eq!(memo.entry_of, [None, Some(0), None, Some(0), None]);
        assert_eq!(memo.lock_entry(0).pending, 2);
    }

    #[test]
    fn batch_without_a_repeated_key_gets_an_empty_memo() {
        for jobs in [
            vec![job(Strategy::QsMaxReuse, 1)],
            vec![job(Strategy::QsMaxReuse, 1), job(Strategy::QsMinDepth, 2)],
            vec![job(Strategy::Baseline, 1), job(Strategy::Baseline, 1)],
        ] {
            let memo = SweepMemo::plan(&jobs);
            assert_eq!(memo.entry_of.capacity(), 0);
            assert_eq!(memo.entries.capacity(), 0);
            for index in 0..jobs.len() {
                assert!(memo.entry(index).is_none());
                memo.finish(index);
            }
        }
    }

    /// Equal fingerprints are not enough: template circuits hash their
    /// NaN-boxed slot angles bit for bit but never compare equal, so their
    /// jobs build their own sweeps.
    #[test]
    fn equal_hashes_share_only_when_the_keys_compare_equal() {
        let graph = caqr_graph::gen::random_graph(5, 0.5, 3);
        let template = caqr_benchmarks::qaoa::maxcut_template(&graph, 1);
        let jobs: Vec<CompileJob> = [Strategy::QsMaxReuse, Strategy::QsMinDepth]
            .into_iter()
            .map(|s| CompileJob::new("t", template.circuit().clone(), Device::mumbai(1), s))
            .collect();
        assert_eq!(sweep_fingerprint(&jobs[0]), sweep_fingerprint(&jobs[1]));
        assert!(SweepMemo::plan(&jobs).entries.is_empty());
    }

    #[test]
    fn failed_or_panicking_build_hands_the_build_to_the_next_job() {
        let entry = Entry::new(4);
        let failure = CaqrError::DeadlineExceeded { phase: "qs-sweep" };
        assert_eq!(entry.obtain(|| Err(failure.clone())).unwrap_err(), failure);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            entry.obtain(|| panic!("build panicked"))
        }));
        assert!(panicked.is_err());
        let (built, fresh) = entry.obtain(|| Ok(sweep())).expect("third job builds");
        assert!(fresh);
        let (reused, fresh) = entry
            .obtain(|| unreachable!("a published sweep is never rebuilt"))
            .expect("fourth job reuses");
        assert!(!fresh);
        assert!(Arc::ptr_eq(&built, &reused));
    }

    /// Jobs that arrive while the sweep is being built never build it
    /// themselves: they take the one being built, whether they find it
    /// still building or already published.
    #[test]
    fn jobs_arriving_during_a_build_take_its_sweep() {
        let entry = &Entry::new(3);
        let (building_tx, building) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let (arrived_tx, arrived) = mpsc::channel();
        std::thread::scope(|scope| {
            let builder = scope.spawn(move || {
                entry.obtain(|| {
                    building_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(sweep())
                })
            });
            building.recv().unwrap();
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let arrived_tx = arrived_tx.clone();
                    scope.spawn(move || {
                        arrived_tx.send(()).unwrap();
                        entry.obtain(|| unreachable!("only one job builds"))
                    })
                })
                .collect();
            for _ in 0..2 {
                arrived.recv().unwrap();
            }
            release.send(()).unwrap();
            let (built, fresh) = builder.join().unwrap().unwrap();
            assert!(fresh);
            for waiter in waiters {
                let (got, fresh) = waiter.join().unwrap().unwrap();
                assert!(!fresh);
                assert!(Arc::ptr_eq(&built, &got));
            }
        });
    }

    #[test]
    fn last_finished_job_drops_the_sweep() {
        let entry = Entry::new(2);
        let (built, _) = entry.obtain(|| Ok(sweep())).unwrap();
        let weak = Arc::downgrade(&built);
        drop(built);
        entry.finish();
        assert!(weak.upgrade().is_some(), "a job of the key is still to run");
        entry.finish();
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn cancelled_owner_leaves_every_job_its_own_error() {
        let jobs: Vec<CompileJob> = [
            Strategy::QsMaxReuse,
            Strategy::QsMinDepth,
            Strategy::QsMinSwap,
            Strategy::QsMaxEsp,
        ]
        .into_iter()
        .map(|s| job(s, 1))
        .collect();
        let memo = SweepMemo::plan(&jobs);
        let token = CancelToken::new();
        token.cancel();
        for (index, job) in jobs.iter().enumerate() {
            let selection = PassManager::for_selection(job.strategy).expect("QS");
            let (result, _) = memo.compile(index, job, &selection, &token);
            let (alone, _) = caqr::compile_traced_cancellable_with(
                &job.circuit,
                &job.device,
                job.strategy,
                job.router,
                &token,
            );
            assert_eq!(result.unwrap_err(), alone.unwrap_err());
            memo.finish(index);
        }
        assert_eq!(memo.computed.load(Ordering::Relaxed), 0);
        assert_eq!(memo.reused.load(Ordering::Relaxed), 0);
    }

    impl SweepMemo {
        fn lock_entry(&self, entry: usize) -> MutexGuard<'_, State> {
            self.entries[entry].lock()
        }
    }
}
