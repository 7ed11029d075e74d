//! The per-batch sweep memo: one logical QS sweep per key, shared by
//! SR-CaQR and every QS strategy of a batch, and one routed sweep per key,
//! shared by the QS strategies.
//!
//! Every strategy that consumes a sweep ([`caqr::Strategy::consumes_sweep`])
//! starts by building the logical sweep ([`caqr::LOGICAL_SWEEP_PASSES`]). A
//! QS strategy then routes it ([`caqr::SWEEP_PASSES`]) and selects one
//! point ([`caqr::Strategy::sweep_objective`]); SR-CaQR selects its version
//! from the logical sweep itself. Both sweeps depend only on the input
//! circuit, the device and the routing policy, so the consumers of one
//! (circuit, device, router) in a batch all build the same ones.
//! [`SweepMemo::plan`] groups a batch's consumers by that key before its
//! workers start: by fingerprint first, then by comparing circuit, device
//! and router in full, so two jobs share a sweep only when every input is
//! equal, never on a hash alone. A `CompileJob` carries no template slots;
//! a circuit holding NaN-boxed slot angles never compares equal and so
//! never shares. Only keys that two or more consumers hold get an entry; a
//! batch in which no key repeats gets an empty memo and takes no lock.
//!
//! An entry holds two single-flight products. The first job of its key to
//! arrive, QS or SR, builds the logical sweep; the first QS job routes it.
//! A job arriving meanwhile waits for the product it needs, then runs only
//! its selection. SR needs only the logical sweep: it never waits on the
//! routed one, nor fails because of it. If a build fails (a compile error,
//! cancellation or a panic), that product resets and the next job that
//! needs it builds it itself, so each job returns the error it would
//! return alone. Once the last job of a key has finished (hit, miss or
//! failure), the entry drops both products.

use crate::job::CompileJob;
use crate::metrics::EngineMetrics;
use caqr::{
    CancelToken, CaqrError, CompileCtx, CompileReport, LogicalSweep, PassManager, RoutedSweep,
    StageTrace,
};
use caqr_circuit::fingerprint::{Fingerprint, StableHasher};
use caqr_circuit::Circuit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One batch's shared sweeps, and how many sweeps its consumers built and
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
    /// Groups the sweep consumers of a batch by key; one entry per key that
    /// two or more of them hold.
    pub(crate) fn plan(jobs: &[CompileJob]) -> Self {
        let mut memo = SweepMemo::default();
        let consumers = || {
            jobs.iter()
                .enumerate()
                .filter(|(_, job)| job.strategy.consumes_sweep())
        };
        if consumers().nth(1).is_none() {
            return memo;
        }
        let mut keyed: Vec<(Fingerprint, usize)> = consumers()
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

    /// Compiles sweep-consuming job `index` of the batch: obtains the sweep
    /// its `selection` ([`PassManager::for_selection`]) reads, the routed
    /// one for a QS strategy and the logical one for SR, building whatever
    /// its key does not hold yet. Then runs `selection` on it. The trace
    /// holds only the passes this job ran.
    pub(crate) fn compile(
        &self,
        index: usize,
        job: &CompileJob,
        selection: &PassManager,
        cancel: &CancelToken,
    ) -> (Result<CompileReport, CaqrError>, StageTrace) {
        let mut obtain = Obtain {
            entry: self.entry(index),
            job,
            cancel,
            trace: StageTrace::default(),
            built: false,
        };
        // Selection reads only the sweep, so the context needs no copy of
        // the job's circuit.
        let ctx =
            CompileCtx::new(Circuit::default(), &job.device, job.strategy).with_router(job.router);
        let seeded = match job.strategy.sweep_objective() {
            Some(_) => obtain.routed().map(|sweep| ctx.with_routed_sweep(sweep)),
            None => obtain.logical().map(|sweep| ctx.with_sweep(sweep)),
        };
        let Obtain {
            mut trace, built, ..
        } = obtain;
        let result = seeded.and_then(|ctx| {
            let counter = if built { &self.computed } else { &self.reused };
            counter.fetch_add(1, Ordering::Relaxed);
            selection.run(ctx, &mut trace, cancel)
        });
        (result, trace)
    }

    /// Counts job `index` as finished, whatever its outcome. The last job
    /// of a key drops the key's sweeps.
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

/// One job obtaining its sweep: what it builds is timed into `trace`, and
/// `built` records whether it built the logical sweep itself.
struct Obtain<'a> {
    entry: Option<&'a Entry>,
    job: &'a CompileJob,
    cancel: &'a CancelToken,
    trace: StageTrace,
    built: bool,
}

impl Obtain<'_> {
    /// The key's logical sweep: taken if published, awaited while another
    /// job builds it, otherwise built here.
    fn logical(&mut self) -> Result<Arc<LogicalSweep>, CaqrError> {
        let entry = self.entry;
        let mut build = || {
            self.built = true;
            let mut ctx = CompileCtx::new(
                self.job.circuit.clone(),
                &self.job.device,
                self.job.strategy,
            )
            .with_router(self.job.router);
            PassManager::for_logical_sweep().run_in(&mut ctx, &mut self.trace, self.cancel)?;
            ctx.sweep.take().ok_or(CaqrError::MissingArtifact {
                pass: "qs-sweep",
                artifact: "reuse sweep",
            })
        };
        match entry {
            Some(entry) => entry.logical.obtain(build),
            None => build(),
        }
    }

    /// The key's routed sweep, obtained like [`Obtain::logical`]; building
    /// it routes the key's logical sweep.
    fn routed(&mut self) -> Result<Arc<RoutedSweep>, CaqrError> {
        let entry = self.entry;
        let mut build = || {
            let sweep = self.logical()?;
            let mut ctx = CompileCtx::new(Circuit::default(), &self.job.device, self.job.strategy)
                .with_router(self.job.router)
                .with_sweep(sweep);
            PassManager::for_route_sweep().run_in(&mut ctx, &mut self.trace, self.cancel)?;
            ctx.routed_sweep.take().ok_or(CaqrError::MissingArtifact {
                pass: "route-sweep",
                artifact: "routed sweep",
            })
        };
        match entry {
            Some(entry) => entry.routed.obtain(build),
            None => build(),
        }
    }
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

/// Whether two jobs build the same sweeps, with every input compared in
/// full.
fn same_sweep(a: &CompileJob, b: &CompileJob) -> bool {
    a.router == b.router && a.circuit == b.circuit && a.device == b.device
}

/// The sweeps of one key and the jobs still to finish with them.
#[derive(Debug)]
struct Entry {
    logical: Flight<Arc<LogicalSweep>>,
    routed: Flight<Arc<RoutedSweep>>,
    /// Jobs of this key that have not finished yet.
    pending: AtomicUsize,
}

impl Entry {
    fn new(jobs: usize) -> Self {
        Entry {
            logical: Flight::default(),
            routed: Flight::default(),
            pending: AtomicUsize::new(jobs),
        }
    }

    fn finish(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.logical.drop_product();
            self.routed.drop_product();
        }
    }
}

/// One single-flight product of an entry.
#[derive(Debug)]
struct Flight<T> {
    state: Mutex<Product<T>>,
    published: Condvar,
}

#[derive(Debug)]
enum Product<T> {
    /// Not built, or dropped: the next job to need it builds it.
    Absent,
    /// A job is building it; the others wait.
    Building,
    Ready(T),
}

impl<T> Default for Flight<T> {
    fn default() -> Self {
        Flight {
            state: Mutex::new(Product::Absent),
            published: Condvar::new(),
        }
    }
}

impl<T> Flight<T> {
    /// Every update under this lock is a single assignment and nothing
    /// under it can panic, so a poisoned guard still holds a valid state.
    fn lock(&self) -> MutexGuard<'_, Product<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn drop_product(&self) {
        *self.lock() = Product::Absent;
    }
}

impl<T: Clone> Flight<T> {
    /// The product: taken if published, awaited while another job builds
    /// it, otherwise built here by `build`.
    fn obtain(&self, build: impl FnOnce() -> Result<T, CaqrError>) -> Result<T, CaqrError> {
        let mut state = self.lock();
        loop {
            match &*state {
                Product::Ready(product) => return Ok(product.clone()),
                Product::Building => {
                    state = self
                        .published
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Product::Absent => break,
            }
        }
        *state = Product::Building;
        drop(state);
        let mut publish = Publish {
            flight: self,
            product: None,
        };
        let product = build()?;
        publish.product = Some(product.clone());
        Ok(product)
    }
}

/// Ends a build when dropped: publishes the product, or resets the flight
/// when the build failed or panicked so that the next job builds it.
/// Either way it wakes the waiting jobs.
struct Publish<'a, T> {
    flight: &'a Flight<T>,
    product: Option<T>,
}

impl<T> Drop for Publish<'_, T> {
    fn drop(&mut self) {
        *self.flight.lock() = match self.product.take() {
            Some(product) => Product::Ready(product),
            None => Product::Absent,
        };
        self.flight.published.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::compile_alone;
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

    fn logical_sweep() -> Arc<LogicalSweep> {
        Arc::new(LogicalSweep {
            input: None,
            points: Vec::new(),
        })
    }

    #[test]
    fn plan_gives_entries_only_to_repeated_consumer_keys() {
        let jobs = [
            job(Strategy::Baseline, 1),
            job(Strategy::QsMaxReuse, 1),
            job(Strategy::Sr, 1),
            job(Strategy::QsMaxEsp, 1),
            job(Strategy::QsMaxReuse, 2),
            job(Strategy::Sr, 3),
        ];
        let memo = SweepMemo::plan(&jobs);
        assert_eq!(memo.entries.len(), 1);
        assert_eq!(memo.entry_of, [None, Some(0), Some(0), Some(0), None, None]);
        assert_eq!(memo.entries[0].pending.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn batch_without_a_repeated_key_gets_an_empty_memo() {
        for jobs in [
            vec![job(Strategy::QsMaxReuse, 1)],
            vec![job(Strategy::QsMaxReuse, 1), job(Strategy::QsMinDepth, 2)],
            vec![job(Strategy::Sr, 1), job(Strategy::Sr, 2)],
            vec![job(Strategy::Sr, 1), job(Strategy::Baseline, 1)],
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
        let jobs: Vec<CompileJob> = [Strategy::QsMaxReuse, Strategy::Sr]
            .into_iter()
            .map(|s| CompileJob::new("t", template.circuit().clone(), Device::mumbai(1), s))
            .collect();
        assert_eq!(sweep_fingerprint(&jobs[0]), sweep_fingerprint(&jobs[1]));
        assert!(SweepMemo::plan(&jobs).entries.is_empty());
    }

    #[test]
    fn failed_or_panicking_build_hands_the_build_to_the_next_job() {
        let flight = Flight::default();
        let failure = CaqrError::DeadlineExceeded { phase: "qs-sweep" };
        assert_eq!(flight.obtain(|| Err(failure.clone())).unwrap_err(), failure);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            flight.obtain(|| panic!("build panicked"))
        }));
        assert!(panicked.is_err());
        let built = flight.obtain(|| Ok(sweep())).expect("third job builds");
        let reused = flight
            .obtain(|| unreachable!("a published sweep is never rebuilt"))
            .expect("fourth job reuses");
        assert!(Arc::ptr_eq(&built, &reused));
    }

    /// Jobs that arrive while the sweep is being built never build it
    /// themselves: they take the one being built, whether they find it
    /// still building or already published.
    #[test]
    fn jobs_arriving_during_a_build_take_its_sweep() {
        let flight = &Flight::default();
        let (building_tx, building) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let (arrived_tx, arrived) = mpsc::channel();
        std::thread::scope(|scope| {
            let builder = scope.spawn(move || {
                flight.obtain(|| {
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
                        flight.obtain(|| unreachable!("only one job builds"))
                    })
                })
                .collect();
            for _ in 0..2 {
                arrived.recv().unwrap();
            }
            release.send(()).unwrap();
            let built = builder.join().unwrap().unwrap();
            for waiter in waiters {
                assert!(Arc::ptr_eq(&built, &waiter.join().unwrap().unwrap()));
            }
        });
    }

    #[test]
    fn last_finished_job_drops_both_sweeps() {
        let entry = Entry::new(2);
        let logical = Arc::downgrade(&entry.logical.obtain(|| Ok(logical_sweep())).unwrap());
        let routed = Arc::downgrade(&entry.routed.obtain(|| Ok(sweep())).unwrap());
        entry.finish();
        assert!(
            logical.upgrade().is_some(),
            "a job of the key is still to run"
        );
        assert!(routed.upgrade().is_some());
        entry.finish();
        assert!(logical.upgrade().is_none());
        assert!(routed.upgrade().is_none());
    }

    /// A QS job whose routing fails leaves the logical sweep it built to
    /// the key's SR job, which runs only its own passes on it. (A DPQA job
    /// on a fixed-coupling device fails in every routing pass.)
    #[test]
    fn failed_routing_leaves_the_logical_sweep_for_sr() {
        let jobs: Vec<CompileJob> = [Strategy::QsMinSwap, Strategy::Sr]
            .into_iter()
            .map(|s| job(s, 1).with_backend(caqr::RoutingBackendSpec::Dpqa))
            .collect();
        let memo = SweepMemo::plan(&jobs);
        assert_eq!(memo.entries.len(), 1);
        let token = CancelToken::new();
        let mut traces = Vec::new();
        for (index, job) in jobs.iter().enumerate() {
            let selection = PassManager::for_selection(job.strategy).expect("consumer");
            let (result, trace) = memo.compile(index, job, &selection, &token);
            let (alone, _) = compile_alone(job, &CancelToken::new());
            assert!(matches!(
                result,
                Err(CaqrError::BackendDeviceMismatch { .. })
            ));
            assert_eq!(result.unwrap_err(), alone.unwrap_err(), "{}", job.strategy);
            traces.push(trace);
        }
        let passes = |trace: &StageTrace| -> Vec<&str> {
            trace.pass_spans().iter().map(|(name, _)| *name).collect()
        };
        assert_eq!(passes(&traces[0]), caqr::SWEEP_PASSES);
        assert_eq!(passes(&traces[1]), ["sr-route"]);
        assert_eq!(memo.computed.load(Ordering::Relaxed), 0);
        assert_eq!(memo.reused.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cancelled_owner_leaves_every_job_its_own_error() {
        let jobs: Vec<CompileJob> = [
            Strategy::QsMaxReuse,
            Strategy::QsMinDepth,
            Strategy::Sr,
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
            let selection = PassManager::for_selection(job.strategy).expect("consumer");
            let (result, _) = memo.compile(index, job, &selection, &token);
            let (alone, _) = compile_alone(job, &token);
            assert_eq!(result.unwrap_err(), alone.unwrap_err());
            memo.finish(index);
        }
        assert_eq!(memo.computed.load(Ordering::Relaxed), 0);
        assert_eq!(memo.reused.load(Ordering::Relaxed), 0);
    }
}
