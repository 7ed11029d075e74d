//! The sharded shot loop and the scratch each shard reuses.

use super::noisy::{PauliEvent, TailMemo};
#[cfg(doc)]
use super::plan::Snapshot;
use super::tree::OutcomeTree;
use super::{Executor, Interrupted};
use crate::counts::Counts;
use crate::parallel;
use crate::sparse::SparseState;
use crate::state::StateVector;
use caqr_circuit::Circuit;
use std::sync::atomic::{AtomicBool, Ordering};

/// Shots each worker executes between stop-callback checks in
/// [`Executor::run_shots_cancellable`]. Small enough that a deadline
/// overruns by at most a few dozen shots per worker, large enough that
/// the check (often an `Instant::now` behind a `CancelToken`) stays off
/// the per-shot hot path.
const CANCEL_CHUNK: usize = 32;

/// Per-worker mutable storage reused across shots.
pub(super) struct ShotScratch {
    /// The dense state, created on the first shot that runs on it: a
    /// replay, a noisy fork of a [`Snapshot::State`], a noiseless shot at
    /// a branch its outcome tree leaves unbuilt or a chunked dense shot.
    /// Table forks, tree walks and sparse shots never touch it, so a plan
    /// that only runs those never pays for `2^n` amplitudes per shard.
    pub(super) state: Option<StateVector>,
    /// Sparse twin of `state`, likewise created on the first sparse shot.
    pub(super) sparse: Option<SparseState>,
    /// Pauli events recorded by chunk pre-walks (chunked path only).
    pub(super) events: Vec<PauliEvent>,
    /// Cumulative event counts, one per prefix chunk (chunked path only).
    pub(super) ends: Vec<usize>,
    /// Masses already summed from the prefix table (noisy table forks
    /// only).
    pub(super) memo: TailMemo,
    /// The shard's outcome tree (noiseless plans with a snapshot only).
    pub(super) tree: OutcomeTree,
}

impl ShotScratch {
    /// Scratch for a shard of `shots` shots.
    pub(super) fn new(shots: usize) -> Self {
        ShotScratch {
            state: None,
            sparse: None,
            events: Vec::new(),
            ends: Vec::new(),
            memo: TailMemo::default(),
            tree: OutcomeTree {
                left: shots,
                ..OutcomeTree::default()
            },
        }
    }
}

impl Executor {
    /// The sharded shot loop of every engine: shots split into contiguous
    /// shards over `threads` workers, each shard with its own scratch
    /// made by `scratch` from its shot count, a stop check every
    /// `CANCEL_CHUNK` shots, and the shard histograms merged. `shot` runs
    /// one shot and returns its classical register and whether it forked
    /// from a snapshot; `built` reads how many branch states a shard's
    /// scratch built. Returns the histogram, the forked shots, the branch
    /// states and the worker count.
    pub(super) fn run_sharded<S>(
        &self,
        circuit: &Circuit,
        shots: usize,
        should_stop: &(dyn Fn() -> bool + Sync),
        scratch: impl Fn(usize) -> S + Sync,
        shot: impl Fn(&mut S, u64) -> (u64, bool) + Sync,
        built: impl Fn(&S) -> usize + Sync,
    ) -> Result<(Counts, usize, usize, usize), Interrupted> {
        let workers = parallel::effective_workers(self.threads, shots);
        let stopped = AtomicBool::new(false);
        let shards = parallel::run_shards(workers, shots, |range| {
            let mut counts = Counts::new(circuit.num_clbits());
            let mut state = scratch(range.len());
            let mut forks = 0usize;
            for (done, index) in range.enumerate() {
                if done % CANCEL_CHUNK == 0 && (stopped.load(Ordering::Relaxed) || should_stop()) {
                    stopped.store(true, Ordering::Relaxed);
                    break;
                }
                let (value, forked) = shot(&mut state, index as u64);
                counts.record(value);
                forks += usize::from(forked);
            }
            (counts, forks, built(&state))
        });
        if stopped.load(Ordering::Relaxed) {
            return Err(Interrupted);
        }
        let mut counts = Counts::new(circuit.num_clbits());
        let (mut forks, mut branch_states) = (0, 0);
        for (shard, shard_forks, shard_built) in &shards {
            counts.merge(shard);
            forks += shard_forks;
            branch_states += shard_built;
        }
        Ok((counts, forks, branch_states, workers))
    }
}
