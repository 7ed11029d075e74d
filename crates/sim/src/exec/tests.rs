use super::noisy::ProbTable;
use super::plan::Snapshot;
use super::tree::{state_bytes, table_bytes, At, Node, TREE_BYTES_CAP};
use super::*;
use caqr_arch::Device;
use caqr_circuit::{Clbit, Gate, Qubit};

fn q(i: usize) -> Qubit {
    Qubit::new(i)
}

fn c(i: usize) -> Clbit {
    Clbit::new(i)
}

#[test]
fn deterministic_circuit() {
    let mut circ = Circuit::new(2, 2);
    circ.x(q(0));
    circ.measure_all();
    let counts = Executor::ideal().run_shots(&circ, 50, 1);
    assert_eq!(counts.get(0b01), 50);
}

#[test]
fn bell_pair_correlated() {
    let mut circ = Circuit::new(2, 2);
    circ.h(q(0));
    circ.cx(q(0), q(1));
    circ.measure_all();
    let counts = Executor::ideal().run_shots(&circ, 1000, 2);
    assert_eq!(counts.get(0b01) + counts.get(0b10), 0);
    let p00 = counts.probability(0b00);
    assert!((0.4..0.6).contains(&p00), "p00 = {p00}");
}

#[test]
fn mid_circuit_measure_and_conditional_reset() {
    // Put q0 in |1>, measure-and-reset it, then use it again: the wire
    // must behave as a fresh |0>.
    let mut circ = Circuit::new(1, 2);
    circ.x(q(0));
    circ.measure(q(0), c(0));
    circ.cond_x(q(0), c(0)); // resets to |0>
    circ.measure(q(0), c(1)); // must read 0
    let counts = Executor::ideal().run_shots(&circ, 100, 3);
    assert_eq!(counts.get(0b01), 100, "{counts}");
}

#[test]
fn reuse_wire_runs_second_qubits_gates() {
    // BV-style reuse on 2 wires standing in for 3 logical qubits.
    let mut circ = Circuit::new(2, 3);
    // Logical q0 on wire 0: H . CX into target . H -> deterministic |1>
    // (hidden-string bit 1).
    circ.h(q(0));
    circ.x(q(1));
    circ.h(q(1));
    circ.cx(q(0), q(1));
    circ.h(q(0));
    circ.measure(q(0), c(0));
    circ.cond_x(q(0), c(0));
    // Logical q2 reuses wire 0.
    circ.h(q(0));
    circ.cx(q(0), q(1));
    circ.h(q(0));
    circ.measure(q(0), c(1));
    let counts = Executor::ideal().run_shots(&circ, 200, 4);
    // Both data bits read 1 (hidden string 11).
    assert_eq!(counts.get(0b011), 200, "{counts}");
}

#[test]
fn builtin_reset_equivalent() {
    let mut circ = Circuit::new(1, 1);
    circ.h(q(0));
    circ.reset(q(0));
    circ.measure(q(0), c(0));
    let counts = Executor::ideal().run_shots(&circ, 100, 5);
    assert_eq!(counts.get(0), 100);
}

#[test]
fn noise_degrades_fidelity() {
    // A long CX ladder on Mumbai qubits 0-1: ideal output is |00>.
    let mut circ = Circuit::new(2, 2);
    for _ in 0..20 {
        circ.cx(q(0), q(1));
    }
    circ.measure_all();
    let dev = Device::mumbai(0);
    let noisy = Executor::noisy(NoiseModel::from_device(dev));
    let counts = noisy.run_shots(&circ, 500, 6);
    let p_correct = counts.probability(0b00);
    assert!(p_correct < 1.0, "noise must disturb some shots");
    assert!(p_correct > 0.5, "20 CXs should not destroy the state");
}

#[test]
fn noise_scale_zero_is_ideal() {
    let mut circ = Circuit::new(2, 2);
    circ.h(q(0));
    circ.cx(q(0), q(1));
    circ.measure_all();
    let dev = Device::mumbai(0);
    let quiet = Executor::noisy(NoiseModel::from_device(dev).with_scale(0.0));
    let counts = quiet.run_shots(&circ, 400, 7);
    assert_eq!(counts.get(0b01) + counts.get(0b10), 0);
}

#[test]
fn misread_feed_forward_uses_recorded_bit() {
    // With 100% readout error the recorded bit is always wrong; the
    // conditional X keys off the *recorded* value, leaving the qubit in
    // |1> when it measured 1 (recorded 0 -> no flip) etc.
    let dev = Device::mumbai(0);
    // scale such that readout error saturates at clamp 0.75; instead
    // verify statistically: high noise increases 11/00 confusion.
    let noisy = Executor::noisy(NoiseModel::from_device(dev).with_scale(10.0));
    let mut circ = Circuit::new(1, 2);
    circ.x(q(0));
    circ.measure(q(0), c(0));
    circ.cond_x(q(0), c(0));
    circ.measure(q(0), c(1));
    let counts = noisy.run_shots(&circ, 500, 8);
    // In the ideal world c1 is always 0; with heavy readout noise it
    // sometimes reads 1.
    let ones: usize = counts
        .iter()
        .filter(|(v, _)| v >> 1 & 1 == 1)
        .map(|(_, n)| n)
        .sum();
    assert!(ones > 0, "heavy noise should corrupt the reset");
}

/// A noisy mid-circuit workload exercising idle gaps, feed-forward,
/// readout flips, and resets — the adversarial case for every fast
/// path.
fn stress_circuit() -> Circuit {
    let mut circ = Circuit::new(3, 4);
    circ.h(q(0));
    circ.rz(0.37, q(0));
    circ.h(q(0));
    circ.x(q(1));
    circ.cx(q(0), q(1));
    circ.cx(q(1), q(2));
    circ.measure(q(0), c(0));
    circ.cond_x(q(0), c(0));
    circ.h(q(0));
    circ.swap(q(0), q(2));
    circ.reset(q(1));
    circ.h(q(1));
    circ.cx(q(1), q(2));
    circ.measure(q(0), c(1));
    circ.measure(q(1), c(2));
    circ.measure(q(2), c(3));
    circ
}

#[test]
fn histograms_bit_identical_across_thread_counts() {
    let circ = stress_circuit();
    let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0);
    for exec in [Executor::ideal(), Executor::noisy(noisy)] {
        let reference = exec.clone().with_threads(1).run_shots(&circ, 513, 11);
        for threads in [2, 8] {
            let counts = exec.clone().with_threads(threads).run_shots(&circ, 513, 11);
            assert_eq!(counts, reference, "threads={threads}");
        }
    }
}

#[test]
fn snapshot_on_off_bit_identical() {
    // The commuting circuit's forks read the prefix probability table;
    // the stress circuit's copy the prefix state.
    let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0);
    for circ in [stress_circuit(), commuting_circuit()] {
        for exec in [Executor::ideal(), Executor::noisy(noisy.clone())] {
            let on = exec.clone().with_snapshot(true).run_shots(&circ, 400, 13);
            let off = exec.clone().with_snapshot(false).run_shots(&circ, 400, 13);
            assert_eq!(on, off);
        }
    }
}

#[test]
fn kernels_match_generic_reference_bit_exactly() {
    // Unfused kernels perform the same arithmetic as the dense path
    // (identity multiplications are exact), so even measurement
    // thresholds agree bit for bit on a noisy circuit.
    let circ = stress_circuit();
    let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0);
    let fast = Executor::noisy(noisy.clone()).run_shots(&circ, 400, 19);
    let slow = Executor::noisy(noisy)
        .with_kernels(false)
        .run_shots(&circ, 400, 19);
    assert_eq!(fast, slow);
}

#[test]
fn fused_ideal_matches_reference_histogram() {
    let circ = stress_circuit();
    let fast = Executor::ideal().run_shots(&circ, 400, 23);
    let slow = Executor::ideal()
        .with_kernels(false)
        .run_shots(&circ, 400, 23);
    assert_eq!(fast, slow);
}

#[test]
fn sampling_on_off_agree_statistically() {
    // Deferred sampling draws the same probabilities in a different
    // stream order, so it matches collapse-based execution in
    // distribution (not bit for bit): compare histograms by total
    // variation distance.
    let circ = stress_circuit();
    let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(2.0);
    let shots = 4000usize;
    let on = Executor::noisy(noisy.clone()).run_shots(&circ, shots, 43);
    let off = Executor::noisy(noisy)
        .with_sampling(false)
        .run_shots(&circ, shots, 44);
    let tvd: f64 = (0..16u64)
        .map(|v| (on.probability(v) - off.probability(v)).abs())
        .sum::<f64>()
        / 2.0;
    assert!(tvd < 0.08, "sampled vs collapsed TVD = {tvd}");
}

#[test]
fn sampling_preserves_entanglement_correlations() {
    // Both Bell measurements defer; the conditional draw of the second
    // bit must honour the first exactly.
    let mut circ = Circuit::new(2, 2);
    circ.h(q(0));
    circ.cx(q(0), q(1));
    circ.measure_all();
    let counts = Executor::ideal().run_shots(&circ, 2000, 47);
    assert_eq!(counts.get(0b01) + counts.get(0b10), 0, "{counts}");
    let p00 = counts.probability(0b00);
    assert!((0.4..0.6).contains(&p00), "p00 = {p00}");
}

#[test]
fn repeated_deferred_measurement_is_deterministic() {
    // The same qubit measured twice into different clbits: the second
    // (deferred) read must repeat the first outcome.
    let mut circ = Circuit::new(1, 2);
    circ.h(q(0));
    circ.measure(q(0), c(0));
    circ.measure(q(0), c(1));
    let counts = Executor::ideal().run_shots(&circ, 500, 53);
    assert_eq!(counts.get(0b01) + counts.get(0b10), 0, "{counts}");
}

#[test]
fn clbit_overwrite_order_survives_deferral() {
    // Two measurements write the same clbit; the later one must win
    // even though deferral is in play: |1> reads 1, X flips to |0>,
    // the final read overwrites c0 with 0.
    let mut circ = Circuit::new(1, 1);
    circ.x(q(0));
    circ.measure(q(0), c(0));
    circ.x(q(0));
    circ.measure(q(0), c(0));
    let counts = Executor::ideal().run_shots(&circ, 200, 59);
    assert_eq!(counts.get(0), 200, "{counts}");
}

/// GHZ state, then the first wire is measured, swapped away, flipped,
/// phased, and re-measured — every commutation rule at once.
fn commuting_circuit() -> Circuit {
    let mut circ = Circuit::new(3, 4);
    circ.h(q(0));
    circ.cx(q(0), q(1));
    circ.cx(q(1), q(2));
    circ.measure(q(0), c(0));
    circ.swap(q(0), q(2));
    circ.x(q(2));
    circ.t(q(2));
    circ.measure(q(2), c(1));
    circ.measure(q(0), c(2));
    circ.measure(q(1), c(3));
    circ
}

#[test]
fn deferral_commutes_past_swaps_diagonals_and_flips() {
    // All four measurements defer: c0 relabels through the SWAP onto
    // wire 2 and crosses the X (deterministic flip) and T (diagonal).
    // GHZ collapse bit b gives c0 = b, c1 = !b (post-X re-read),
    // c2 = b (the GHZ partner swapped onto wire 0), c3 = b.
    let circ = commuting_circuit();
    let (counts, report) = Executor::ideal().run_shots_traced(&circ, 2000, 67);
    assert_eq!(report.deferred_measures, 4);
    assert_eq!(counts.get(0b0010) + counts.get(0b1101), 2000, "{counts}");
    assert!(counts.get(0b0010) > 400, "{counts}");
    assert!(counts.get(0b1101) > 400, "{counts}");
}

#[test]
fn commuted_sampling_matches_collapse_statistically() {
    // Under Pauli-twirl noise the deferred path must XOR-correct the
    // reported bits for X/Y events that land on the dead wire after
    // the measurement's original position (the carry masks); compare
    // against in-place collapse by total variation distance. The
    // threshold is calibrated to bite: with these seeds the correct
    // implementation measures 0.020 and dropping the body-flip
    // correction measures 0.069.
    let circ = commuting_circuit();
    let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(6.0);
    let shots = 4000usize;
    let on = Executor::noisy(noisy.clone()).run_shots(&circ, shots, 71);
    let off = Executor::noisy(noisy)
        .with_sampling(false)
        .run_shots(&circ, shots, 73);
    let tvd: f64 = (0..16u64)
        .map(|v| (on.probability(v) - off.probability(v)).abs())
        .sum::<f64>()
        / 2.0;
    assert!(tvd < 0.045, "sampled vs collapsed TVD = {tvd}");
}

#[test]
fn deferred_measures_reported() {
    let circ = stress_circuit();
    // The three terminal measurements defer; c0 feeds a conditional
    // and stays inline.
    let (_, report) = Executor::ideal().run_shots_traced(&circ, 16, 61);
    assert_eq!(report.deferred_measures, 3);
    let (_, off) = Executor::ideal()
        .with_sampling(false)
        .run_shots_traced(&circ, 16, 61);
    assert_eq!(off.deferred_measures, 0);
}

/// A noiseless dynamic Clifford circuit (mid-circuit measurement,
/// feed-forward and reset), which the default executor runs on the
/// stabilizer tableau.
fn clifford_circuit() -> Circuit {
    let mut circ = Circuit::new(3, 3);
    circ.h(q(0));
    circ.cx(q(0), q(1));
    circ.measure(q(0), c(0));
    circ.cond_x(q(2), c(0));
    circ.reset(q(0));
    circ.h(q(0));
    circ.cx(q(1), q(2));
    circ.measure(q(0), c(0));
    circ.measure(q(1), c(1));
    circ.measure(q(2), c(2));
    circ
}

/// The cancellation tests' circuits, each with the engine that carries
/// it: the dense kernels and the tableau share one sharded loop, and
/// both must stop through it.
fn cancellation_cases() -> [(Circuit, KernelDispatch); 2] {
    [
        (stress_circuit(), KernelDispatch::Wide),
        (clifford_circuit(), KernelDispatch::Tableau),
    ]
}

#[test]
fn cancellable_run_matches_uncancelled() {
    let exec = Executor::ideal();
    for (circ, dispatch) in cancellation_cases() {
        let (cancellable, report) = exec
            .run_shots_cancellable(&circ, 300, 11, &|| false)
            .expect("never-stopping");
        assert_eq!(report.kernel_dispatch, dispatch);
        assert_eq!(cancellable, exec.run_shots(&circ, 300, 11));
    }
}

#[test]
fn tripped_stop_callback_interrupts() {
    for (circ, dispatch) in cancellation_cases() {
        let (_, report) = Executor::ideal().run_shots_traced(&circ, 1, 13);
        assert_eq!(report.kernel_dispatch, dispatch);
        let err = Executor::ideal()
            .run_shots_cancellable(&circ, 10_000, 13, &|| true)
            .unwrap_err();
        assert_eq!(err, Interrupted);
        assert!(err.to_string().contains("interrupted"));
    }
}

#[test]
fn mid_run_stop_interrupts_all_shards() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    for (circ, dispatch) in cancellation_cases() {
        let exec = Executor::ideal().with_threads(4);
        let (_, report) = exec.run_shots_traced(&circ, 4, 17);
        assert_eq!(report.kernel_dispatch, dispatch);
        let calls = AtomicUsize::new(0);
        // Fire after a few checkpoints so some shots have already run.
        let result = exec.run_shots_cancellable(&circ, 50_000, 17, &|| {
            calls.fetch_add(1, Ordering::Relaxed) >= 4
        });
        assert_eq!(result.unwrap_err(), Interrupted);
    }
}

#[test]
fn snapshot_forks_are_reported() {
    // Ideal deep prefix: every shot forks from the snapshot.
    let mut circ = Circuit::new(2, 2);
    for i in 0..10 {
        circ.h(q(0));
        circ.rz(0.1 * i as f64, q(0));
        circ.h(q(0));
        circ.cx(q(0), q(1));
    }
    circ.measure_all();
    let (_, report) = Executor::ideal().run_shots_traced(&circ, 64, 31);
    assert!(report.prefix_ops > 0);
    assert_eq!(report.snapshot_forks, 64);
    assert!(
        report.kernels_out < report.gates_in,
        "fusion should shrink the H.CX ladder"
    );
    let (_, off) = Executor::ideal()
        .with_snapshot(false)
        .run_shots_traced(&circ, 64, 31);
    assert_eq!(off.prefix_ops, 0);
    assert_eq!(off.snapshot_forks, 0);
}

#[test]
fn only_tail_only_dense_plans_keep_a_table() {
    let noisy = Executor::noisy(NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0));
    let table = |exec: &Executor, circ: &Circuit| {
        matches!(exec.plan(circ).snapshot, Some(Snapshot::Table(_)))
    };
    // Every measurement of the commuting circuit defers, so the tail
    // is all that follows the prefix.
    let commuting = commuting_circuit();
    assert!(table(&Executor::ideal(), &commuting));
    assert!(table(&noisy, &commuting));
    // The stress circuit's c0 feeds a condition and stays inline.
    assert!(!table(&Executor::ideal(), &stress_circuit()));
    // Low-support circuits fork the sparse state instead.
    let mut ghz_t = Circuit::new(8, 8);
    ghz_t.h(q(0));
    for i in 0..7 {
        ghz_t.cx(q(i), q(i + 1));
    }
    ghz_t.t(q(3));
    ghz_t.measure_all();
    let plan = noisy.plan(&ghz_t);
    assert!(plan.sparse);
    assert!(
        plan.snapshot.is_none(),
        "no dense prefix state beside the sparse one"
    );
    assert!(matches!(plan.sparse_snapshot, Some(Snapshot::State(_))));
    let (_, report) = noisy.run_shots_traced(&ghz_t, 64, 5);
    assert!(plan.boundary_op > 0);
    assert_eq!(report.prefix_ops, plan.boundary_op);
}

#[test]
fn only_shots_that_run_on_the_dense_state_allocate_it() {
    let commuting = commuting_circuit();
    // Ideal shots of a table plan all sample the prefix table.
    let ideal = Executor::ideal();
    let plan = ideal.plan(&commuting);
    assert!(matches!(plan.snapshot, Some(Snapshot::Table(_))));
    let mut scratch = ShotScratch::new(64);
    for shot in 0..64 {
        assert!(plan.run_shot(41, shot, &mut scratch).1);
    }
    assert!(scratch.state.is_none() && scratch.sparse.is_none());
    // Noisy shots fork from the table too, until an X or Y error meets
    // the T gate and the shot replays from |0..0> on a dense state.
    let noisy = Executor::noisy(NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0));
    let plan = noisy.plan(&commuting);
    assert!(matches!(plan.snapshot, Some(Snapshot::Table(_))));
    let mut scratch = ShotScratch::new(300);
    let mut replayed = false;
    for shot in 0..300 {
        replayed |= !plan.run_shot(41, shot, &mut scratch).1;
        assert_eq!(scratch.state.is_some(), replayed, "shot {shot}");
    }
    assert!(replayed, "some shot replays");
}

/// Eleven qubits in a spread superposition, all measured at the end:
/// far more distinct tail masses and outcome paths than the shrunken
/// caps below.
fn spread_circuit() -> Circuit {
    let n = 11;
    let mut circ = Circuit::new(n, n);
    for i in 0..n {
        circ.h(q(i));
        circ.rz(0.3 + 0.2 * i as f64, q(i));
        circ.h(q(i));
    }
    for i in 0..n - 1 {
        circ.cx(q(i), q(i + 1));
    }
    circ.measure_all();
    circ
}

#[test]
fn table_memo_past_its_cap_changes_nothing() {
    // Only noisy table forks memoize masses; noiseless shots walk the
    // outcome tree.
    let circ = spread_circuit();
    let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0);
    let exec = Executor::noisy(noisy);
    let plan = exec.plan(&circ);
    assert!(matches!(plan.snapshot, Some(Snapshot::Table(_))));
    let mut scratch = ShotScratch::new(300);
    scratch.memo.cap = 16;
    let mut capped = Counts::new(circ.num_clbits());
    for shot in 0..300 {
        capped.record(plan.run_shot(29, shot, &mut scratch).0);
    }
    assert_eq!(scratch.memo.masses.len(), 16, "the memo filled up");
    assert_eq!(scratch.tree.built, 0, "noisy shots grow no tree");
    assert_eq!(capped, exec.run_shots(&circ, 300, 29));
    assert_eq!(capped, exec.with_snapshot(false).run_shots(&circ, 300, 29));
}

/// Mid-circuit reads with spread outcomes on every wire, twice over,
/// with feed-forward and a reset between the rounds and a deferred
/// tail after them.
fn branching_circuit() -> Circuit {
    let mut circ = Circuit::new(3, 6);
    for round in 0..2 {
        for i in 0..3 {
            circ.h(q(i));
            circ.rz(0.4 + 0.3 * (i + 3 * round) as f64, q(i));
            circ.h(q(i));
        }
        circ.cx(q(0), q(1));
        for i in 0..3 {
            circ.measure(q(i), c(3 * round + i));
        }
        if round == 0 {
            circ.cond_x(q(2), c(0));
            circ.reset(q(1));
        }
    }
    circ
}

#[test]
fn outcome_tree_past_its_cap_changes_nothing() {
    let circ = branching_circuit();
    let exec = Executor::ideal().with_threads(1);
    let replayed = exec.clone().with_snapshot(false).run_shots(&circ, 400, 37);
    let (counts, report) = exec.run_shots_traced(&circ, 400, 37);
    assert_eq!(counts, replayed);
    assert_eq!(report.deferred_measures, 3);
    assert!(report.branch_states > 8, "{report:?}");
    let plan = exec.plan(&circ);
    assert!(matches!(plan.snapshot, Some(Snapshot::State(_))));
    let n = circ.num_qubits();
    let node = std::mem::size_of::<Node>();
    let leaf = 4 * std::mem::size_of::<ProbTable>() + table_bytes(n);
    // No room past the root; room for one branch state in five node
    // slots; room for a few branch states, a leaf table and twenty
    // node slots.
    for cap in [
        0,
        5 * node + state_bytes(n),
        20 * node + 4 * state_bytes(n) + leaf,
    ] {
        let mut scratch = ShotScratch::new(400);
        scratch.tree.cap = cap;
        let mut capped = Counts::new(circ.num_clbits());
        for shot in 0..400 {
            capped.record(plan.run_shot(37, shot, &mut scratch).0);
        }
        assert!(scratch.tree.bytes() <= cap.max(node), "cap {cap}");
        assert_eq!(scratch.tree.built > 0, cap > 0, "cap {cap}");
        assert!(scratch.tree.built < report.branch_states, "cap {cap}");
        assert!(scratch.state.is_some(), "cap {cap}: some shot replays");
        assert_eq!(capped, replayed, "cap {cap}");
    }
}

#[test]
fn outcome_tree_stores_only_branches_later_shots_may_reach() {
    let circ = branching_circuit();
    let plan = Executor::ideal().plan(&circ);
    let reference = Executor::ideal().with_snapshot(false).plan(&circ);
    let mut replay = ShotScratch::new(4);
    let replays: Vec<u64> = (0..4)
        .map(|shot| reference.run_shot(41, shot, &mut replay).0)
        .collect();
    // The same four shots in a shard of four and as the start of a
    // shard of 400: the short shard stores fewer branches, and a
    // lone shot stores none.
    let run = |shots: u64, left: usize| {
        let mut scratch = ShotScratch::new(left);
        let values: Vec<u64> = (0..shots)
            .map(|shot| plan.run_shot(41, shot, &mut scratch).0)
            .collect();
        (values, scratch.tree.built, scratch.state.is_some())
    };
    let (short, short_built, _) = run(4, 4);
    let (long, long_built, _) = run(4, 400);
    assert_eq!(short, replays);
    assert_eq!(long, replays);
    assert!(short_built < long_built, "{short_built} vs {long_built}");
    let (lone, lone_built, replayed) = run(1, 1);
    assert_eq!(lone, replays[..1]);
    assert_eq!(lone_built, 0);
    assert!(replayed, "a lone shot finishes by replay");
}

#[test]
fn spread_outcomes_fill_the_tree_to_its_cap() {
    // The circuit of `outcome_tree_past_its_cap_matches_replays` in
    // `tests/properties.rs`: thirteen qubits, nine of them read and
    // reset mid-circuit with spread outcomes and feed-forward.
    let (n, reads) = (13, 9);
    let mut circ = Circuit::new(n, n);
    for i in 0..n {
        circ.h(q(i));
        circ.rz(1.4 + 0.05 * i as f64, q(i));
        circ.h(q(i));
    }
    for i in 0..reads {
        circ.measure(q(i), c(i));
        circ.reset(q(i));
        circ.cond_x(q(i + 1), c(i));
    }
    for i in reads..n {
        circ.measure(q(i), c(i));
    }
    let plan = Executor::ideal().plan(&circ);
    let mut scratch = ShotScratch::new(512);
    for shot in 0..512 {
        plan.run_shot(91, shot, &mut scratch);
    }
    let bytes = scratch.tree.bytes();
    assert!(bytes <= TREE_BYTES_CAP, "{bytes} bytes");
    assert!(
        bytes + state_bytes(n) > TREE_BYTES_CAP,
        "{bytes} bytes leave room for another branch state"
    );
}

#[test]
fn outcome_tree_drops_states_no_branch_needs() {
    // Every outcome of this reuse circuit is certain, so the tree is
    // one path, and each node drops its state once its one reachable
    // child exists: only the leaf's table stays.
    let mut circ = Circuit::new(2, 3);
    circ.x(q(0));
    circ.cx(q(0), q(1));
    circ.measure(q(0), c(0));
    circ.cond_x(q(0), c(0));
    circ.h(q(0));
    circ.measure(q(1), c(1));
    circ.cond_x(q(1), c(1));
    circ.h(q(0));
    circ.measure(q(0), c(2));
    let exec = Executor::ideal();
    let plan = exec.plan(&circ);
    let mut scratch = ShotScratch::new(50);
    for shot in 0..50 {
        assert_eq!(plan.run_shot(3, shot, &mut scratch), (0b011, true));
    }
    let tree = &scratch.tree;
    assert_eq!(tree.built, 2, "one branch state and one leaf table");
    assert!(tree
        .nodes
        .iter()
        .all(|n| !matches!(n.at, At::Op { state: Some(_), .. })));
    assert_eq!(tree.tables.len(), 1);
    assert_eq!(tree.held, table_bytes(2));
    assert!(scratch.state.is_none(), "no shot replays");
}

#[test]
fn branch_states_are_reported() {
    let circ = stress_circuit();
    let (_, ideal) = Executor::ideal().run_shots_traced(&circ, 64, 5);
    assert!(ideal.branch_states > 1, "{ideal:?}");
    assert_eq!(ideal.snapshot_forks, 64);
    // The tail-only root leaf is the plan's; only a dynamic body
    // grows branch states.
    let (_, leaf) = Executor::ideal().run_shots_traced(&spread_circuit(), 64, 5);
    assert_eq!(leaf.branch_states, 0);
    assert_eq!(leaf.snapshot_forks, 64);
    let (_, off) = Executor::ideal()
        .with_snapshot(false)
        .run_shots_traced(&circ, 64, 5);
    assert_eq!(off.branch_states, 0);
    // A program that opens with a reset has an empty prefix, and its
    // tree grows from |0..0>.
    let mut reset_first = Circuit::new(3, 4);
    reset_first.reset(q(0));
    for instr in circ.instructions() {
        reset_first.push(instr.clone());
    }
    let (counts, report) = Executor::ideal().run_shots_traced(&reset_first, 64, 5);
    assert_eq!(report.prefix_ops, 0);
    assert!(report.branch_states > 1, "{report:?}");
    let replayed = Executor::ideal()
        .with_snapshot(false)
        .run_shots(&reset_first, 64, 5);
    assert_eq!(counts, replayed);
    let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0);
    let (_, noisy) = Executor::noisy(noisy).run_shots_traced(&circ, 64, 5);
    assert_eq!(noisy.branch_states, 0);
}

#[test]
fn tableau_prefix_matches_runs_from_zero() {
    // A noiseless run starts every shot from the tableau after the
    // first four instructions (the conditioned X never fires); a
    // silent noise model keeps the same draws but starts from |0..0>.
    let mut circ = Circuit::new(3, 3);
    circ.h(q(0));
    circ.cond_x(q(1), c(2));
    circ.cx(q(0), q(1));
    circ.push_gate(Gate::S, &[q(2)]);
    circ.measure(q(0), c(0));
    circ.cond_x(q(2), c(0));
    circ.h(q(1));
    circ.reset(q(0));
    circ.measure(q(1), c(1));
    circ.measure(q(2), c(2));
    let exec = Executor::ideal().with_engine(Engine::Stabilizer);
    let plan = exec.tableau_plan(&circ).expect("Clifford");
    assert_eq!(plan.prefix_len, 4);
    let silent = NoiseModel::from_device(Device::mumbai(0)).with_scale(0.0);
    let zero = Executor::noisy(silent).with_engine(Engine::Stabilizer);
    assert_eq!(zero.tableau_plan(&circ).expect("Clifford").prefix_len, 0);
    assert_eq!(exec.run_shots(&circ, 500, 3), zero.run_shots(&circ, 500, 3));
}

#[test]
#[should_panic(expected = "bind its slots")]
fn unbound_template_is_rejected() {
    let mut c = Circuit::new(1, 1);
    c.rz(
        caqr_circuit::Param::Slot(0).to_raw(),
        caqr_circuit::Qubit::new(0),
    );
    c.measure(caqr_circuit::Qubit::new(0), caqr_circuit::Clbit::new(0));
    Executor::ideal().run_shots(&c, 1, 0);
}
