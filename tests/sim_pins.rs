//! Pins the Monte-Carlo simulator's histograms bit for bit.
//!
//! Every fast path in `caqr_sim::Executor` (snapshot forks, the deferred
//! tail's probability table and its memo, the tableau prefix) promises to
//! leave every random draw, and so every histogram, exactly as it was.
//! This test holds them to it: each histogram below must hash to the
//! value recorded before those paths existed.
//!
//! The noisy cases are the Table 3 workload: the five circuits compiled
//! under baseline and SR-CaQR onto Mumbai, compacted, and simulated under
//! the device's noise model. The noiseless cases cover the tableau engine
//! (the stabilizer ladder, and a GHZ state whose first read is a coin
//! flip), dense circuits that measure only at the end (three with one
//! correct output, and a QAOA instance with a spread distribution), and
//! dense dynamic circuits whose reuse measures and resets mid-circuit:
//! Multiply_13 under SR-CaQR, and the two QAOA templates `/v1/bind-run`
//! serves in the `serve_mix` benchmark, SR-compiled and bound.

use caqr::manager::NoopObserver;
use caqr::{compile, CancelToken, CompileCtx, PassManager, Strategy};
use caqr_arch::Device;
use caqr_benchmarks::qaoa::{maxcut_template, qaoa_benchmark, GraphKind};
use caqr_benchmarks::{bv, extra, revlib, Benchmark};
use caqr_circuit::fingerprint::StableHasher;
use caqr_circuit::parametric::bind_circuit;
use caqr_circuit::Circuit;
use caqr_sim::{Counts, Executor, NoiseModel};

/// Seeds every case runs at.
const SEEDS: [u64; 2] = [7, 2023];

/// Digest of a histogram's `(value, count)` pairs, in value order.
fn digest(counts: &Counts) -> u64 {
    let mut h = StableHasher::new();
    for (value, n) in counts.iter() {
        h.write_u64(value);
        h.write_usize(n);
    }
    h.finish().short()
}

/// `(label, seed, digest)` of every run, in `cases()` order. The first
/// 32 were recorded when every fork still copied the prefix state, the
/// last six when every noiseless shot still re-simulated each
/// mid-circuit measurement.
const PINNED: [(&str, u64, u64); 38] = [
    ("BV_5.baseline", 7, 0xac5eae2787c3ae94),
    ("BV_5.baseline", 2023, 0x9394436e0f8ca7a7),
    ("BV_5.sr", 7, 0x07a759c0611d72af),
    ("BV_5.sr", 2023, 0xc088fce7e88f8b84),
    ("BV_10.baseline", 7, 0xab94fea4a50537ec),
    ("BV_10.baseline", 2023, 0x092d510aca2f4bc2),
    ("BV_10.sr", 7, 0x7724a468c2ffff97),
    ("BV_10.sr", 2023, 0xb45a4243e63908ca),
    ("Multiply_13.baseline", 7, 0x3f56b3a509d7019c),
    ("Multiply_13.baseline", 2023, 0x19f3e8c1fa5894be),
    ("Multiply_13.sr", 7, 0x0f8c5e779895ef70),
    ("Multiply_13.sr", 2023, 0xb4e17a5ea5937f38),
    ("CC_10.baseline", 7, 0x4a606d0a85d75234),
    ("CC_10.baseline", 2023, 0xa2945ade7c773bcd),
    ("CC_10.sr", 7, 0x36944c6a8b6e7f2a),
    ("CC_10.sr", 2023, 0x98805b5e535284b7),
    ("CC_13.baseline", 7, 0xd807c5db0fbb33a0),
    ("CC_13.baseline", 2023, 0xf6ffced583a92733),
    ("CC_13.sr", 7, 0xdb53edc1973bb789),
    ("CC_13.sr", 2023, 0x0e1844daf9389b80),
    ("Stab_10x6.ideal", 7, 0x8a96d6d30d61b461),
    ("Stab_10x6.ideal", 2023, 0xecd37442c2e4371f),
    ("BV_5.ideal", 7, 0xa424f9d858dd7274),
    ("BV_5.ideal", 2023, 0xa424f9d858dd7274),
    ("XOR_5.ideal", 7, 0x572e7344963d865d),
    ("XOR_5.ideal", 2023, 0x572e7344963d865d),
    ("4mod5.ideal", 7, 0x7a546bc80259bfd7),
    ("4mod5.ideal", 2023, 0x7a546bc80259bfd7),
    ("GHZ_12.ideal", 7, 0xc8caca1068702ff7),
    ("GHZ_12.ideal", 2023, 0x291ab81e72b31410),
    ("QAOA10-0.3r.ideal", 7, 0xfb0531855a97a820),
    ("QAOA10-0.3r.ideal", 2023, 0xac0de8d4738cf3e0),
    ("Multiply_13.sr.ideal", 7, 0x73ca3f4eaaee586c),
    ("Multiply_13.sr.ideal", 2023, 0x73ca3f4eaaee586c),
    ("QAOA5-0.5r.bind.ideal", 7, 0x0d0dcef98b5136ff),
    ("QAOA5-0.5r.bind.ideal", 2023, 0x2de6c3e42ed15fc9),
    ("QAOA6-0.5r.bind.ideal", 7, 0x99fcb2e2ea847e79),
    ("QAOA6-0.5r.bind.ideal", 2023, 0x14ccd27d26de075e),
];

/// Every `(label, circuit, executor, shots)` the pins cover.
fn cases() -> Vec<(String, Circuit, Executor, usize)> {
    let device = Device::mumbai(2023);
    let noisy = Executor::noisy(NoiseModel::from_device(device.clone()));
    let mut out = Vec::new();
    for bench in [
        bv::bv_all_ones(5),
        bv::bv_all_ones(10),
        revlib::multiply_13(),
        revlib::cc_10(),
        revlib::cc_13(),
    ] {
        for (label, strategy) in [("baseline", Strategy::Baseline), ("sr", Strategy::Sr)] {
            let report = compile(&bench.circuit, &device, strategy).expect("fits Mumbai");
            out.push((
                format!("{}.{label}", bench.name),
                report.circuit.compact_qubits().0,
                noisy.clone(),
                2000,
            ));
        }
    }
    let ideal = |bench: Benchmark| {
        (
            format!("{}.ideal", bench.name),
            bench.circuit,
            Executor::ideal(),
            256,
        )
    };
    out.push(ideal(extra::stabilizer_ladder(10, 6)));
    out.push(ideal(bv::bv_all_ones(5)));
    out.push(ideal(revlib::xor_5()));
    out.push(ideal(revlib::four_mod5()));
    out.push(ideal(extra::ghz(12)));
    out.push(ideal(qaoa_benchmark(10, 0.3, GraphKind::Random, 2023)));
    let multiply =
        compile(&revlib::multiply_13().circuit, &device, Strategy::Sr).expect("fits Mumbai");
    out.push((
        "Multiply_13.sr.ideal".to_string(),
        multiply.circuit.compact_qubits().0,
        Executor::ideal(),
        256,
    ));
    for k in 0..2u64 {
        out.push(bound_template(5 + k as usize, 7 + k, &device));
    }
    out
}

/// `serve_mix`'s bind-run template on `qaoa_benchmark(n, 0.5, Random,
/// seed)`'s graph: compiled as a template under SR-CaQR onto `device`,
/// bound at fixed angles and compacted, as `/v1/bind-run` simulates it.
fn bound_template(n: usize, seed: u64, device: &Device) -> (String, Circuit, Executor, usize) {
    let bench = qaoa_benchmark(n, 0.5, GraphKind::Random, seed);
    let template = maxcut_template(&bench.graph.expect("QAOA carries its graph"), 1);
    let ctx = CompileCtx::new(template.circuit().clone(), device, Strategy::Sr)
        .with_parametric(template.num_slots());
    let routed = PassManager::for_strategy(Strategy::Sr)
        .run(ctx, &mut NoopObserver, &CancelToken::new())
        .expect("fits Mumbai");
    let bound =
        bind_circuit(&routed.circuit, template.num_slots(), &[0.9, 0.4]).expect("two angles");
    (
        format!("{}.bind.ideal", bench.name),
        bound.compact_qubits().0,
        Executor::ideal(),
        256,
    )
}

#[test]
fn simulator_histograms_match_their_pins() {
    let mut seen = Vec::new();
    for (label, circuit, executor, shots) in cases() {
        for seed in SEEDS {
            let counts = executor.run_shots(&circuit, shots, seed);
            assert_eq!(counts.total(), shots, "{label}");
            seen.push((label.clone(), seed, digest(&counts)));
        }
    }
    let table: Vec<String> = seen
        .iter()
        .map(|(label, seed, d)| format!("    (\"{label}\", {seed}, {d:#018x}),"))
        .collect();
    assert_eq!(seen.len(), PINNED.len(), "recorded:\n{}", table.join("\n"));
    for ((label, seed, d), &(pin_label, pin_seed, pin)) in seen.iter().zip(&PINNED) {
        assert_eq!(
            (label.as_str(), *seed, *d),
            (pin_label, pin_seed, pin),
            "histogram moved; recorded:\n{}",
            table.join("\n")
        );
    }
}
