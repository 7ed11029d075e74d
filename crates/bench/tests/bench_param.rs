//! `BENCH_param.json`: the Figs. 15/16 QAOA templates, compiled once and
//! bound, pinned by fingerprint.
//!
//! An optimizer loop pays the compiler once: the routed template does not
//! depend on the angles, so each later iteration is one O(gates) bind.
//! Every row's slot count, routed template and canonically bound circuit
//! must match the file, and the bound template must equal the direct
//! compile of the bound circuit. The file's wall-time columns are frozen
//! history; `tests/floors.rs` holds the bind-vs-compile floors.

use caqr_bench::{mumbai, TemplateRow};
use caqr_circuit::parametric::bind_circuit;
use caqr_wire::Value;

/// The binding the pinned `bound_artifact` uses: the Figs. 15/16
/// starting point `(gamma, 2 beta) = (0.7, 0.6)` for the first layer,
/// nudged per layer so that deeper templates do not repeat values.
fn canonical_values(layers: usize) -> Vec<f64> {
    (0..layers)
        .flat_map(|i| [0.7 - 0.05 * i as f64, 0.6 + 0.1 * i as f64])
        .collect()
}

#[test]
fn templates_bind_to_the_pinned_artifacts() {
    let pins = caqr_wire::parse(include_str!("../../../BENCH_param.json")).expect("pins parse");
    let pinned = pins.get("rows").and_then(Value::as_array).expect("rows");
    let rows = TemplateRow::all();
    assert_eq!(pinned.len(), rows.len(), "one pinned row per template");
    let device = mumbai();
    for (row, pin) in rows.iter().zip(pinned) {
        let what = format!("{} x{} {}", row.bench, row.layers, row.strategy);
        let text = |key| pin.get(key).and_then(Value::as_str);
        assert_eq!(
            (
                text("bench"),
                pin.get("layers").and_then(Value::as_u64),
                text("strategy")
            ),
            (
                Some(row.bench.as_str()),
                Some(row.layers as u64),
                Some(row.strategy.to_string().as_str())
            ),
            "rows out of order"
        );
        let slots = row.template.num_slots();
        assert_eq!(
            pin.get("slots").and_then(Value::as_u64),
            Some(u64::from(slots)),
            "{what}: slots"
        );

        let routed = row.compile(&device).circuit;
        let values = canonical_values(row.layers);
        let bound = bind_circuit(&routed, slots, &values).expect("arity matches");
        let concrete = row.template.bind(&values).expect("finite binding");
        let direct = caqr::compile(&concrete, &device, row.strategy).expect("fits Mumbai");
        assert_eq!(
            bound.fingerprint(),
            direct.circuit.fingerprint(),
            "{what}: bound template != direct compile"
        );
        for (key, circuit) in [("template_artifact", &routed), ("bound_artifact", &bound)] {
            assert_eq!(
                text(key),
                Some(format!("{:032x}", circuit.fingerprint().as_u128()).as_str()),
                "{what}: {key} drifted from its pin"
            );
        }
    }
}
