//! The circuit ⇄ JSON codec: the "wire form" `caqr-serve` accepts
//! alongside OpenQASM.
//!
//! The mapping is lossless — angles encode in Rust's shortest round-trip
//! form, so a decoded circuit is bit-identical to the encoded one — and
//! decoding validates everything (arity, operand ranges, duplicate
//! operands, caps on width and length) before any `Circuit` method that
//! could panic is reached.
//!
//! ```json
//! {
//!   "qubits": 2,
//!   "clbits": 2,
//!   "instructions": [
//!     {"gate": "h",       "qubits": [0]},
//!     {"gate": "rzz",     "qubits": [0, 1], "angle": 0.5},
//!     {"gate": "measure", "qubits": [0], "clbit": 0},
//!     {"gate": "x",       "qubits": [1], "cond": 0}
//!   ]
//! }
//! ```

use crate::value::Value;
use caqr_circuit::{Circuit, Clbit, Gate, Instruction, Operands, Param, ParametricCircuit, Qubit};
use std::fmt;

/// Caps enforced while decoding a circuit, so a hostile document cannot
/// request unbounded allocations.
#[derive(Debug, Clone)]
pub struct DecodeLimits {
    /// Maximum declared qubits.
    pub max_qubits: usize,
    /// Maximum declared classical bits.
    pub max_clbits: usize,
    /// Maximum instruction count.
    pub max_instructions: usize,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits {
            max_qubits: 1024,
            max_clbits: 1024,
            max_instructions: 1 << 18,
        }
    }
}

/// A circuit-decode rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitCodecError {
    message: String,
}

impl CircuitCodecError {
    fn new(message: impl Into<String>) -> Self {
        CircuitCodecError {
            message: message.into(),
        }
    }

    /// Human-readable reason.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for CircuitCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circuit decode error: {}", self.message)
    }
}

impl std::error::Error for CircuitCodecError {}

/// Encodes a circuit as its wire-form [`Value`].
pub fn circuit_to_value(circuit: &Circuit) -> Value {
    let instructions = circuit
        .instructions()
        .iter()
        .map(|instr| {
            let mut members: Vec<(String, Value)> = vec![
                ("gate".to_string(), Value::str(instr.gate.name())),
                (
                    "qubits".to_string(),
                    Value::Arr(
                        instr
                            .qubits
                            .iter()
                            .map(|q| Value::num(q.index() as u64))
                            .collect(),
                    ),
                ),
            ];
            match instr.gate {
                Gate::U(t, p, l) => {
                    members.push((
                        "angles".to_string(),
                        Value::Arr(vec![Value::Num(t), Value::Num(p), Value::Num(l)]),
                    ));
                }
                _ => match instr.gate.param() {
                    Some(Param::Slot(k)) => {
                        members.push(("slot".to_string(), Value::num(k as u64)));
                    }
                    Some(Param::Val(a)) => {
                        members.push(("angle".to_string(), Value::Num(a)));
                    }
                    None => {}
                },
            }
            if let Some(c) = instr.clbit {
                members.push(("clbit".to_string(), Value::num(c.index() as u64)));
            }
            if let Some(c) = instr.condition {
                members.push(("cond".to_string(), Value::num(c.index() as u64)));
            }
            Value::Obj(members)
        })
        .collect();
    Value::obj(vec![
        ("qubits", Value::num(circuit.num_qubits() as u64)),
        ("clbits", Value::num(circuit.num_clbits() as u64)),
        ("instructions", Value::Arr(instructions)),
    ])
}

/// Encodes a parametric template as its wire-form [`Value`]: the concrete
/// circuit layout plus a top-level `"slots"` count, with each symbolic
/// rotation carrying `"slot": k` in place of `"angle"`. The mapping is
/// lossless — [`parametric_from_value`] reconstructs the template exactly,
/// symbolic slots and bit-identical concrete angles alike.
pub fn parametric_to_value(template: &ParametricCircuit) -> Value {
    let Value::Obj(mut members) = circuit_to_value(template.circuit()) else {
        unreachable!("circuit_to_value always returns an object");
    };
    members.insert(
        2,
        ("slots".to_string(), Value::num(template.num_slots() as u64)),
    );
    Value::Obj(members)
}

/// Decodes a wire-form circuit under the default [`DecodeLimits`].
///
/// # Errors
///
/// [`CircuitCodecError`] on structural problems, unknown gates, arity or
/// range violations, non-finite angles, symbolic `"slot"` members (the
/// concrete codec never produces a slot-bearing circuit — use
/// [`parametric_from_value`] for templates), or exceeded limits.
pub fn circuit_from_value(value: &Value) -> Result<Circuit, CircuitCodecError> {
    circuit_from_value_with(value, &DecodeLimits::default())
}

/// [`circuit_from_value`] under explicit [`DecodeLimits`].
///
/// # Errors
///
/// Same contract as [`circuit_from_value`].
pub fn circuit_from_value_with(
    value: &Value,
    limits: &DecodeLimits,
) -> Result<Circuit, CircuitCodecError> {
    decode_circuit(value, limits, None)
}

/// Decodes a wire-form parametric template under the default
/// [`DecodeLimits`].
///
/// # Errors
///
/// Everything [`circuit_from_value`] rejects, plus a missing or oversized
/// `"slots"` count and slot ids at or above it.
pub fn parametric_from_value(value: &Value) -> Result<ParametricCircuit, CircuitCodecError> {
    parametric_from_value_with(value, &DecodeLimits::default())
}

/// [`parametric_from_value`] under explicit [`DecodeLimits`].
///
/// # Errors
///
/// Same contract as [`parametric_from_value`].
pub fn parametric_from_value_with(
    value: &Value,
    limits: &DecodeLimits,
) -> Result<ParametricCircuit, CircuitCodecError> {
    let num_slots = field_usize(value, "slots")?;
    let num_slots = u32::try_from(num_slots)
        .map_err(|_| CircuitCodecError::new(format!("{num_slots} slots exceeds u32 range")))?;
    let circuit = decode_circuit(value, limits, Some(num_slots))?;
    ParametricCircuit::new(circuit, num_slots).map_err(|e| CircuitCodecError::new(e.to_string()))
}

fn decode_circuit(
    value: &Value,
    limits: &DecodeLimits,
    num_slots: Option<u32>,
) -> Result<Circuit, CircuitCodecError> {
    let num_qubits = field_usize(value, "qubits")?;
    let num_clbits = field_usize(value, "clbits")?;
    if num_qubits > limits.max_qubits {
        return Err(CircuitCodecError::new(format!(
            "{num_qubits} qubits exceeds the limit of {}",
            limits.max_qubits
        )));
    }
    if num_clbits > limits.max_clbits {
        return Err(CircuitCodecError::new(format!(
            "{num_clbits} clbits exceeds the limit of {}",
            limits.max_clbits
        )));
    }
    let instructions = value
        .get("instructions")
        .and_then(Value::as_array)
        .ok_or_else(|| CircuitCodecError::new("missing \"instructions\" array"))?;
    if instructions.len() > limits.max_instructions {
        return Err(CircuitCodecError::new(format!(
            "{} instructions exceeds the limit of {}",
            instructions.len(),
            limits.max_instructions
        )));
    }
    let mut circuit = Circuit::new(num_qubits, num_clbits);
    for (i, item) in instructions.iter().enumerate() {
        let instr = decode_instruction(item, num_qubits, num_clbits, num_slots)
            .map_err(|e| CircuitCodecError::new(format!("instruction {i}: {}", e.message)))?;
        circuit.push(instr);
    }
    Ok(circuit)
}

fn field_usize(value: &Value, key: &str) -> Result<usize, CircuitCodecError> {
    value
        .get(key)
        .and_then(Value::as_usize)
        .ok_or_else(|| CircuitCodecError::new(format!("missing or invalid \"{key}\"")))
}

fn decode_instruction(
    item: &Value,
    num_qubits: usize,
    num_clbits: usize,
    num_slots: Option<u32>,
) -> Result<Instruction, CircuitCodecError> {
    let name = item
        .get("gate")
        .and_then(Value::as_str)
        .ok_or_else(|| CircuitCodecError::new("missing \"gate\""))?;
    let qubit_values = item
        .get("qubits")
        .and_then(Value::as_array)
        .ok_or_else(|| CircuitCodecError::new("missing \"qubits\""))?;
    // Every index is range-checked, but only a gate's worth are kept: a
    // longer list fails the arity check below.
    let mut qubits = Operands::new();
    for q in qubit_values {
        let idx = q
            .as_usize()
            .ok_or_else(|| CircuitCodecError::new("invalid qubit index"))?;
        if idx >= num_qubits {
            return Err(CircuitCodecError::new(format!(
                "qubit {idx} out of range (declared {num_qubits})"
            )));
        }
        if qubits.len() < Operands::MAX {
            qubits.push(Qubit::new(idx));
        }
    }
    let num_operands = qubit_values.len();
    if num_operands == 2 && qubits[0] == qubits[1] {
        return Err(CircuitCodecError::new("two-qubit operands must differ"));
    }

    let angle = |key: &str| -> Result<f64, CircuitCodecError> {
        let a = item
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| CircuitCodecError::new(format!("gate '{name}' needs \"{key}\"")))?;
        if !a.is_finite() {
            return Err(CircuitCodecError::new("non-finite angle"));
        }
        Ok(a)
    };
    // A single-angle rotation carries either a concrete "angle" or (in the
    // parametric codec only) a symbolic "slot" id, never both.
    let rotation = || -> Result<f64, CircuitCodecError> {
        let Some(slot) = item.get("slot") else {
            return angle("angle");
        };
        let Some(num_slots) = num_slots else {
            return Err(CircuitCodecError::new(format!(
                "gate '{name}' carries a symbolic \"slot\" in a concrete circuit"
            )));
        };
        if item.get("angle").is_some() {
            return Err(CircuitCodecError::new(
                "\"angle\" and \"slot\" are mutually exclusive",
            ));
        }
        let k = slot
            .as_u64()
            .and_then(|k| u32::try_from(k).ok())
            .ok_or_else(|| CircuitCodecError::new("invalid slot id"))?;
        if k >= num_slots {
            return Err(CircuitCodecError::new(format!(
                "slot {k} out of range (declared {num_slots})"
            )));
        }
        Ok(Param::Slot(k).to_raw())
    };

    let gate = match name {
        "h" => Gate::H,
        "x" => Gate::X,
        "y" => Gate::Y,
        "z" => Gate::Z,
        "s" => Gate::S,
        "sdg" => Gate::Sdg,
        "t" => Gate::T,
        "tdg" => Gate::Tdg,
        "rx" => Gate::Rx(rotation()?),
        "ry" => Gate::Ry(rotation()?),
        "rz" => Gate::Rz(rotation()?),
        "p" => Gate::Phase(rotation()?),
        "u" => {
            let angles = item
                .get("angles")
                .and_then(Value::as_array)
                .ok_or_else(|| CircuitCodecError::new("gate 'u' needs \"angles\""))?;
            let [t, p, l] = angles else {
                return Err(CircuitCodecError::new("gate 'u' needs exactly 3 angles"));
            };
            let decode = |v: &Value| -> Result<f64, CircuitCodecError> {
                let a = v
                    .as_f64()
                    .ok_or_else(|| CircuitCodecError::new("invalid angle"))?;
                if !a.is_finite() {
                    return Err(CircuitCodecError::new("non-finite angle"));
                }
                Ok(a)
            };
            Gate::U(decode(t)?, decode(p)?, decode(l)?)
        }
        "cx" => Gate::Cx,
        "cz" => Gate::Cz,
        "cp" => Gate::Cp(rotation()?),
        "rzz" => Gate::Rzz(rotation()?),
        "swap" => Gate::Swap,
        "measure" => Gate::Measure,
        "reset" => Gate::Reset,
        other => return Err(CircuitCodecError::new(format!("unknown gate '{other}'"))),
    };
    if num_operands != gate.num_qubits() {
        return Err(CircuitCodecError::new(format!(
            "gate '{name}' expects {} qubit(s), got {num_operands}",
            gate.num_qubits(),
        )));
    }

    let clbit = match item.get("clbit") {
        None => None,
        Some(v) => {
            let idx = v
                .as_usize()
                .ok_or_else(|| CircuitCodecError::new("invalid clbit index"))?;
            if idx >= num_clbits {
                return Err(CircuitCodecError::new(format!(
                    "clbit {idx} out of range (declared {num_clbits})"
                )));
            }
            Some(Clbit::new(idx))
        }
    };
    if gate == Gate::Measure && clbit.is_none() {
        return Err(CircuitCodecError::new("measure needs a \"clbit\""));
    }
    if gate != Gate::Measure && clbit.is_some() {
        return Err(CircuitCodecError::new("only measure takes a \"clbit\""));
    }
    let condition = match item.get("cond") {
        None => None,
        Some(v) => {
            let idx = v
                .as_usize()
                .ok_or_else(|| CircuitCodecError::new("invalid cond index"))?;
            if idx >= num_clbits {
                return Err(CircuitCodecError::new(format!(
                    "cond bit {idx} out of range (declared {num_clbits})"
                )));
            }
            Some(Clbit::new(idx))
        }
    };

    Ok(Instruction {
        gate,
        qubits,
        clbit,
        condition,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3, 2);
        c.h(Qubit::new(0));
        c.rz(0.123_456_789_012_345_68, Qubit::new(1));
        c.push_gate(Gate::U(0.3, -1.5, std::f64::consts::PI), &[Qubit::new(2)]);
        c.rzz(0.5, Qubit::new(0), Qubit::new(1));
        c.cx(Qubit::new(1), Qubit::new(2));
        c.measure(Qubit::new(0), Clbit::new(0));
        c.cond_x(Qubit::new(0), Clbit::new(0));
        c.reset(Qubit::new(1));
        c.measure(Qubit::new(2), Clbit::new(1));
        c
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let original = sample();
        let encoded = circuit_to_value(&original).encode();
        let decoded = circuit_from_value(&parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, original);
        assert_eq!(decoded.fingerprint(), original.fingerprint());
    }

    #[test]
    fn decode_rejects_bad_documents() {
        for (bad, why) in [
            (r#"{}"#, "missing qubits"),
            (r#"{"qubits":1,"clbits":0}"#, "missing instructions"),
            (
                r#"{"qubits":1,"clbits":0,"instructions":[{"gate":"zz","qubits":[0]}]}"#,
                "unknown gate",
            ),
            (
                r#"{"qubits":1,"clbits":0,"instructions":[{"gate":"h","qubits":[1]}]}"#,
                "qubit out of range",
            ),
            (
                r#"{"qubits":2,"clbits":0,"instructions":[{"gate":"cx","qubits":[0,0]}]}"#,
                "duplicate operands",
            ),
            (
                r#"{"qubits":2,"clbits":0,"instructions":[{"gate":"cx","qubits":[0]}]}"#,
                "arity",
            ),
            (
                r#"{"qubits":1,"clbits":1,"instructions":[{"gate":"measure","qubits":[0]}]}"#,
                "measure without clbit",
            ),
            (
                r#"{"qubits":1,"clbits":1,"instructions":[{"gate":"h","qubits":[0],"clbit":0}]}"#,
                "clbit on non-measure",
            ),
            (
                r#"{"qubits":1,"clbits":1,"instructions":[{"gate":"measure","qubits":[0],"clbit":3}]}"#,
                "clbit out of range",
            ),
            (
                r#"{"qubits":1,"clbits":1,"instructions":[{"gate":"x","qubits":[0],"cond":9}]}"#,
                "cond out of range",
            ),
            (
                r#"{"qubits":1,"clbits":0,"instructions":[{"gate":"rz","qubits":[0]}]}"#,
                "missing angle",
            ),
            (
                r#"{"qubits":-1,"clbits":0,"instructions":[]}"#,
                "negative width",
            ),
        ] {
            assert!(
                circuit_from_value(&parse(bad).unwrap()).is_err(),
                "should reject: {why}"
            );
        }
    }

    #[test]
    fn a_third_operand_is_an_arity_error() {
        let doc = r#"{"qubits":3,"clbits":0,"instructions":[{"gate":"h","qubits":[0,1,2]}]}"#;
        let err = circuit_from_value(&parse(doc).unwrap()).unwrap_err();
        assert_eq!(
            err.message(),
            "instruction 0: gate 'h' expects 1 qubit(s), got 3"
        );
        // The range check still covers every listed index, first.
        let doc = r#"{"qubits":3,"clbits":0,"instructions":[{"gate":"cx","qubits":[0,1,7]}]}"#;
        let err = circuit_from_value(&parse(doc).unwrap()).unwrap_err();
        assert_eq!(
            err.message(),
            "instruction 0: qubit 7 out of range (declared 3)"
        );
    }

    #[test]
    fn decode_caps_width_and_length() {
        let wide = r#"{"qubits":100000,"clbits":0,"instructions":[]}"#;
        let limits = DecodeLimits {
            max_qubits: 64,
            ..DecodeLimits::default()
        };
        let err = circuit_from_value_with(&parse(wide).unwrap(), &limits).unwrap_err();
        assert!(err.message().contains("exceeds"), "{err}");
        let long = format!(
            r#"{{"qubits":1,"clbits":0,"instructions":[{}]}}"#,
            [r#"{"gate":"h","qubits":[0]}"#; 10].join(",")
        );
        let limits = DecodeLimits {
            max_instructions: 4,
            ..DecodeLimits::default()
        };
        assert!(circuit_from_value_with(&parse(&long).unwrap(), &limits).is_err());
    }

    #[test]
    fn empty_circuit_round_trips() {
        let c = Circuit::new(0, 0);
        let v = circuit_to_value(&c);
        assert_eq!(circuit_from_value(&v).unwrap(), c);
    }

    /// A template mixing symbolic slots and bit-exact concrete angles.
    fn sample_template() -> ParametricCircuit {
        let mut c = Circuit::new(3, 3);
        c.h(Qubit::new(0));
        c.rz(Param::Slot(0).to_raw(), Qubit::new(0));
        c.rx(0.123_456_789_012_345_68, Qubit::new(1));
        c.rzz(Param::Slot(1).to_raw(), Qubit::new(0), Qubit::new(1));
        c.cp(Param::Slot(2).to_raw(), Qubit::new(1), Qubit::new(2));
        c.ry(Param::Slot(0).to_raw(), Qubit::new(2));
        c.measure_all();
        ParametricCircuit::new(c, 3).unwrap()
    }

    #[test]
    fn parametric_round_trip_is_lossless() {
        let original = sample_template();
        let encoded = parametric_to_value(&original).encode();
        assert!(encoded.contains("\"slots\":3"), "{encoded}");
        assert!(encoded.contains("\"slot\":1"), "{encoded}");
        let decoded = parametric_from_value(&parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded.num_slots(), original.num_slots());
        // Slot angles are NaN-boxed, so instruction equality is useless
        // here; fingerprints hash raw bits and catch any drift.
        assert_eq!(
            decoded.circuit().fingerprint(),
            original.circuit().fingerprint()
        );
        assert_eq!(
            decoded.template_fingerprint(),
            original.template_fingerprint()
        );
    }

    #[test]
    fn concrete_codec_rejects_symbolic_slots() {
        let doc = r#"{"qubits":1,"clbits":0,"instructions":[{"gate":"rz","qubits":[0],"slot":0}]}"#;
        let err = circuit_from_value(&parse(doc).unwrap()).unwrap_err();
        assert!(err.message().contains("symbolic"), "{err}");
    }

    #[test]
    fn parametric_decode_rejects_bad_documents() {
        for (bad, why) in [
            (
                r#"{"qubits":1,"clbits":0,"instructions":[]}"#,
                "missing slots",
            ),
            (
                r#"{"qubits":1,"clbits":0,"slots":1,"instructions":[{"gate":"rz","qubits":[0],"slot":1}]}"#,
                "slot out of range",
            ),
            (
                r#"{"qubits":1,"clbits":0,"slots":1,"instructions":[{"gate":"rz","qubits":[0],"slot":0,"angle":0.5}]}"#,
                "angle and slot together",
            ),
            (
                r#"{"qubits":1,"clbits":0,"slots":1,"instructions":[{"gate":"rz","qubits":[0],"slot":-1}]}"#,
                "negative slot",
            ),
            (
                r#"{"qubits":1,"clbits":0,"slots":5000000000,"instructions":[]}"#,
                "slots beyond u32",
            ),
        ] {
            assert!(
                parametric_from_value(&parse(bad).unwrap()).is_err(),
                "should reject: {why}"
            );
        }
    }

    #[test]
    fn parametric_codec_accepts_fully_concrete_templates() {
        let doc = r#"{"qubits":1,"clbits":1,"slots":0,"instructions":[{"gate":"rz","qubits":[0],"angle":0.25},{"gate":"measure","qubits":[0],"clbit":0}]}"#;
        let template = parametric_from_value(&parse(doc).unwrap()).unwrap();
        assert_eq!(template.num_slots(), 0);
        assert_eq!(template.circuit().instructions().len(), 2);
    }
}
