//! The parametric-template IR: circuits with symbolic rotation slots and
//! the O(gates) bind step that stamps concrete angles in.
//!
//! A [`ParametricCircuit`] wraps an ordinary [`Circuit`] whose rotation
//! angles may be NaN-boxed [`Param::Slot`]s (see [`crate::param`]). The
//! whole compilation pipeline — layout, routing under any cost model,
//! reuse and measure/reset scheduling — is angle-independent, so a
//! template compiles exactly like a concrete circuit; binding the routed
//! artifact afterwards costs one linear walk. The template fingerprint
//! lives in its own domain (a tag is mixed into the hash), so a template
//! can never collide with a concrete circuit in a content-addressed
//! cache.

use crate::circuit::{Circuit, Instruction};
use crate::fingerprint::{Fingerprint, StableHasher};
use crate::gate::Gate;
use crate::param::Param;
use std::collections::HashMap;
use std::fmt;

/// Domain tag for template fingerprints. Concrete circuits hash without
/// any tag, so the two key populations are disjoint by construction.
const TEMPLATE_DOMAIN: &str = "caqr/parametric-template/v1";

/// A structural error in a would-be template.
#[derive(Debug, Clone, PartialEq)]
pub enum ParametricError {
    /// A gate angle is neither a finite value nor a well-formed slot.
    NonFiniteAngle {
        /// Index of the offending instruction.
        index: usize,
    },
    /// A slot id is not below the declared slot count.
    SlotOutOfRange {
        /// Index of the offending instruction.
        index: usize,
        /// The out-of-range slot id.
        slot: u32,
        /// The declared slot count.
        num_slots: u32,
    },
}

impl fmt::Display for ParametricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParametricError::NonFiniteAngle { index } => {
                write!(f, "instruction {index}: non-finite concrete angle")
            }
            ParametricError::SlotOutOfRange {
                index,
                slot,
                num_slots,
            } => write!(
                f,
                "instruction {index}: slot ${slot} out of range (template declares {num_slots})"
            ),
        }
    }
}

impl std::error::Error for ParametricError {}

/// An error from [`ParametricCircuit::bind`].
#[derive(Debug, Clone, PartialEq)]
pub enum BindError {
    /// The value vector length does not match the slot count.
    ArityMismatch {
        /// Slots the template declares.
        expected: u32,
        /// Values supplied.
        got: usize,
    },
    /// A supplied value is NaN or infinite.
    NonFiniteValue {
        /// The slot the bad value was destined for.
        slot: u32,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "template has {expected} slots but {got} values were supplied"
                )
            }
            BindError::NonFiniteValue { slot } => {
                write!(f, "value for slot ${slot} is not finite")
            }
        }
    }
}

impl std::error::Error for BindError {}

/// A compile-once circuit template with `num_slots` symbolic angles.
///
/// Deliberately not `PartialEq`: slot angles are NaN-boxed, so derived
/// float equality would report a template unequal to itself. Compare
/// with [`ParametricCircuit::same_template`], or compare
/// [`ParametricCircuit::template_fingerprint`]s — both read IEEE bit
/// patterns exactly.
#[derive(Debug, Clone)]
pub struct ParametricCircuit {
    circuit: Circuit,
    num_slots: u32,
}

impl ParametricCircuit {
    /// Wraps `circuit` as a template with `num_slots` slots, validating
    /// that every angle is either finite or a slot below `num_slots`.
    ///
    /// # Errors
    ///
    /// [`ParametricError`] when an angle is non-finite without being a
    /// well-formed slot, or references a slot `>= num_slots`.
    pub fn new(circuit: Circuit, num_slots: u32) -> Result<Self, ParametricError> {
        validate_angles(&circuit, num_slots)?;
        Ok(ParametricCircuit { circuit, num_slots })
    }

    /// The underlying circuit (slot angles are NaN-boxed raws).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The number of symbolic slots the template declares.
    pub fn num_slots(&self) -> u32 {
        self.num_slots
    }

    /// Unwraps the template into its raw circuit.
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }

    /// The template's cache key: structure + slot ids, hashed in a domain
    /// disjoint from concrete-circuit fingerprints.
    pub fn template_fingerprint(&self) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_str(TEMPLATE_DOMAIN);
        h.write_u32(self.num_slots);
        h.finish().combine(self.circuit.fingerprint())
    }

    /// Stamps `values` into every slot, producing a fully concrete
    /// circuit in one O(gates) walk.
    ///
    /// # Errors
    ///
    /// [`BindError`] when `values.len() != num_slots` or any value is
    /// non-finite.
    pub fn bind(&self, values: &[f64]) -> Result<Circuit, BindError> {
        bind_circuit(&self.circuit, self.num_slots, values)
    }

    /// Lifts the rotation angles of a concrete circuit into slots, one
    /// slot per distinct IEEE bit pattern, numbered in order of first
    /// occurrence. Returns the template and the value vector that binds
    /// it back to the original: `bind(&values)` is the exact inverse, bit
    /// for bit. Equal angles share a slot, so the template keeps which
    /// rotations of the circuit carry the same angle. `U`'s three angles
    /// admit no slots and stay as they are.
    pub fn parametrize(circuit: &Circuit) -> (ParametricCircuit, Vec<f64>) {
        let mut slot_of: HashMap<u64, u32> = HashMap::new();
        let mut values = Vec::new();
        let lifted = lift_angles(circuit, |v| {
            Some(*slot_of.entry(v.to_bits()).or_insert_with(|| {
                values.push(v);
                values.len() as u32 - 1
            }))
        })
        .expect("every angle gets a slot");
        let num_slots = values.len() as u32;
        (
            ParametricCircuit {
                circuit: lifted,
                num_slots,
            },
            values,
        )
    }

    /// Lifts the rotation angles of `circuit` onto the slots of `values`,
    /// as [`ParametricCircuit::parametrize`] returns them: an angle with
    /// the bit pattern of `values[i]` becomes slot `i`. Returns `None`
    /// when an angle matches no value. This carries the slots of a
    /// parametrized input onto an output that moved its rotations but
    /// kept their angles bit for bit, as every pass after the peephole
    /// does.
    pub fn lift(circuit: &Circuit, values: &[f64]) -> Option<ParametricCircuit> {
        let slot_of: HashMap<u64, u32> = values
            .iter()
            .enumerate()
            .map(|(slot, v)| (v.to_bits(), slot as u32))
            .collect();
        let lifted = lift_angles(circuit, |v| slot_of.get(&v.to_bits()).copied())?;
        Some(ParametricCircuit {
            circuit: lifted,
            num_slots: values.len() as u32,
        })
    }

    /// Whether `self` and `other` are the same template: equal slot
    /// counts and equal instruction streams, every angle compared by its
    /// bit pattern. Unlike `==`, this holds between a template and its
    /// copy, whose slot angles are NaN.
    pub fn same_template(&self, other: &ParametricCircuit) -> bool {
        let (a, b) = (&self.circuit, &other.circuit);
        self.num_slots == other.num_slots
            && a.num_qubits() == b.num_qubits()
            && a.num_clbits() == b.num_clbits()
            && a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                angle_bits(&x.gate) == angle_bits(&y.gate)
                    && std::mem::discriminant(&x.gate) == std::mem::discriminant(&y.gate)
                    && x.qubits == y.qubits
                    && x.clbit == y.clbit
                    && x.condition == y.condition
            })
    }
}

/// The bit patterns of a gate's angles (zero where it has none).
fn angle_bits(gate: &Gate) -> [u64; 3] {
    match *gate {
        Gate::U(theta, phi, lambda) => [theta.to_bits(), phi.to_bits(), lambda.to_bits()],
        _ => [gate.angle().map_or(0, f64::to_bits), 0, 0],
    }
}

/// Rewrites every concrete single-angle rotation of `circuit` to the slot
/// `slot_for` gives its angle; `None` when `slot_for` gives none.
fn lift_angles(circuit: &Circuit, mut slot_for: impl FnMut(f64) -> Option<u32>) -> Option<Circuit> {
    let mut out = Circuit::new(circuit.num_qubits(), circuit.num_clbits());
    for instr in circuit {
        let gate = match instr.gate.param() {
            Some(Param::Val(v)) => instr
                .gate
                .with_angle(Param::Slot(slot_for(v)?).to_raw())
                .expect("param() implies with_angle()"),
            _ => instr.gate,
        };
        out.push(Instruction {
            gate,
            ..instr.clone()
        });
    }
    Some(out)
}

/// Stamps `values` into the slot angles of any circuit (typically a
/// routed template artifact) in one O(gates) walk.
///
/// # Errors
///
/// [`BindError`] on arity mismatch or non-finite values.
pub fn bind_circuit(
    circuit: &Circuit,
    num_slots: u32,
    values: &[f64],
) -> Result<Circuit, BindError> {
    if values.len() != num_slots as usize {
        return Err(BindError::ArityMismatch {
            expected: num_slots,
            got: values.len(),
        });
    }
    if let Some(slot) = values.iter().position(|v| !v.is_finite()) {
        return Err(BindError::NonFiniteValue { slot: slot as u32 });
    }
    let mut out = Circuit::new(circuit.num_qubits(), circuit.num_clbits());
    for instr in circuit {
        let gate = match instr.gate.param() {
            Some(Param::Slot(id)) => {
                // Validated at construction: every slot is < num_slots.
                let gate = instr.gate.with_angle(values[id as usize]);
                gate.expect("param() implies with_angle()")
            }
            _ => instr.gate,
        };
        out.push(Instruction {
            gate,
            ..instr.clone()
        });
    }
    Ok(out)
}

/// Checks that every angle in `circuit` is finite or a slot below
/// `num_slots`. The generic `U(θ,φ,λ)` gate admits no slots — all three
/// angles must be finite.
///
/// # Errors
///
/// The first [`ParametricError`] encountered, in instruction order.
pub fn validate_angles(circuit: &Circuit, num_slots: u32) -> Result<(), ParametricError> {
    for (index, instr) in circuit.iter().enumerate() {
        if let Gate::U(t, p, l) = instr.gate {
            if !(t.is_finite() && p.is_finite() && l.is_finite()) {
                return Err(ParametricError::NonFiniteAngle { index });
            }
            continue;
        }
        match instr.gate.param() {
            Some(Param::Slot(slot)) if slot >= num_slots => {
                return Err(ParametricError::SlotOutOfRange {
                    index,
                    slot,
                    num_slots,
                });
            }
            Some(Param::Val(v)) if !v.is_finite() => {
                return Err(ParametricError::NonFiniteAngle { index });
            }
            _ => {}
        }
    }
    Ok(())
}

/// Returns `true` when any angle in `circuit` is a symbolic slot.
pub fn has_slots(circuit: &Circuit) -> bool {
    circuit
        .iter()
        .any(|i| i.gate.param().is_some_and(Param::is_slot))
}

/// The sorted multiset of slot ids used by `circuit`. Passes must
/// preserve this exactly: reuse, routing, and scheduling may reorder or
/// duplicate-free-insert gates, but never invent or drop a rotation.
pub fn slot_census(circuit: &Circuit) -> Vec<u32> {
    let mut ids: Vec<u32> = circuit
        .iter()
        .filter_map(|i| i.gate.param().and_then(Param::slot))
        .collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Qubit;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn template() -> ParametricCircuit {
        let mut c = Circuit::new(2, 0);
        c.h(q(0));
        c.rzz(Param::Slot(0).to_raw(), q(0), q(1));
        c.rx(Param::Slot(1).to_raw(), q(1));
        c.rz(0.25, q(0));
        ParametricCircuit::new(c, 2).expect("valid template")
    }

    #[test]
    fn bind_stamps_values_and_preserves_everything_else() {
        let t = template();
        let bound = t.bind(&[0.4, -1.1]).unwrap();
        assert_eq!(bound.len(), 4);
        assert_eq!(bound.instructions()[1].gate, Gate::Rzz(0.4));
        assert_eq!(bound.instructions()[2].gate, Gate::Rx(-1.1));
        assert_eq!(bound.instructions()[3].gate, Gate::Rz(0.25));
        assert!(!has_slots(&bound));
    }

    #[test]
    fn bind_checks_arity_and_finiteness() {
        let t = template();
        assert_eq!(
            t.bind(&[0.4]),
            Err(BindError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            t.bind(&[0.4, f64::NAN]),
            Err(BindError::NonFiniteValue { slot: 1 })
        );
    }

    #[test]
    fn construction_rejects_bad_angles() {
        let mut c = Circuit::new(1, 0);
        c.rx(Param::Slot(5).to_raw(), q(0));
        assert_eq!(
            ParametricCircuit::new(c, 2).unwrap_err(),
            ParametricError::SlotOutOfRange {
                index: 0,
                slot: 5,
                num_slots: 2
            }
        );
        let mut c = Circuit::new(1, 0);
        c.rx(f64::NAN, q(0));
        assert_eq!(
            ParametricCircuit::new(c, 0).unwrap_err(),
            ParametricError::NonFiniteAngle { index: 0 }
        );
        let mut c = Circuit::new(1, 0);
        c.push_gate(Gate::U(0.1, f64::INFINITY, 0.2), &[q(0)]);
        assert!(ParametricCircuit::new(c, 0).is_err());
    }

    #[test]
    fn parametrize_then_bind_is_the_identity() {
        let mut c = Circuit::new(3, 1);
        c.h(q(0));
        c.rz(0.3, q(0));
        c.rzz(1.25, q(0), q(1));
        c.cp(-0.5, q(1), q(2));
        c.measure(q(2), crate::circuit::Clbit::new(0));
        let (t, values) = ParametricCircuit::parametrize(&c);
        assert_eq!(t.num_slots(), 3);
        assert_eq!(values, vec![0.3, 1.25, -0.5]);
        let bound = t.bind(&values).unwrap();
        assert_eq!(bound, c);
        assert_eq!(bound.fingerprint(), c.fingerprint());
    }

    #[test]
    fn parametrize_gives_equal_angles_one_slot_in_first_occurrence_order() {
        let mut c = Circuit::new(2, 0);
        c.rz(0.7, q(0));
        c.rzz(0.3, q(0), q(1));
        c.rx(0.7, q(1));
        c.ry(-0.0, q(0));
        c.rz(0.0, q(1));
        c.push_gate(Gate::U(0.3, 0.7, 0.0), &[q(0)]);
        let (t, values) = ParametricCircuit::parametrize(&c);
        assert_eq!(t.num_slots(), 4);
        assert_eq!(
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            [0.7, 0.3, -0.0, 0.0].map(f64::to_bits),
            "-0.0 and 0.0 differ by bits, so they get two slots"
        );
        let slots: Vec<Option<u32>> = t
            .circuit()
            .iter()
            .map(|i| i.gate.param().and_then(Param::slot))
            .collect();
        assert_eq!(slots, [Some(0), Some(1), Some(0), Some(2), Some(3), None]);
        assert_eq!(
            t.circuit().instructions()[5].gate,
            Gate::U(0.3, 0.7, 0.0),
            "U keeps its angles"
        );
        assert_eq!(t.bind(&values).unwrap(), c);
    }

    #[test]
    fn lift_carries_slots_onto_a_reordered_output() {
        let mut c = Circuit::new(2, 0);
        c.rz(0.7, q(0));
        c.rx(0.2, q(1));
        let (t, values) = ParametricCircuit::parametrize(&c);
        let mut moved = Circuit::new(3, 0);
        moved.rx(0.2, q(2));
        moved.swap(q(0), q(2));
        moved.rz(0.7, q(2));
        let lifted = ParametricCircuit::lift(&moved, &values).expect("every angle has a slot");
        assert_eq!(lifted.num_slots(), t.num_slots());
        assert_eq!(slot_census(lifted.circuit()), vec![0, 1]);
        assert_eq!(lifted.bind(&values).unwrap(), moved);
        // An angle the input lacks, even its negation, has no slot.
        moved.rz(-0.7, q(1));
        assert!(ParametricCircuit::lift(&moved, &values).is_none());
    }

    #[test]
    fn same_template_compares_angles_by_bits() {
        let t = template();
        assert!(t.same_template(&t.clone()));
        let mut other = t.circuit().clone();
        other.rz(0.25, q(0));
        let longer = ParametricCircuit::new(other, 2).unwrap();
        assert!(!t.same_template(&longer));
        let wider = ParametricCircuit::new(t.circuit().clone(), 3).unwrap();
        assert!(!t.same_template(&wider), "the slot count is content");
        let mut c = Circuit::new(2, 0);
        c.h(q(0));
        c.rzz(Param::Slot(1).to_raw(), q(0), q(1));
        c.rx(Param::Slot(1).to_raw(), q(1));
        c.rz(0.25, q(0));
        let rewired = ParametricCircuit::new(c, 2).unwrap();
        assert!(!t.same_template(&rewired), "slot ids are content");
        let (a, _) = ParametricCircuit::parametrize(&{
            let mut c = Circuit::new(1, 0);
            c.push_gate(Gate::U(0.0, 0.1, 0.2), &[q(0)]);
            c
        });
        let (b, _) = ParametricCircuit::parametrize(&{
            let mut c = Circuit::new(1, 0);
            c.push_gate(Gate::U(-0.0, 0.1, 0.2), &[q(0)]);
            c
        });
        assert!(!a.same_template(&b), "U angles compare by bits");
    }

    #[test]
    fn template_fingerprint_is_domain_separated() {
        let c = {
            let mut c = Circuit::new(1, 0);
            c.rx(0.5, q(0));
            c
        };
        let (t, _) = ParametricCircuit::parametrize(&c);
        assert_ne!(t.template_fingerprint(), c.fingerprint());
        assert_ne!(t.template_fingerprint(), t.circuit().fingerprint());
        // Slot ids participate: same structure, different slot wiring.
        let mut a = Circuit::new(1, 0);
        a.rx(Param::Slot(0).to_raw(), q(0));
        a.ry(Param::Slot(1).to_raw(), q(0));
        let mut b = Circuit::new(1, 0);
        b.rx(Param::Slot(1).to_raw(), q(0));
        b.ry(Param::Slot(0).to_raw(), q(0));
        let ta = ParametricCircuit::new(a, 2).unwrap();
        let tb = ParametricCircuit::new(b, 2).unwrap();
        assert_ne!(ta.template_fingerprint(), tb.template_fingerprint());
    }

    #[test]
    fn census_and_has_slots() {
        let t = template();
        assert!(has_slots(t.circuit()));
        assert_eq!(slot_census(t.circuit()), vec![0, 1]);
        let bound = t.bind(&[0.1, 0.2]).unwrap();
        assert!(slot_census(&bound).is_empty());
    }
}
