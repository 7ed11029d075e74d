//! The sliding-window measure → reset → reuse scheduler.
//!
//! Instructions enter in program order and leave in program order — the
//! scheduler never reorders, it only *renames*: logical (source-program)
//! qubits are mapped onto physical wires, and a wire is reclaimed the
//! moment its logical qubit provably has no future. The proof is the
//! window invariant:
//!
//! > An instruction is only emitted once `window` later instructions
//! > have been observed. If a qubit's last touch within that lookahead
//! > is a measurement, nothing in the next `window` instructions uses
//! > it — so it retires, and its wire (after an inserted `reset`) can
//! > host the next fresh logical qubit.
//!
//! Retirement is sound but conservative: a qubit whose next use lies
//! *beyond* the window is mistaken for dead. That case is detected, not
//! miscompiled — touching a retired qubit raises
//! [`StreamError::WindowTooSmall`] so the caller can retry with a larger
//! window. Memory is O(window) buffered instructions plus O(qubits seen)
//! bookkeeping, never O(gates).

use std::collections::VecDeque;

use caqr_circuit::{Gate, Instruction, Operands, Qubit};

use crate::cone::ConeTracker;
use crate::{StreamError, MAX_LOGICAL_QUBITS};

#[derive(Debug, Clone, Copy)]
struct QubitState {
    /// Physical wire currently hosting this logical qubit.
    wire: Option<u32>,
    /// Global index of the newest buffered instruction touching it.
    last_seen: u64,
    /// Retired qubits must never reappear (window invariant).
    retired: bool,
}

const FRESH: QubitState = QubitState {
    wire: None,
    last_seen: 0,
    retired: false,
};

/// The windowed scheduler. Push logical instructions in, collect
/// wire-renamed instructions (with inserted resets) out.
#[derive(Debug)]
pub struct WindowScheduler {
    window: usize,
    buffer: VecDeque<Instruction>,
    /// Global index of the buffer front.
    base: u64,
    qubits: Vec<QubitState>,
    /// Freed (dirty) wires, reused LIFO so hot wires stay hot.
    free: Vec<u32>,
    next_wire: u32,
    live: u32,
    peak_live: u32,
    peak_window: usize,
    resets_inserted: u64,
    gates_in: u64,
    cones: ConeTracker,
}

impl WindowScheduler {
    /// A scheduler with the given lookahead window (clamped to ≥ 1).
    pub fn new(window: usize) -> Self {
        WindowScheduler {
            window: window.max(1),
            buffer: VecDeque::new(),
            base: 0,
            qubits: Vec::new(),
            free: Vec::new(),
            next_wire: 0,
            live: 0,
            peak_live: 0,
            peak_window: 0,
            resets_inserted: 0,
            gates_in: 0,
            cones: ConeTracker::new(),
        }
    }

    /// Accepts the next logical instruction, appending any instructions
    /// it forces out of the window to `out`.
    ///
    /// # Errors
    ///
    /// [`StreamError::WindowTooSmall`] if the instruction touches a
    /// qubit the scheduler already retired,
    /// [`StreamError::QubitIndexTooLarge`] if it names a qubit at or past
    /// [`MAX_LOGICAL_QUBITS`].
    pub fn push(
        &mut self,
        instr: Instruction,
        out: &mut Vec<Instruction>,
    ) -> Result<(), StreamError> {
        let idx = self.base + self.buffer.len() as u64;
        for q in &instr.qubits {
            let qi = q.index();
            if qi >= MAX_LOGICAL_QUBITS {
                return Err(StreamError::QubitIndexTooLarge {
                    qubit: qi,
                    limit: MAX_LOGICAL_QUBITS,
                });
            }
            if self.qubits.len() <= qi {
                self.qubits.resize(qi + 1, FRESH);
            }
            if self.qubits[qi].retired {
                return Err(StreamError::WindowTooSmall {
                    qubit: qi,
                    window: self.window,
                });
            }
            self.qubits[qi].last_seen = idx;
            self.cones.touch(qi);
        }
        if instr.qubits.len() == 2 {
            self.cones
                .merge(instr.qubits[0].index(), instr.qubits[1].index());
        }
        self.gates_in += 1;
        self.buffer.push_back(instr);
        self.peak_window = self.peak_window.max(self.buffer.len());
        if self.buffer.len() > self.window {
            self.emit_front(out);
        }
        Ok(())
    }

    /// Drains every buffered instruction (end of input).
    pub fn finish(&mut self, out: &mut Vec<Instruction>) {
        while !self.buffer.is_empty() {
            self.emit_front(out);
        }
    }

    fn emit_front(&mut self, out: &mut Vec<Instruction>) {
        let idx = self.base;
        self.base += 1;
        let mut instr = self.buffer.pop_front().expect("emit on non-empty buffer");
        // Logical index of the measured qubit, captured before the wire
        // rename below overwrites it.
        let measured = (instr.gate == Gate::Measure).then(|| instr.qubits[0].index());
        for q in &mut instr.qubits {
            let qi = q.index();
            let wire = match self.qubits[qi].wire {
                Some(w) => w,
                None => {
                    let w = self.allocate(out);
                    self.qubits[qi].wire = Some(w);
                    w
                }
            };
            *q = Qubit::new(wire as usize);
        }
        // A measurement that is the qubit's newest buffered touch has no
        // use in the next `window` instructions: retire it.
        if let Some(qi) = measured {
            let state = &mut self.qubits[qi];
            if state.last_seen == idx {
                let wire = state.wire.take().expect("measured qubit has a wire");
                state.retired = true;
                self.free.push(wire);
                self.live -= 1;
                self.cones.retire(qi);
            }
        }
        out.push(instr);
    }

    fn allocate(&mut self, out: &mut Vec<Instruction>) -> u32 {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        match self.free.pop() {
            Some(w) => {
                // The wire carries a measured qubit's stale state; a
                // mid-circuit reset makes it |0> again — the dynamic
                // circuit at the heart of CaQR reuse.
                out.push(Instruction {
                    gate: Gate::Reset,
                    qubits: Operands::from_slice(&[Qubit::new(w as usize)]),
                    clbit: None,
                    condition: None,
                });
                self.resets_inserted += 1;
                w
            }
            None => {
                let w = self.next_wire;
                self.next_wire += 1;
                w
            }
        }
    }

    /// Physical wires allocated so far — the output circuit's width.
    pub fn width(&self) -> usize {
        self.next_wire as usize
    }

    /// Wires currently hosting a live logical qubit.
    pub fn live(&self) -> usize {
        self.live as usize
    }

    /// High-water mark of simultaneously live wires.
    pub fn peak_live(&self) -> usize {
        self.peak_live as usize
    }

    /// High-water mark of buffered (windowed) instructions.
    pub fn peak_window(&self) -> usize {
        self.peak_window
    }

    /// `reset` instructions inserted ahead of wire reuse.
    pub fn resets_inserted(&self) -> u64 {
        self.resets_inserted
    }

    /// Logical instructions accepted.
    pub fn gates_in(&self) -> u64 {
        self.gates_in
    }

    /// The causal-cone tracker (for closed-cone and peak-cone metrics).
    pub fn cones(&self) -> &ConeTracker {
        &self.cones
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::Clbit;

    fn h(q: usize) -> Instruction {
        Instruction::gate(Gate::H, &[Qubit::new(q)])
    }

    fn cx(a: usize, b: usize) -> Instruction {
        Instruction::gate(Gate::Cx, &[Qubit::new(a), Qubit::new(b)])
    }

    fn meas(q: usize, c: usize) -> Instruction {
        Instruction {
            gate: Gate::Measure,
            qubits: Operands::from_slice(&[Qubit::new(q)]),
            clbit: Some(Clbit::new(c)),
            condition: None,
        }
    }

    fn run(window: usize, program: Vec<Instruction>) -> (WindowScheduler, Vec<Instruction>) {
        let mut s = WindowScheduler::new(window);
        let mut out = Vec::new();
        for i in program {
            s.push(i, &mut out).expect("window large enough");
        }
        s.finish(&mut out);
        (s, out)
    }

    /// q0 is measured and dead before q1 starts: one wire serves both.
    #[test]
    fn sequential_lifetimes_share_one_wire() {
        let (s, out) = run(2, vec![h(0), meas(0, 0), h(1), h(1), meas(1, 1)]);
        assert_eq!(s.width(), 1);
        assert_eq!(s.peak_live(), 1);
        assert_eq!(s.resets_inserted(), 1);
        assert_eq!(s.cones().cones_closed(), 2);
        // Order preserved; the reset lands right before q1's first gate.
        let names: Vec<&str> = out.iter().map(|i| i.gate.name()).collect();
        assert_eq!(names, ["h", "measure", "reset", "h", "h", "measure"]);
        // Everything runs on wire 0.
        assert!(out.iter().all(|i| *i.qubits == [Qubit::new(0)]));
    }

    /// Overlapping lifetimes need two wires no matter the window.
    #[test]
    fn overlapping_lifetimes_need_two_wires() {
        let (s, out) = run(16, vec![h(0), cx(0, 1), meas(0, 0), meas(1, 1)]);
        assert_eq!(s.width(), 2);
        assert_eq!(s.resets_inserted(), 0);
        assert_eq!(s.cones().cones_closed(), 1);
        assert_eq!(s.cones().peak_cone(), 2);
        assert_eq!(out.len(), 4);
    }

    /// A measured qubit used again within the window is NOT retired.
    #[test]
    fn mid_circuit_measure_keeps_the_wire() {
        let (s, out) = run(8, vec![h(0), meas(0, 0), h(0), meas(0, 0)]);
        assert_eq!(s.width(), 1);
        assert_eq!(s.resets_inserted(), 0);
        assert_eq!(out.len(), 4);
    }

    /// A use beyond the window after a measure is detected, not
    /// miscompiled.
    #[test]
    fn reuse_beyond_window_is_typed_error() {
        let mut s = WindowScheduler::new(2);
        let mut out = Vec::new();
        s.push(meas(0, 0), &mut out).unwrap();
        for _ in 0..4 {
            s.push(h(1), &mut out).unwrap();
        }
        let err = s.push(h(0), &mut out).expect_err("q0 retired");
        assert_eq!(
            err,
            StreamError::WindowTooSmall {
                qubit: 0,
                window: 2
            }
        );
        assert!(err.to_string().contains("q[0]"));
    }

    /// With a window spanning the whole program the same input compiles
    /// at full lookahead — this is the width-measurement mode.
    #[test]
    fn full_lookahead_equals_min_width_for_chain() {
        // A measurement chain: each qubit interacts then dies.
        let mut prog = Vec::new();
        for q in 0..8 {
            prog.push(h(q));
            if q > 0 {
                prog.push(cx(q - 1, q));
                prog.push(meas(q - 1, q - 1));
            }
        }
        prog.push(meas(7, 7));
        let (s, _) = run(usize::MAX, prog);
        // Only two overlapping lifetimes at any time.
        assert_eq!(s.width(), 2);
        assert_eq!(s.peak_live(), 2);
        assert_eq!(s.resets_inserted(), 6);
    }

    /// Conditions and clbits pass through untouched.
    #[test]
    fn clbits_pass_through() {
        let cond = Instruction {
            gate: Gate::X,
            qubits: Operands::from_slice(&[Qubit::new(1)]),
            clbit: None,
            condition: Some(Clbit::new(0)),
        };
        let (_, out) = run(4, vec![meas(0, 0), cond.clone()]);
        // q0 retires at its measure, so q1 reuses the wire: the emitted
        // stream is [measure, reset, conditional-x].
        assert_eq!(out[0].clbit, Some(Clbit::new(0)));
        let last = out.last().expect("non-empty");
        assert_eq!(last.gate, Gate::X);
        assert_eq!(last.condition, Some(Clbit::new(0)));
    }

    /// An index past the cap fails before any per-qubit table grows.
    #[test]
    fn qubit_index_past_the_cap_is_typed_error() {
        let mut s = WindowScheduler::new(4);
        let mut out = Vec::new();
        s.push(h(3), &mut out).unwrap();
        for qubit in [MAX_LOGICAL_QUBITS, u32::MAX as usize] {
            let err = s.push(h(qubit), &mut out).expect_err("past the cap");
            assert_eq!(
                err,
                StreamError::QubitIndexTooLarge {
                    qubit,
                    limit: MAX_LOGICAL_QUBITS
                }
            );
            assert!(err.to_string().contains(&format!("q[{qubit}]")));
        }
        let err = s
            .push(cx(0, MAX_LOGICAL_QUBITS), &mut out)
            .expect_err("second operand past the cap");
        assert!(matches!(err, StreamError::QubitIndexTooLarge { .. }));
        assert_eq!(s.qubits.len(), 4);
        assert_eq!(s.cones().qubits_seen(), 4);
    }

    #[test]
    fn window_occupancy_is_bounded() {
        let prog: Vec<Instruction> = (0..100).map(|i| h(i % 3)).collect();
        let (s, out) = run(5, prog);
        assert_eq!(s.peak_window(), 6);
        assert_eq!(out.len(), 100);
        assert_eq!(s.gates_in(), 100);
    }
}
