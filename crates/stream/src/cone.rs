//! Online causal-cone tracking over logical qubits.
//!
//! A measurement's *causal cone* is the set of qubits whose operations
//! can influence its outcome. Batch cone analysis walks a full DAG
//! backwards from each measurement; here we exploit that for
//! *scheduling* purposes only the qubit-level partition matters: two
//! qubits are in the same cone class iff a chain of multi-qubit gates
//! connects them. That partition is exactly what a union-find maintains
//! online in near-constant time per gate, with no DAG at all.
//!
//! A cone *closes* when every qubit in its class has been retired
//! (measured, with no later operations). Closed cones are the unit of
//! progress for streaming reuse: their wires are all free again.

/// Union-find over logical qubit indices with per-class retirement
/// counts. Grows on demand as qubits first appear; fed by the window
/// scheduler, indices stay below [`crate::MAX_LOGICAL_QUBITS`].
#[derive(Debug, Default)]
pub struct ConeTracker {
    /// `parent[i] == i` for roots.
    parent: Vec<usize>,
    /// Class size, valid at roots.
    size: Vec<u32>,
    /// Retired members, valid at roots.
    retired: Vec<u32>,
    cones_closed: u64,
    peak_cone: u32,
}

impl ConeTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        ConeTracker::default()
    }

    /// Ensures qubit `q` exists (as a singleton cone if new).
    pub fn touch(&mut self, q: usize) {
        while self.parent.len() <= q {
            self.parent.push(self.parent.len());
            self.size.push(1);
            self.retired.push(0);
        }
    }

    fn find(&mut self, mut q: usize) -> usize {
        while self.parent[q] != q {
            // Path halving: point at the grandparent as we walk.
            self.parent[q] = self.parent[self.parent[q]];
            q = self.parent[q];
        }
        q
    }

    /// Merges the cones of `a` and `b` (a multi-qubit gate touched both).
    pub fn merge(&mut self, a: usize, b: usize) {
        self.touch(a.max(b));
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        self.retired[big] += self.retired[small];
        self.peak_cone = self.peak_cone.max(self.size[big]);
    }

    /// Marks `q` retired (measured with no later operations). Counts the
    /// cone closed once every member is retired.
    ///
    /// Callers must retire each qubit at most once; the scheduler's
    /// retired-wire bookkeeping guarantees this.
    pub fn retire(&mut self, q: usize) {
        self.touch(q);
        let r = self.find(q);
        self.retired[r] += 1;
        if self.retired[r] == self.size[r] {
            self.cones_closed += 1;
        }
    }

    /// Number of cones fully closed so far.
    pub fn cones_closed(&self) -> u64 {
        self.cones_closed
    }

    /// Size of the largest cone class ever formed (1 if no merges).
    pub fn peak_cone(&self) -> usize {
        self.peak_cone.max(u32::from(!self.parent.is_empty())) as usize
    }

    /// Number of distinct qubits seen.
    pub fn qubits_seen(&self) -> usize {
        self.parent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_cone_closes_on_retire() {
        let mut t = ConeTracker::new();
        t.touch(0);
        assert_eq!(t.cones_closed(), 0);
        t.retire(0);
        assert_eq!(t.cones_closed(), 1);
    }

    #[test]
    fn merged_cone_needs_every_member() {
        let mut t = ConeTracker::new();
        t.merge(0, 1);
        t.merge(1, 2);
        t.retire(0);
        t.retire(2);
        assert_eq!(t.cones_closed(), 0);
        t.retire(1);
        assert_eq!(t.cones_closed(), 1);
        assert_eq!(t.peak_cone(), 3);
    }

    #[test]
    fn merge_after_partial_retirement_carries_counts() {
        let mut t = ConeTracker::new();
        t.touch(0);
        t.retire(0);
        assert_eq!(t.cones_closed(), 1);
        // A disjoint pair, one side retired, then merged: the union
        // remembers the retirement.
        t.merge(1, 2);
        t.retire(1);
        t.merge(2, 3);
        t.retire(3);
        assert_eq!(t.cones_closed(), 1);
        t.retire(2);
        assert_eq!(t.cones_closed(), 2);
    }

    #[test]
    fn independent_cones_close_independently() {
        let mut t = ConeTracker::new();
        for q in 0..6 {
            t.touch(q);
        }
        t.merge(0, 1);
        t.merge(2, 3);
        t.retire(0);
        t.retire(1);
        assert_eq!(t.cones_closed(), 1);
        t.retire(4);
        assert_eq!(t.cones_closed(), 2);
        t.retire(2);
        t.retire(3);
        assert_eq!(t.cones_closed(), 3);
        assert_eq!(t.qubits_seen(), 6);
    }
}
