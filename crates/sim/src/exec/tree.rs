//! The outcome tree a shard's noiseless shots walk (see
//! [`OutcomeTree`]).

use super::noisy::ProbTable;
use super::plan::{ShotPlan, Snapshot, TailSource, TailWalk};
use crate::complex::C64;
use crate::kernels::Op;
use crate::state::StateVector;
use caqr_circuit::Gate;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// An outcome-tree leaf's table, read as its state would be: no frame,
/// no memo (the tree memoizes the draws themselves).
impl TailSource for &ProbTable {
    fn bit(&self, q: usize) -> usize {
        self.map[q]
    }

    fn mass(&mut self, mask: usize, value: usize) -> f64 {
        self.masked_sum(0, mask, value)
    }
}

/// Heap bytes one shard's outcome tree may hold in node slots (as
/// allocated), node states and leaf tables. A shot that reaches an
/// unbuilt branch past the cap loads the deepest stored node and
/// finishes by replay, so the cap bounds memory and never changes a
/// draw. It trades memory for speed on circuits whose mid-circuit
/// outcomes spread: EXPERIMENTS.md measures 1, 4 and 16 MiB.
pub(super) const TREE_BYTES_CAP: usize = 16 << 20;

/// `Tail` nodes' table index for the plan's own table (a tail-only
/// plan's root leaf).
const ROOT_TABLE: usize = usize::MAX;

/// A shard's outcome tree over a noiseless plan, grown as shots reach
/// new branches.
///
/// A noiseless shot's state is a function of the outcomes it has drawn,
/// so shots that drew the same outcomes share every state. The root is
/// the plan's snapshot. A node at a mid-circuit measurement or reset
/// holds the state just before it and the probability of reading 1; the
/// child for outcome `b` holds that state projected to `b` (and flipped
/// back to |0> for a reset), run through the unitaries that follow under
/// that branch's classical register, up to the next measurement or reset
/// or the deferred tail. A leaf keeps its state's [`ProbTable`] and one
/// node per deferred measurement along each outcome path, each carrying
/// [`ShotPlan::sample_tail`]'s walk and conditional probability. A shot
/// draws `gen_bool(p)` at each node exactly where the collapsing run
/// draws (`StateVector::measure`, then `sample_tail`), so its draws, and
/// every histogram, are those of a replay.
///
/// A child that would own a state or a table is built only when the
/// shard's later shots are expected to reach it at least once more (the
/// probability of its outcome path times the shots left), so a run of a
/// few shots stores little, and only while the tree stays under its
/// cap. A shot at a branch left unbuilt finishes by replay from the
/// deepest node it reached.
pub(super) struct OutcomeTree {
    /// `nodes[0]` is the root once the first shot ran.
    pub(super) nodes: Vec<Node>,
    /// Leaf probability tables, indexed by `At::Tail` nodes.
    pub(super) tables: Vec<ProbTable>,
    /// Heap bytes of the node states and leaf tables held.
    pub(super) held: usize,
    /// Cap on [`OutcomeTree::bytes`] ([`TREE_BYTES_CAP`]).
    pub(super) cap: usize,
    /// Shots the shard has yet to run: once a shot starts, those after
    /// it.
    pub(super) left: usize,
    /// Node states and leaf tables built: the report's `branch_states`.
    pub(super) built: usize,
}

impl Default for OutcomeTree {
    fn default() -> Self {
        OutcomeTree {
            nodes: Vec::new(),
            tables: Vec::new(),
            held: 0,
            cap: TREE_BYTES_CAP,
            left: 0,
            built: 0,
        }
    }
}

impl OutcomeTree {
    /// Heap bytes the tree holds: its node and table slots as allocated,
    /// and the node states and leaf tables they own.
    pub(super) fn bytes(&self) -> usize {
        self.held
            + self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.tables.capacity() * std::mem::size_of::<ProbTable>()
    }

    /// Makes room for one more node owning `held` heap bytes, and for one
    /// more leaf table when `table`; false when that would take the tree
    /// past its cap. Slots grow by doubling, as `Vec::push` grows them,
    /// but only once the grown size is known to fit.
    fn make_room(&mut self, held: usize, table: bool) -> bool {
        let grown = |len: usize, capacity: usize| {
            if len < capacity {
                capacity
            } else {
                len + len.max(4)
            }
        };
        let nodes = grown(self.nodes.len(), self.nodes.capacity());
        let tables = if table {
            grown(self.tables.len(), self.tables.capacity())
        } else {
            self.tables.capacity()
        };
        let bytes = self.bytes()
            + held
            + (nodes - self.nodes.capacity()) * std::mem::size_of::<Node>()
            + (tables - self.tables.capacity()) * std::mem::size_of::<ProbTable>();
        if bytes > self.cap {
            return false;
        }
        self.nodes.reserve_exact(nodes - self.nodes.len());
        self.tables.reserve_exact(tables - self.tables.len());
        true
    }
}

/// Heap bytes of an `n`-qubit state: its amplitudes and qubit map.
pub(super) fn state_bytes(n: usize) -> usize {
    (std::mem::size_of::<C64>() << n) + n * std::mem::size_of::<usize>()
}

/// Heap bytes of an `n`-qubit [`ProbTable`].
pub(super) fn table_bytes(n: usize) -> usize {
    (std::mem::size_of::<f64>() << n) + n * std::mem::size_of::<usize>()
}

/// One draw of a noiseless shot, reached by the outcomes on its path.
pub(super) struct Node {
    /// The probability `gen_bool` reads 1 with here.
    p: f64,
    /// The child per outcome; 0 while unbuilt (0 is the root, never a
    /// child).
    next: [u32; 2],
    /// The classical register on reaching this node.
    clreg: u64,
    pub(super) at: At,
}

/// Where in the program a [`Node`] draws.
pub(super) enum At {
    /// The mid-circuit measurement or reset at op `pos`, with the state
    /// just before it, kept until every child the draw can reach exists
    /// (the root's is the plan's snapshot).
    Op {
        pos: usize,
        state: Option<StateVector>,
    },
    /// Deferred measurement `k`, read off leaf table `table` after
    /// `walk`; `one` is what [`TailWalk::prob`] returned with the draw.
    Tail {
        k: usize,
        table: usize,
        walk: TailWalk,
        one: Option<f64>,
    },
    /// The end of the shot: the register is final.
    End,
}

impl Node {
    /// The end of a shot with register `clreg`.
    fn end(clreg: u64) -> Node {
        Node {
            p: 0.0,
            next: [0; 2],
            clreg,
            at: At::End,
        }
    }
}

/// The state an `At::Op` node `id` holds: its own, or the plan's
/// snapshot for the root.
fn node_state<'a>(
    id: usize,
    state: &'a Option<StateVector>,
    root: &'a Snapshot<StateVector>,
) -> &'a StateVector {
    match (state, root) {
        (Some(state), _) => state,
        (None, Snapshot::State(state)) if id == 0 => state,
        _ => unreachable!("a node keeps its state until every reachable child exists"),
    }
}

/// Leaf table `index` of a tree: one of `tables`, or the plan's own.
fn leaf_table<'a>(
    index: usize,
    tables: &'a [ProbTable],
    root: &'a Snapshot<StateVector>,
) -> &'a ProbTable {
    match root {
        Snapshot::Table(table) if index == ROOT_TABLE => table,
        _ => &tables[index],
    }
}

impl ShotPlan<'_> {
    /// Runs one noiseless shot down the shard's outcome tree rooted at
    /// `root`, growing the branches it is first to reach; returns the
    /// final classical register. At a branch the tree leaves unbuilt the
    /// shot finishes by replay on `slot`'s state, made on first use.
    pub(super) fn walk_tree(
        &self,
        rng: &mut ChaCha8Rng,
        root: &Snapshot<StateVector>,
        tree: &mut OutcomeTree,
        slot: &mut Option<StateVector>,
    ) -> u64 {
        if tree.nodes.is_empty() {
            let node = match root {
                Snapshot::State(state) => self.op_node(self.boundary_op, 0, state),
                Snapshot::Table(table) => self.tail_node(table, ROOT_TABLE, 0, TailWalk::START, 0),
            };
            tree.nodes.reserve_exact(1);
            tree.nodes.push(node);
        }
        tree.left = tree.left.saturating_sub(1);
        // The probability that a shot reaches the current node.
        let mut reach = 1.0;
        let mut id = 0;
        loop {
            let node = &tree.nodes[id];
            if let At::End = node.at {
                return node.clreg;
            }
            let b = rng.gen_bool(node.p);
            reach *= if b { node.p } else { 1.0 - node.p };
            id = match node.next[usize::from(b)] {
                0 => match self.grow(root, tree, id, b, reach) {
                    Some(child) => child,
                    None => return self.finish_by_replay(root, tree, id, b, rng, slot),
                },
                child => child as usize,
            };
        }
    }

    /// Builds the child of tree node `id` for outcome `b`, which a shot
    /// reaches with probability `reach`, and returns its index; `None`
    /// leaves it unbuilt. A child that would own a state or a table is
    /// left unbuilt when the shard's later shots are not expected to
    /// reach it again (a branch one shot takes costs less to replay than
    /// to store), or when it would take the tree past its cap.
    fn grow(
        &self,
        root: &Snapshot<StateVector>,
        tree: &mut OutcomeTree,
        id: usize,
        b: bool,
        reach: f64,
    ) -> Option<usize> {
        let node = &tree.nodes[id];
        let (p, clreg) = (node.p, node.clreg);
        let n = self.circuit.num_qubits();
        // An op node's child runs up to `stop` and owns a state, a leaf
        // table or nothing; a tail node's child owns nothing.
        let stop = match node.at {
            At::Op { pos, .. } => Some(self.next_stop(pos + 1)),
            _ => None,
        };
        let (held, table) = match stop {
            Some(stop) if stop < self.tail_start() => (state_bytes(n), false),
            Some(_) if self.tail.tail_len > 0 => (table_bytes(n), true),
            _ => (0, false),
        };
        // How often the shard's later shots are expected to reach the child.
        let revisits = reach * tree.left as f64;
        if (held > 0 && revisits < 1.0) || !tree.make_room(held, table) {
            return None;
        }
        let node = &tree.nodes[id];
        let child = match (&node.at, stop) {
            (At::Op { pos, state }, Some(stop)) => {
                let mut state = node_state(id, state, root).clone();
                let clreg = self.settle(*pos, b, clreg, &mut state);
                for op in &self.program.ops()[pos + 1..stop] {
                    let Op::Unitary { cond, .. } = op else {
                        unreachable!("a branch runs unitaries up to its stop");
                    };
                    if cond.is_none_or(|bit| clreg >> bit & 1 == 1) {
                        self.apply_unitary_op(op, &mut state);
                    }
                }
                if stop < self.tail_start() {
                    let node = self.op_node(stop, clreg, &state);
                    let at = At::Op {
                        pos: stop,
                        state: Some(state),
                    };
                    Node { at, ..node }
                } else if self.tail.tail_len == 0 {
                    Node::end(clreg)
                } else {
                    let table = ProbTable::of(state);
                    let node = self.tail_node(&table, tree.tables.len(), 0, TailWalk::START, clreg);
                    tree.tables.push(table);
                    node
                }
            }
            (
                At::Tail {
                    k,
                    table,
                    walk,
                    one,
                },
                _,
            ) => {
                let (k, index, mut walk) = (*k, *table, *walk);
                let table = leaf_table(index, &tree.tables, root);
                walk.fix(1 << table.map[self.tail.tail_wires[k]], b, *one);
                let clreg = self.tail_bit(k, b, clreg);
                self.tail_node(table, index, k + 1, walk, clreg)
            }
            _ => unreachable!("a shot ends at an end node"),
        };
        tree.built += usize::from(held > 0);
        tree.held += held;
        let child_id = tree.nodes.len();
        tree.nodes.push(child);
        let node = &mut tree.nodes[id];
        node.next[usize::from(b)] = u32::try_from(child_id).expect("fewer than 2^32 tree nodes");
        // A state no unbuilt child needs is dropped: an outcome is
        // reachable unless `gen_bool` can never return it.
        let settled = (p == 0.0 || node.next[1] != 0) && (p == 1.0 || node.next[0] != 0);
        if let At::Op { state, .. } = &mut node.at {
            if settled && state.take().is_some() {
                tree.held -= state_bytes(n);
            }
        }
        Some(child_id)
    }

    /// Finishes a shot whose outcome `b` at tree node `id` leads to a
    /// branch the tree leaves unbuilt: from the node's state on `slot` by
    /// replay, or from the node's leaf table.
    fn finish_by_replay(
        &self,
        root: &Snapshot<StateVector>,
        tree: &OutcomeTree,
        id: usize,
        b: bool,
        rng: &mut ChaCha8Rng,
        slot: &mut Option<StateVector>,
    ) -> u64 {
        let node = &tree.nodes[id];
        match &node.at {
            At::Op { pos, state } => {
                let live = self.state_in(slot);
                live.load(node_state(id, state, root));
                let clreg = self.settle(*pos, b, node.clreg, live);
                self.finish_shot(pos + 1, clreg, rng, live)
            }
            At::Tail {
                k,
                table,
                walk,
                one,
            } => {
                let mut table = leaf_table(*table, &tree.tables, root);
                let mut walk = *walk;
                walk.fix(1 << table.map[self.tail.tail_wires[*k]], b, *one);
                let mut clreg = self.tail_bit(*k, b, node.clreg);
                self.sample_tail_from(k + 1, walk, rng, &mut table, 0, &mut clreg);
                clreg
            }
            At::End => unreachable!("a shot ends at an end node"),
        }
    }

    /// The tree node at the mid-circuit measurement or reset at op `pos`
    /// of `state`, reached with register `clreg`; its state is left for
    /// the caller to store.
    fn op_node(&self, pos: usize, clreg: u64, state: &StateVector) -> Node {
        let (Op::Measure { q, .. } | Op::Reset { q, .. }) = self.program.ops()[pos] else {
            unreachable!("op nodes sit at measurements and resets");
        };
        Node {
            p: state.prob_one(q).clamp(0.0, 1.0),
            next: [0; 2],
            clreg,
            at: At::Op { pos, state: None },
        }
    }

    /// The tree node at deferred measurement `k` of the leaf whose table
    /// is `table` (index `index`), after `walk`: an end node past the
    /// last one.
    fn tail_node(
        &self,
        mut table: &ProbTable,
        index: usize,
        k: usize,
        mut walk: TailWalk,
        clreg: u64,
    ) -> Node {
        if k == self.tail.tail_len {
            return Node::end(clreg);
        }
        let qb = 1 << table.map[self.tail.tail_wires[k]];
        let (p, one) = walk.prob(&mut table, qb);
        Node {
            p: p.clamp(0.0, 1.0),
            next: [0; 2],
            clreg,
            at: At::Tail {
                k,
                table: index,
                walk,
                one,
            },
        }
    }

    /// Applies outcome `b` of the measurement or reset at op `pos` to
    /// `state` and `clreg`, as the collapsing run does after its draw
    /// (`StateVector::measure`, `StateVector::reset`); returns the
    /// register.
    fn settle(&self, pos: usize, b: bool, clreg: u64, state: &mut StateVector) -> u64 {
        match self.program.ops()[pos] {
            Op::Measure { q, clbit, .. } => {
                state.project(q, b);
                if b {
                    clreg | 1 << clbit
                } else {
                    clreg & !(1 << clbit)
                }
            }
            Op::Reset { q, .. } => {
                state.project(q, b);
                if b {
                    state.apply_gate(&Gate::X, &[q]);
                }
                clreg
            }
            Op::Unitary { .. } => unreachable!("outcomes settle at measurements and resets"),
        }
    }

    /// `clreg` with deferred measurement `k`'s bit written from the raw
    /// outcome `b` of a noiseless shot (the deterministic flips undone).
    fn tail_bit(&self, k: usize, b: bool, clreg: u64) -> u64 {
        let Op::Measure { clbit, .. } = self.program.ops()[self.tail_start() + k] else {
            unreachable!("the deferred tail contains only measurements");
        };
        if b != (self.tail.base_flips >> k & 1 == 1) {
            clreg | 1 << clbit
        } else {
            clreg & !(1 << clbit)
        }
    }

    /// The first measurement or reset of the body at or after op `from`,
    /// or the tail start.
    fn next_stop(&self, from: usize) -> usize {
        let end = self.tail_start();
        self.program.ops()[from..end]
            .iter()
            .position(|op| !matches!(op, Op::Unitary { .. }))
            .map_or(end, |i| from + i)
    }
}
