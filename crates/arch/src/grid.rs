//! DPQA grid geometry and the typed movement-schedule IR.
//!
//! A dynamically field-programmable qubit array (DPQA, Tan et al. 2024)
//! holds atoms in a 2D grid of static SLM traps and routes them with AOD
//! (acousto-optic deflector) row/column traps: an AOD pass picks a set of
//! atoms up, translates them — an arbitrary distance in one stage — and
//! drops them back into free SLM sites. Two-qubit gates are global
//! Rydberg pulses acting on every adjacent atom pair at once, so routing
//! means *moving atoms into Rydberg range* instead of inserting SWAPs.
//!
//! This module provides the pieces the movement-based routing backend
//! compiles into:
//!
//! * [`GridGeometry`] — the SLM site grid (rows x cols) plus the
//!   [`MovementTimes`] constants for AOD transfer, shifts, Rydberg pulses
//!   and measurement-zone transit.
//! * [`MovementSchedule`] — a typed sequence of [`MoveStage`]s: atom
//!   loads, parallel AOD shifts, Rydberg gate stages, and moves to the
//!   off-grid measurement zone (how mid-circuit measure/reset for qubit
//!   reuse is priced in movement time).
//! * [`MovementSchedule::verify`] — replays the schedule against an
//!   occupancy map and rejects physically impossible programs: two atoms
//!   in one trap, moves from empty sites, AOD shifts that would reorder
//!   rows or columns (AOD traps cannot cross), or Rydberg pairs out of
//!   interaction range.
//!
//! The measurement zone is modeled as a single off-grid region: a
//! [`MoveStage::MeasureTransit`] removes the atom from its SLM site (the
//! site becomes free for reuse) and charges a flat transit cost. A
//! reused wire therefore pays `measure_transit_dt + load_dt` of movement
//! on top of the Fig. 2 measure + conditional-X cost.

use std::collections::BTreeMap;
use std::fmt;

/// Timing constants for DPQA movement primitives, in device `dt` units.
///
/// Defaults follow the relative magnitudes reported for neutral-atom
/// arrays (Bluvstein et al. 2022, Tan et al. 2024): AOD pick-up/drop-off
/// transfers and per-site shifts dominate (hundreds of microseconds),
/// Rydberg pulses are fast (sub-microsecond, rounded up to one CX-scale
/// unit here so depth stays comparable), and measurement transit crosses
/// the whole array. Absolute values matter less than ratios — every
/// consumer treats them as one opaque cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovementTimes {
    /// AOD pick-up: transfer a set of atoms from SLM traps into AOD rows
    /// and columns (paid once per shift stage).
    pub pickup_dt: u64,
    /// AOD drop-off: transfer the moved atoms back into SLM traps (paid
    /// once per shift stage).
    pub dropoff_dt: u64,
    /// Translation cost per grid site of Manhattan distance; a shift
    /// stage pays this for its *longest* move (all moves are parallel).
    pub shift_per_site_dt: u64,
    /// One global Rydberg pulse (executes every in-range pair at once).
    pub rydberg_dt: u64,
    /// Moving one atom from the grid to the off-grid measurement zone.
    pub measure_transit_dt: u64,
    /// Loading a fresh atom from the reservoir into an SLM site.
    pub load_dt: u64,
}

impl Default for MovementTimes {
    fn default() -> Self {
        MovementTimes {
            pickup_dt: 100,
            dropoff_dt: 100,
            shift_per_site_dt: 50,
            rydberg_dt: 10,
            measure_transit_dt: 200,
            load_dt: 150,
        }
    }
}

/// The DPQA hardware geometry: a `rows x cols` grid of static SLM sites
/// with an off-grid measurement zone and AOD-based transport, plus the
/// [`MovementTimes`] cost constants.
///
/// Sites are addressed as `(row, col)` coordinates; [`GridGeometry::site`]
/// maps them to the flat indices the coupling [`crate::Topology::grid`]
/// uses, so a routed DPQA circuit and the grid coupling graph agree on
/// site numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridGeometry {
    rows: usize,
    cols: usize,
    times: MovementTimes,
}

impl GridGeometry {
    /// A `rows x cols` SLM grid with the default [`MovementTimes`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        GridGeometry {
            rows,
            cols,
            times: MovementTimes::default(),
        }
    }

    /// Number of SLM rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of SLM columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The movement timing constants.
    pub fn times(&self) -> &MovementTimes {
        &self.times
    }

    /// Total number of SLM sites.
    pub fn num_sites(&self) -> usize {
        self.rows * self.cols
    }

    /// Flat site index of `(row, col)` — matches `Topology::grid`'s
    /// vertex numbering (`row * cols + col`).
    pub fn site(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// `(row, col)` coordinates of a flat site index.
    pub fn coords(&self, site: usize) -> (usize, usize) {
        debug_assert!(site < self.num_sites());
        (site / self.cols, site % self.cols)
    }

    /// Whether `(row, col)` is on the grid.
    pub fn in_bounds(&self, row: usize, col: usize) -> bool {
        row < self.rows && col < self.cols
    }

    /// Whether two sites are within Rydberg interaction range. The
    /// blockade radius is one lattice spacing: exactly the 4-neighbor
    /// adjacency of the grid coupling graph, so "in range" and
    /// "coupled" agree.
    pub fn in_rydberg_range(&self, a: (usize, usize), b: (usize, usize)) -> bool {
        manhattan(a, b) == 1
    }
}

impl fmt::Display for GridGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dpqa-{}x{}", self.rows, self.cols)
    }
}

/// Manhattan distance between two `(row, col)` coordinates.
pub fn manhattan(a: (usize, usize), b: (usize, usize)) -> usize {
    a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
}

/// One atom's translation within a [`MoveStage::Shift`]: the AOD picks
/// the atom up at `from` and drops it at `to` (both `(row, col)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomMove {
    /// The atom being moved (its stable id — the circuit wire it holds).
    pub atom: usize,
    /// Source SLM site.
    pub from: (usize, usize),
    /// Destination SLM site.
    pub to: (usize, usize),
}

/// One stage of a DPQA movement program. Stages execute sequentially;
/// everything inside a stage is parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveStage {
    /// Load a fresh atom from the reservoir into a free SLM site.
    Load {
        /// The atom id (the circuit wire it will hold).
        atom: usize,
        /// Target `(row, col)` site.
        at: (usize, usize),
    },
    /// One AOD pass: pick up the listed atoms, translate them in
    /// parallel, drop them into free sites. AOD row/column traps cannot
    /// cross, so the moves must preserve the relative row order and
    /// relative column order of every pair of moved atoms
    /// ([`MovementSchedule::verify`] enforces this).
    Shift {
        /// The parallel per-atom translations.
        moves: Vec<AtomMove>,
    },
    /// One global Rydberg pulse executing the listed atom pairs; every
    /// pair must be within blockade range and pairwise disjoint.
    Rydberg {
        /// Interacting atom-id pairs (each id appears at most once).
        pairs: Vec<(usize, usize)>,
    },
    /// Move an atom off-grid to the measurement zone for mid-circuit
    /// measurement; its SLM site becomes free (this is how qubit reuse
    /// is priced in movement time).
    MeasureTransit {
        /// The atom leaving the grid.
        atom: usize,
    },
}

/// A complete movement program: the DPQA backend's routing output,
/// alongside the (still gate-level) routed circuit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MovementSchedule {
    stages: Vec<MoveStage>,
}

impl MovementSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        MovementSchedule::default()
    }

    /// Appends a stage.
    pub fn push(&mut self, stage: MoveStage) {
        self.stages.push(stage);
    }

    /// The stages, in execution order.
    pub fn stages(&self) -> &[MoveStage] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the schedule has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Number of [`MoveStage::Rydberg`] stages.
    pub fn rydberg_stages(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| matches!(s, MoveStage::Rydberg { .. }))
            .count()
    }

    /// Total movement time of the schedule under `times`, in `dt`:
    /// loads and measurement transits at their flat costs, each shift
    /// stage at pick-up + drop-off + per-site cost of its longest move
    /// (moves are parallel), each Rydberg stage at one pulse.
    pub fn movement_dt(&self, times: &MovementTimes) -> u64 {
        self.stages
            .iter()
            .map(|stage| match stage {
                MoveStage::Load { .. } => times.load_dt,
                MoveStage::Shift { moves } => {
                    let longest = moves
                        .iter()
                        .map(|m| manhattan(m.from, m.to) as u64)
                        .max()
                        .unwrap_or(0);
                    times.pickup_dt + times.shift_per_site_dt * longest + times.dropoff_dt
                }
                MoveStage::Rydberg { .. } => times.rydberg_dt,
                MoveStage::MeasureTransit { .. } => times.measure_transit_dt,
            })
            .sum()
    }

    /// Replays the schedule against `geom`, tracking site occupancy, and
    /// reports the first physical violation: loading into an occupied or
    /// out-of-bounds site, re-loading a live atom, moving an atom that is
    /// not where the move claims, two moves sharing a source or
    /// destination, an AOD shift that would make row or column traps
    /// cross, a Rydberg pair out of blockade range (or an atom in two
    /// pairs at once), or measuring an atom that is not on the grid.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint, naming
    /// the stage index.
    pub fn verify(&self, geom: &GridGeometry) -> Result<(), String> {
        // (row, col) -> atom id currently trapped there.
        let mut occ: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        // atom id -> (row, col); the inverse view.
        let mut site_of: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        for (i, stage) in self.stages.iter().enumerate() {
            match stage {
                MoveStage::Load { atom, at } => {
                    if !geom.in_bounds(at.0, at.1) {
                        return Err(format!(
                            "stage {i}: load of atom {atom} at {at:?} is off-grid"
                        ));
                    }
                    if let Some(&held) = occ.get(at) {
                        return Err(format!(
                            "stage {i}: load of atom {atom} at {at:?} but site holds atom {held}"
                        ));
                    }
                    if site_of.contains_key(atom) {
                        return Err(format!("stage {i}: atom {atom} loaded twice"));
                    }
                    occ.insert(*at, *atom);
                    site_of.insert(*atom, *at);
                }
                MoveStage::Shift { moves } => {
                    for m in moves {
                        if !geom.in_bounds(m.to.0, m.to.1) {
                            return Err(format!(
                                "stage {i}: move of atom {} to {:?} is off-grid",
                                m.atom, m.to
                            ));
                        }
                        if site_of.get(&m.atom) != Some(&m.from) {
                            return Err(format!(
                                "stage {i}: atom {} is not at claimed source {:?}",
                                m.atom, m.from
                            ));
                        }
                    }
                    // AOD traps cannot cross: relative row order and
                    // relative column order of moved atoms must be
                    // preserved between sources and destinations.
                    for (j, a) in moves.iter().enumerate() {
                        for b in &moves[j + 1..] {
                            if a.atom == b.atom {
                                return Err(format!(
                                    "stage {i}: atom {} moved twice in one shift",
                                    a.atom
                                ));
                            }
                            if a.from.0.cmp(&b.from.0) != a.to.0.cmp(&b.to.0)
                                || a.from.1.cmp(&b.from.1) != a.to.1.cmp(&b.to.1)
                            {
                                return Err(format!(
                                    "stage {i}: atoms {} and {} would cross AOD traps",
                                    a.atom, b.atom
                                ));
                            }
                        }
                    }
                    // All sources lift simultaneously, then all drop.
                    for m in moves {
                        occ.remove(&m.from);
                    }
                    for m in moves {
                        if let Some(&held) = occ.get(&m.to) {
                            return Err(format!(
                                "stage {i}: atom {} dropped on occupied site {:?} (atom {held})",
                                m.atom, m.to
                            ));
                        }
                        occ.insert(m.to, m.atom);
                        site_of.insert(m.atom, m.to);
                    }
                }
                MoveStage::Rydberg { pairs } => {
                    let mut seen: Vec<usize> = Vec::with_capacity(pairs.len() * 2);
                    for &(a, b) in pairs {
                        for atom in [a, b] {
                            if !site_of.contains_key(&atom) {
                                return Err(format!(
                                    "stage {i}: rydberg pair uses atom {atom} not on the grid"
                                ));
                            }
                            if seen.contains(&atom) {
                                return Err(format!(
                                    "stage {i}: atom {atom} appears in two rydberg pairs"
                                ));
                            }
                            seen.push(atom);
                        }
                        let (sa, sb) = (site_of[&a], site_of[&b]);
                        if !geom.in_rydberg_range(sa, sb) {
                            return Err(format!(
                                "stage {i}: pair ({a}, {b}) at {sa:?}/{sb:?} is out of rydberg range"
                            ));
                        }
                    }
                }
                MoveStage::MeasureTransit { atom } => {
                    let Some(at) = site_of.remove(atom) else {
                        return Err(format!(
                            "stage {i}: measure transit of atom {atom} not on the grid"
                        ));
                    };
                    occ.remove(&at);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> GridGeometry {
        GridGeometry::new(3, 3)
    }

    #[test]
    fn site_numbering_matches_grid_topology() {
        let g = geom();
        assert_eq!(g.site(0, 0), 0);
        assert_eq!(g.site(1, 2), 5);
        assert_eq!(g.coords(5), (1, 2));
        assert_eq!(g.num_sites(), 9);
        assert_eq!(g.to_string(), "dpqa-3x3");
    }

    #[test]
    fn legal_schedule_verifies_and_prices() {
        let g = geom();
        let mut s = MovementSchedule::new();
        s.push(MoveStage::Load {
            atom: 0,
            at: (0, 0),
        });
        s.push(MoveStage::Load {
            atom: 1,
            at: (2, 2),
        });
        s.push(MoveStage::Shift {
            moves: vec![AtomMove {
                atom: 1,
                from: (2, 2),
                to: (0, 1),
            }],
        });
        s.push(MoveStage::Rydberg {
            pairs: vec![(0, 1)],
        });
        s.push(MoveStage::MeasureTransit { atom: 0 });
        s.verify(&g).unwrap();
        assert_eq!(s.rydberg_stages(), 1);
        let t = MovementTimes::default();
        // Shift distance is Manhattan((2,2) -> (0,1)) = 3.
        let expected = 2 * t.load_dt
            + t.pickup_dt
            + 3 * t.shift_per_site_dt
            + t.dropoff_dt
            + t.rydberg_dt
            + t.measure_transit_dt;
        assert_eq!(s.movement_dt(&t), expected);
    }

    #[test]
    fn double_occupancy_is_rejected() {
        let g = geom();
        let mut s = MovementSchedule::new();
        s.push(MoveStage::Load {
            atom: 0,
            at: (1, 1),
        });
        s.push(MoveStage::Load {
            atom: 1,
            at: (1, 1),
        });
        let err = s.verify(&g).unwrap_err();
        assert!(err.contains("site holds atom 0"), "{err}");
    }

    #[test]
    fn crossing_aod_moves_are_rejected() {
        let g = geom();
        let mut s = MovementSchedule::new();
        s.push(MoveStage::Load {
            atom: 0,
            at: (0, 0),
        });
        s.push(MoveStage::Load {
            atom: 1,
            at: (0, 2),
        });
        // Columns swap relative order: 0 < 2 at the sources, 2 > 1 at
        // the destinations.
        s.push(MoveStage::Shift {
            moves: vec![
                AtomMove {
                    atom: 0,
                    from: (0, 0),
                    to: (0, 2),
                },
                AtomMove {
                    atom: 1,
                    from: (0, 2),
                    to: (0, 1),
                },
            ],
        });
        let err = s.verify(&g).unwrap_err();
        assert!(err.contains("cross AOD traps"), "{err}");
    }

    #[test]
    fn parallel_order_preserving_shift_verifies() {
        let g = geom();
        let mut s = MovementSchedule::new();
        s.push(MoveStage::Load {
            atom: 0,
            at: (0, 0),
        });
        s.push(MoveStage::Load {
            atom: 1,
            at: (0, 1),
        });
        // Both move right by one; order preserved, sources free the
        // sites the other lands on.
        s.push(MoveStage::Shift {
            moves: vec![
                AtomMove {
                    atom: 0,
                    from: (0, 0),
                    to: (0, 1),
                },
                AtomMove {
                    atom: 1,
                    from: (0, 1),
                    to: (0, 2),
                },
            ],
        });
        s.verify(&g).unwrap();
    }

    #[test]
    fn out_of_range_rydberg_is_rejected() {
        let g = geom();
        let mut s = MovementSchedule::new();
        s.push(MoveStage::Load {
            atom: 0,
            at: (0, 0),
        });
        s.push(MoveStage::Load {
            atom: 1,
            at: (2, 2),
        });
        s.push(MoveStage::Rydberg {
            pairs: vec![(0, 1)],
        });
        let err = s.verify(&g).unwrap_err();
        assert!(err.contains("out of rydberg range"), "{err}");
    }

    #[test]
    fn measure_transit_frees_the_site() {
        let g = geom();
        let mut s = MovementSchedule::new();
        s.push(MoveStage::Load {
            atom: 0,
            at: (1, 1),
        });
        s.push(MoveStage::MeasureTransit { atom: 0 });
        s.push(MoveStage::Load {
            atom: 1,
            at: (1, 1),
        });
        s.verify(&g).unwrap();
        // But measuring an absent atom fails.
        let mut bad = MovementSchedule::new();
        bad.push(MoveStage::MeasureTransit { atom: 7 });
        assert!(bad.verify(&g).is_err());
    }
}
