//! Tape movement scheduling (§IV-D of the paper, Algorithm 2).
//!
//! Every tape move heats the ion chain and degrades all future two-qubit
//! gates (§III-A), so the scheduler's objective is to execute as many
//! gates as possible per head position. The paper's greedy heuristic
//! scores every head position by the number of gates executable there —
//! `Score(p) = n_p` (Eq. 2), following dependency order — moves the tape
//! to the argmax, executes, and repeats until the circuit is drained.
//!
//! A deliberately weak alternative, [`SchedulerKind::NaiveNextGate`], parks
//! the head over the oldest ready gate each round; it exists to quantify
//! the benefit of Eq. 2 (ablation, DESIGN.md §5).
//!
//! One engine runs every policy: `StreamScheduler`, which keeps
//! per-position executable-gate counts incrementally, rescores only the
//! positions a round could have changed, and skips positions whose
//! score ceiling cannot beat the round's incumbent (see the `streaming`
//! module docs). It ingests gates one at a time under an eligibility
//! horizon ([`DEFAULT_HORIZON`]), so the one-shot [`schedule`] and the
//! windowed `pipeline::streaming` path make the same decisions with an
//! O(horizon) working set.
//!
//! [`schedule_rescan_capped`] is the plain rescan reference that the
//! equivalence tests compare the engine against; no production path
//! calls it.

mod oracle;
mod streaming;

#[doc(hidden)]
pub use oracle::schedule_rescan_capped;
pub(crate) use streaming::StreamScheduler;

use crate::program::TiltProgram;
use crate::spec::DeviceSpec;
use tilt_circuit::Circuit;

/// Which tape-scheduling policy to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The paper's Algorithm 2: move to the position with the maximal
    /// number of executable gates.
    #[default]
    GreedyMaxExecutable,
    /// Eq. 2 with a travel-distance discount: position score is
    /// `n_p · 1000 − penalty_permille · dist(head, p)`, so nearby
    /// positions win ties *and* small gate deficits when travel is
    /// expensive. `penalty_permille = 0` reduces to Algorithm 2 with its
    /// nearest-tie-break. The paper presents Eq. 2 as "the general form"
    /// of the cost function; this is the natural refinement when shuttle
    /// time (not only heating) matters.
    DistanceDiscounted {
        /// Score penalty per ion spacing of head travel, in thousandths
        /// of one executable gate.
        penalty_permille: u32,
    },
    /// Ablation baseline: move to the leftmost position covering the
    /// oldest ready gate, then drain whatever else that position covers.
    NaiveNextGate,
}

impl SchedulerKind {
    /// The travel penalty (permille of one executable gate per ion
    /// spacing) the Eq. 2 scorers apply; `None` for policies that do
    /// not score positions.
    pub(crate) fn penalty_permille(&self) -> Option<i64> {
        match *self {
            SchedulerKind::GreedyMaxExecutable => Some(0),
            SchedulerKind::DistanceDiscounted { penalty_permille } => Some(penalty_permille as i64),
            SchedulerKind::NaiveNextGate => None,
        }
    }
}

/// The eligibility horizon: each scheduling round only considers gates
/// whose index lies below `min(floor + DEFAULT_HORIZON, n)`, where
/// `floor` is the smallest incomplete gate index. Generous enough that
/// the bound never binds on a realistic in-memory circuit, small enough
/// that million-gate streams keep a bounded working set.
pub const DEFAULT_HORIZON: usize = 1 << 17;

/// Schedules a routed physical circuit into an executable [`TiltProgram`].
///
/// `physical` must be routed for `spec`: every two-qubit gate's operands
/// must fit under the head simultaneously.
///
/// Barriers are honoured as scheduling fences but are not emitted as
/// machine operations. Each round considers only the gates within
/// [`DEFAULT_HORIZON`] of the oldest incomplete one, which binds only on
/// circuits longer than the horizon.
///
/// # Panics
///
/// Panics if some two-qubit gate spans at least `head_size` ion spacings
/// (an unrouted circuit) — this is a contract violation by the caller, not
/// a recoverable condition.
///
/// # Example
///
/// ```
/// use tilt_circuit::{Circuit, Qubit};
/// use tilt_compiler::schedule::{schedule, SchedulerKind};
/// use tilt_compiler::DeviceSpec;
///
/// let mut c = Circuit::new(8);
/// c.xx(Qubit(0), Qubit(1), 0.5);
/// c.xx(Qubit(6), Qubit(7), 0.5);
/// let spec = DeviceSpec::new(8, 4)?;
/// let program = schedule(&c, spec, SchedulerKind::GreedyMaxExecutable);
/// assert_eq!(program.move_count(), 1); // two zones, one move
/// # Ok::<(), tilt_compiler::CompileError>(())
/// ```
pub fn schedule(physical: &Circuit, spec: DeviceSpec, kind: SchedulerKind) -> TiltProgram {
    streaming::schedule_circuit(physical, spec, kind, DEFAULT_HORIZON)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::{Gate, Qubit};

    fn spec(n: usize, head: usize) -> DeviceSpec {
        DeviceSpec::new(n, head).unwrap()
    }

    #[test]
    fn single_zone_circuit_never_moves() {
        let mut c = Circuit::new(8);
        c.xx(Qubit(0), Qubit(1), 0.5).rx(Qubit(2), 1.0);
        let p = schedule(&c, spec(8, 4), SchedulerKind::GreedyMaxExecutable);
        assert_eq!(p.move_count(), 0);
        assert_eq!(p.gate_count(), 2);
    }

    #[test]
    fn two_distant_zones_need_one_move() {
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(1), 0.5);
        c.xx(Qubit(14), Qubit(15), 0.5);
        let p = schedule(&c, spec(16, 4), SchedulerKind::GreedyMaxExecutable);
        assert_eq!(p.move_count(), 1);
    }

    #[test]
    fn greedy_prefers_position_with_more_gates() {
        // Three gates on the left zone, one on the right: greedy parks
        // left first.
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(1), 0.5);
        c.xx(Qubit(1), Qubit(2), 0.5);
        c.xx(Qubit(2), Qubit(3), 0.5);
        c.xx(Qubit(14), Qubit(15), 0.5);
        let p = schedule(&c, spec(16, 4), SchedulerKind::GreedyMaxExecutable);
        assert_eq!(p.initial_head_position(), Some(0));
        assert_eq!(p.move_count(), 1);
    }

    #[test]
    fn all_gates_are_scheduled_exactly_once() {
        let mut c = Circuit::new(16);
        for i in 0..15 {
            c.xx(Qubit(i), Qubit(i + 1), 0.1);
        }
        for kind in [
            SchedulerKind::GreedyMaxExecutable,
            SchedulerKind::NaiveNextGate,
        ] {
            let p = schedule(&c, spec(16, 4), kind);
            assert_eq!(p.gate_count(), c.len(), "{kind:?}");
        }
    }

    #[test]
    fn schedule_respects_dependencies() {
        // Chain across zones: (0,1) then (1,15) is unroutable; use a
        // routed-like chain: (0,1), (7,8), (14,15) sharing no qubits plus
        // a dependent gate on (0,1) again.
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(1), 0.1); // idx 0
        c.xx(Qubit(14), Qubit(15), 0.1); // idx 1
        c.xx(Qubit(1), Qubit(2), 0.1); // idx 2, depends on 0
        let p = schedule(&c, spec(16, 4), SchedulerKind::GreedyMaxExecutable);
        let order: Vec<&Gate> = p.gates().map(|(g, _)| g).collect();
        let pos_of = |target: &Gate| order.iter().position(|g| *g == target).unwrap();
        assert!(
            pos_of(&Gate::Xx(Qubit(0), Qubit(1), 0.1)) < pos_of(&Gate::Xx(Qubit(1), Qubit(2), 0.1))
        );
    }

    #[test]
    fn barriers_fence_but_do_not_emit() {
        let mut c = Circuit::new(8);
        c.xx(Qubit(0), Qubit(1), 0.1);
        c.barrier();
        c.xx(Qubit(6), Qubit(7), 0.1);
        let p = schedule(&c, spec(8, 4), SchedulerKind::GreedyMaxExecutable);
        assert_eq!(p.gate_count(), 2); // barrier not emitted
        let order: Vec<usize> = p.gates().map(|(_, pos)| pos).collect();
        assert_eq!(order, vec![0, 4]);
    }

    #[test]
    fn naive_scheduler_moves_at_least_as_often() {
        let mut c = Circuit::new(32);
        // Interleave left-zone and right-zone gates; greedy batches them,
        // naive ping-pongs.
        for _ in 0..4 {
            c.xx(Qubit(0), Qubit(1), 0.1);
            c.xx(Qubit(30), Qubit(31), 0.1);
        }
        let greedy = schedule(&c, spec(32, 8), SchedulerKind::GreedyMaxExecutable);
        let naive = schedule(&c, spec(32, 8), SchedulerKind::NaiveNextGate);
        assert!(greedy.move_count() <= naive.move_count());
        assert_eq!(greedy.move_count(), 1);
    }

    #[test]
    fn distance_discount_prefers_nearby_work() {
        // Head starts where two gates are executable on the left; one more
        // gate waits on the right, one at centre. Undiscounted Algorithm 2
        // always chases the max count; with a strong travel penalty the
        // scheduler takes the closer position first.
        let mut c = Circuit::new(32);
        c.xx(Qubit(0), Qubit(1), 0.1);
        c.xx(Qubit(12), Qubit(13), 0.1);
        c.xx(Qubit(30), Qubit(31), 0.1);
        let zero = schedule(
            &c,
            spec(32, 4),
            SchedulerKind::DistanceDiscounted {
                penalty_permille: 0,
            },
        );
        let plain = schedule(&c, spec(32, 4), SchedulerKind::GreedyMaxExecutable);
        // Zero penalty reduces exactly to Algorithm 2.
        assert_eq!(zero, plain);
        let discounted = schedule(
            &c,
            spec(32, 4),
            SchedulerKind::DistanceDiscounted {
                penalty_permille: 500,
            },
        );
        // All gates still execute exactly once.
        assert_eq!(discounted.gate_count(), c.len());
        // The discounted schedule never travels farther in total.
        assert!(discounted.move_distance_ions() <= plain.move_distance_ions());
    }

    #[test]
    fn schedule_matches_oracle_on_structured_workloads() {
        // Mixed zones, chains, barriers, and single-qubit traffic: the
        // engine must reproduce the rescan oracle's program op-for-op
        // (positions, moves, and executed-gate order).
        let mut zones = Circuit::new(32);
        for r in 0..4 {
            for i in 0..28 {
                if (i * 5 + r) % 3 == 0 {
                    zones.xx(Qubit(i), Qubit(i + 3), 0.1 * (r + 1) as f64);
                }
            }
            zones.rx(Qubit((r * 7) % 32), 0.5);
        }
        let mut fenced = Circuit::new(16);
        for i in 0..13 {
            fenced.xx(Qubit(i), Qubit(i + 2), 0.2);
            if i % 5 == 4 {
                fenced.barrier();
            }
        }
        let mut pingpong = Circuit::new(24);
        for _ in 0..6 {
            pingpong.xx(Qubit(0), Qubit(1), 0.3);
            pingpong.xx(Qubit(22), Qubit(23), 0.3);
            pingpong.xx(Qubit(11), Qubit(12), 0.3);
        }
        let workloads = [(zones, 32usize, 8usize), (fenced, 16, 4), (pingpong, 24, 4)];
        let kinds = [
            SchedulerKind::GreedyMaxExecutable,
            SchedulerKind::DistanceDiscounted {
                penalty_permille: 250,
            },
            SchedulerKind::DistanceDiscounted {
                penalty_permille: 2000,
            },
            SchedulerKind::NaiveNextGate,
        ];
        for (c, n, head) in &workloads {
            for kind in kinds {
                let scheduled = schedule(c, spec(*n, *head), kind);
                let oracle = schedule_rescan_capped(c, spec(*n, *head), kind, c.len());
                assert_eq!(scheduled, oracle, "{kind:?} diverged on {n}-ion workload");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unrouted gate")]
    fn unrouted_input_is_rejected() {
        let mut c = Circuit::new(16);
        c.xx(Qubit(0), Qubit(15), 0.5);
        schedule(&c, spec(16, 4), SchedulerKind::GreedyMaxExecutable);
    }

    #[test]
    fn single_qubit_gates_need_coverage_too() {
        let mut c = Circuit::new(16);
        c.rx(Qubit(0), 0.1);
        c.rx(Qubit(15), 0.1);
        let p = schedule(&c, spec(16, 4), SchedulerKind::GreedyMaxExecutable);
        assert_eq!(p.move_count(), 1);
        for (g, pos) in p.gates() {
            for q in g.qubits() {
                assert!(spec(16, 4).covers(pos, q.index()));
            }
        }
    }

    #[test]
    fn barrier_only_circuit_schedules_to_empty_program() {
        // No position scores a gate, so the barriers complete without a
        // head position (the round's barrier relief).
        let mut c = Circuit::new(8);
        c.barrier();
        c.barrier();
        for kind in [
            SchedulerKind::GreedyMaxExecutable,
            SchedulerKind::NaiveNextGate,
        ] {
            assert!(schedule(&c, spec(8, 4), kind).ops().is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn empty_circuit_schedules_to_empty_program() {
        let p = schedule(
            &Circuit::new(8),
            spec(8, 4),
            SchedulerKind::GreedyMaxExecutable,
        );
        assert!(p.ops().is_empty());
    }
}
