//! The reference scheduler the equivalence tests compare against.
//!
//! [`schedule_rescan_capped`] is Algorithm 2 written as plainly as
//! possible: each round it rebuilds every head position's cascade count
//! from the dependency DAG with fresh hash containers, and it drains the
//! chosen position by rescanning the ready set per executed gate. It
//! shares no scoring or bookkeeping code with [`super::StreamScheduler`],
//! which is what makes agreement between the two meaningful.
//!
//! Every scoring and drain step is filtered to the round's eligibility
//! bound `E = min(floor + horizon, n)`. With `horizon ≥ n` the bound
//! never binds and this is the seed's unbounded rescan engine, except
//! that a round whose eligible ready set is all barriers completes them
//! instead of panicking. It holds the whole circuit and its DAG, and it
//! is quadratic in places, so no production path calls it.

use super::SchedulerKind;
use crate::program::{TiltOp, TiltProgram};
use crate::spec::DeviceSpec;
use std::collections::{HashMap, HashSet};
use tilt_circuit::{Circuit, Dag, Gate, ReadyTracker};

/// Schedules `physical` with the reference rescan engine under an
/// eligibility horizon of `horizon` gates (clamped to at least 1).
///
/// Test oracle only: decision-identical to [`super::schedule`] when
/// `horizon` is [`super::DEFAULT_HORIZON`], and to a
/// [`super::StreamScheduler`] of the same horizon in general.
///
/// # Panics
///
/// Panics on an unroutable circuit (no head position can execute any
/// eligible ready gate and no barrier is ready).
#[doc(hidden)]
pub fn schedule_rescan_capped(
    physical: &Circuit,
    spec: DeviceSpec,
    kind: SchedulerKind,
    horizon: usize,
) -> TiltProgram {
    let horizon = horizon.max(1);
    let dag = Dag::new(physical);
    let mut tracker = ReadyTracker::new(&dag);
    let gates = physical.gates();
    let n = gates.len();
    let mut ops: Vec<TiltOp> = Vec::with_capacity(n);
    let mut head: Option<usize> = None;
    let mut floor = 0usize;

    while !tracker.is_done() {
        while floor < n && tracker.is_complete(floor) {
            floor += 1;
        }
        let e = (floor + horizon).min(n);

        let pos = match kind {
            SchedulerKind::NaiveNextGate => {
                let oldest = *tracker
                    .ready()
                    .iter()
                    .filter(|&&i| i < e)
                    .min()
                    .expect("floor gate is always ready and eligible");
                leftmost_position_covering(physical, spec, oldest)
            }
            _ => {
                let penalty = kind
                    .penalty_permille()
                    .expect("scoring kinds carry a penalty");
                // Eq. 2 argmax; ties prefer the smaller head travel,
                // then the leftmost position.
                let mut best_pos = 0usize;
                let mut best_score = i64::MIN;
                let mut best_dist = usize::MAX;
                let mut any = false;
                for p in spec.head_positions() {
                    let count = capped_executable_count(physical, &dag, &tracker, spec, p, e);
                    if count == 0 {
                        continue;
                    }
                    any = true;
                    let dist = head.map_or(0, |h| h.abs_diff(p));
                    let score = count as i64 * 1000 - penalty * dist as i64;
                    if score > best_score || (score == best_score && dist < best_dist) {
                        best_score = score;
                        best_pos = p;
                        best_dist = dist;
                    }
                }
                if !any {
                    // Barrier relief, mirroring `StreamScheduler`: the
                    // eligible ready set is all barriers — complete
                    // them (min-index) without moving the head.
                    let mut relieved = false;
                    loop {
                        let next = tracker
                            .ready()
                            .iter()
                            .copied()
                            .filter(|&i| i < e && matches!(gates[i], Gate::Barrier))
                            .min();
                        let Some(i) = next else { break };
                        tracker.complete(&dag, i);
                        relieved = true;
                    }
                    assert!(
                        relieved,
                        "no head position can execute any ready gate; circuit is unroutable"
                    );
                    continue;
                }
                best_pos
            }
        };

        if head != Some(pos) {
            if head.is_some() {
                ops.push(TiltOp::Move { to: pos });
            }
            head = Some(pos);
        }

        // Drain the cascade at `pos` in min-index order.
        let mut executed_any = false;
        loop {
            let next = tracker
                .ready()
                .iter()
                .copied()
                .filter(|&i| i < e && gate_fits(gates[i], spec, pos))
                .min();
            let Some(i) = next else { break };
            tracker.complete(&dag, i);
            executed_any = true;
            let gate = gates[i];
            if !matches!(gate, Gate::Barrier) {
                ops.push(TiltOp::Gate {
                    gate,
                    head_pos: pos,
                });
            }
        }
        assert!(
            executed_any,
            "scheduler made no progress at position {pos}; this is a bug"
        );
    }

    TiltProgram::new(spec, ops)
}

/// True when every operand of `g` is covered by the head at `pos`
/// (barriers fit anywhere).
fn gate_fits(g: Gate, spec: DeviceSpec, pos: usize) -> bool {
    g.qubits().iter().all(|q| spec.covers(pos, q.index()))
}

/// The leftmost head position covering gate `i` (barriers default to 0).
fn leftmost_position_covering(physical: &Circuit, spec: DeviceSpec, i: usize) -> usize {
    let g = physical.gates()[i];
    spec.covering_head_positions(g.qubits().iter().map(|q| q.index()))
        .map(|r| *r.start())
        .unwrap_or(0)
}

/// Counts the cascade of eligible gates executable at head position
/// `pos` without mutating the tracker: ready gates below `e` covered by
/// the head execute, unlocking covered successors below `e`, and so on.
/// Barriers cascade but do not count.
fn capped_executable_count(
    physical: &Circuit,
    dag: &Dag,
    tracker: &ReadyTracker,
    spec: DeviceSpec,
    pos: usize,
    e: usize,
) -> usize {
    let gates = physical.gates();
    let mut queue: Vec<usize> = tracker
        .ready()
        .iter()
        .copied()
        .filter(|&i| i < e && gate_fits(gates[i], spec, pos))
        .collect();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut local_indeg: HashMap<usize, usize> = HashMap::new();
    let mut count = 0usize;
    while let Some(i) = queue.pop() {
        if !seen.insert(i) {
            continue;
        }
        if !matches!(gates[i], Gate::Barrier) {
            count += 1;
        }
        for &s in dag.succs(i) {
            if s >= e {
                continue;
            }
            let remaining = local_indeg.entry(s).or_insert_with(|| {
                dag.preds(s)
                    .iter()
                    .filter(|&&p| !tracker.is_complete(p))
                    .count()
            });
            *remaining -= 1;
            if *remaining == 0 && gate_fits(gates[s], spec, pos) {
                queue.push(s);
            }
        }
    }
    count
}
