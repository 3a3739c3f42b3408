//! Pins the Algorithm-2 engine (`schedule`) to the reference rescan
//! scheduler (`schedule_rescan_capped`, the oracle).
//!
//! Random already-routed circuits (every two-qubit gate fits under the
//! head) run through both for every policy; the resulting programs must
//! be identical op-for-op — same move sequence, same head positions,
//! same executed-gate order. A second property routes random *unrouted*
//! circuits through the full compiler first, so the two are also
//! compared on realistic swap-laden gate streams. Fixed cases cover what
//! the small random tapes never reach: a wide, barrier-heavy tape with
//! hundreds of head positions, and a circuit long enough that the
//! eligibility horizon binds.

use proptest::prelude::*;
use tilt::benchmarks::qec::repetition_code;
use tilt::circuit::{Circuit, Gate, Qubit};
use tilt::compiler::schedule::{schedule, schedule_rescan_capped, SchedulerKind, DEFAULT_HORIZON};
use tilt::compiler::{Compiler, DeviceSpec, InitialMapping, TiltProgram};

/// Device shapes worth covering: narrow and wide heads, few and many
/// head positions.
fn spec_strategy() -> impl Strategy<Value = DeviceSpec> {
    prop_oneof![
        Just(DeviceSpec::new(16, 4).unwrap()),
        Just(DeviceSpec::new(24, 6).unwrap()),
        Just(DeviceSpec::new(32, 8).unwrap()),
        Just(DeviceSpec::new(12, 12).unwrap()),
    ]
}

fn kind_strategy() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::GreedyMaxExecutable),
        (1u32..3000)
            .prop_map(|penalty_permille| SchedulerKind::DistanceDiscounted { penalty_permille }),
        Just(SchedulerKind::NaiveNextGate),
    ]
}

/// The oracle with a horizon that never binds on `c`.
fn oracle(c: &Circuit, spec: DeviceSpec, kind: SchedulerKind) -> TiltProgram {
    schedule_rescan_capped(c, spec, kind, c.len())
}

/// A random *routed* circuit on `spec`: all two-qubit spans stay under
/// the head, with single-qubit gates and barriers mixed in.
fn routed_circuit_strategy(spec: DeviceSpec) -> impl Strategy<Value = Circuit> {
    let n = spec.n_ions();
    let head = spec.head_size();
    let two_q = move |(a, d): (usize, usize)| {
        let b = if a + d < n { a + d } else { a - d.min(a) };
        if a == b {
            Gate::Rx(Qubit(a), 0.3)
        } else {
            Gate::Xx(Qubit(a), Qubit(b), 0.4)
        }
    };
    // The shim's `prop_oneof!` is unweighted; repeat the two-qubit arm
    // to keep the stream dominated by schedulable gate traffic.
    let gate = prop_oneof![
        (0..n, 1..head).prop_map(two_q),
        (0..n, 1..head).prop_map(two_q),
        (0..n, 1..head).prop_map(two_q),
        (0..n, 1..head).prop_map(two_q),
        (0..n).prop_map(|q| Gate::Rz(Qubit(q), 0.7)),
        (0..n).prop_map(|q| Gate::Rz(Qubit(q), 0.7)),
        Just(Gate::Barrier),
    ];
    prop::collection::vec(gate, 1..120).prop_map(move |gates| Circuit::from_gates(n, gates))
}

/// The tape-move targets of `p`, in order.
fn moves(p: &TiltProgram) -> Vec<usize> {
    p.ops()
        .iter()
        .filter_map(|op| match op {
            tilt::compiler::TiltOp::Move { to } => Some(*to),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine and the oracle produce identical programs on random
    /// routed circuits under every policy.
    #[test]
    fn engines_agree_on_random_circuits(
        (spec, circuit) in spec_strategy().prop_flat_map(|s| (Just(s), routed_circuit_strategy(s))),
        kind in kind_strategy(),
    ) {
        let scheduled = schedule(&circuit, spec, kind);
        let reference = oracle(&circuit, spec, kind);
        prop_assert_eq!(
            &scheduled, &reference,
            "engine diverged from the oracle for {:?} on:\n{}", kind, circuit
        );
        // Belt and braces on the two halves the equality covers: the
        // move sequence and the executed-gate order.
        prop_assert_eq!(moves(&scheduled), moves(&reference));
        let order: Vec<&Gate> = scheduled.gates().map(|(g, _)| g).collect();
        let order_reference: Vec<&Gate> = reference.gates().map(|(g, _)| g).collect();
        prop_assert_eq!(order, order_reference);
    }

    /// Same comparison after real routing: random long-range circuits
    /// go through decomposition and LinQ swap insertion, then the engine
    /// and the oracle schedule the lowered stream.
    #[test]
    fn engines_agree_after_routing(
        pairs in prop::collection::vec((0usize..24, 0usize..24, 1u32..3), 1..25),
        kind in kind_strategy(),
    ) {
        let spec = DeviceSpec::new(24, 6).unwrap();
        let mut c = Circuit::new(24);
        for (a, b, kind_sel) in pairs {
            if a == b {
                c.rz(Qubit(a), 0.4);
            } else if kind_sel == 1 {
                c.cnot(Qubit(a), Qubit(b));
            } else {
                c.xx(Qubit(a), Qubit(b), 0.9);
            }
        }
        let native = tilt::compiler::decompose::decompose(&c);
        let initial = InitialMapping::Identity.build(&native, spec.n_ions());
        let routed = tilt::compiler::RouterKind::default()
            .route(&native, spec, &initial)
            .expect("random circuits on 24 ions route");
        let lowered = tilt::compiler::decompose::decompose(&routed.circuit);
        prop_assert_eq!(
            schedule(&lowered, spec, kind),
            oracle(&lowered, spec, kind),
            "engine diverged from the oracle for {:?}", kind
        );
    }
}

/// The compiler pipeline's program is the oracle's schedule of the
/// lowered routed circuit, end to end.
#[test]
fn pipeline_schedule_is_engine_independent() {
    let mut c = Circuit::new(32);
    for i in 0..16 {
        c.cnot(Qubit(i), Qubit(31 - i));
    }
    let spec = DeviceSpec::new(32, 8).unwrap();
    let out = Compiler::new(spec).compile(&c).expect("compiles");
    let lowered = tilt::compiler::decompose::decompose(&out.routed.circuit);
    assert_eq!(
        out.program,
        oracle(&lowered, spec, SchedulerKind::GreedyMaxExecutable)
    );
}

/// A wide, barrier-heavy tape: a distance-61 repetition code (121 ions,
/// 106 head positions at head 16) with a barrier closing every syndrome
/// round. Each barrier depends on the whole round, so this exercises the
/// barrier edges and dirty ranges far beyond the random tapes above.
#[test]
fn wide_barrier_heavy_tape_matches_oracle() {
    let c = repetition_code(61, 4);
    let spec = DeviceSpec::new(c.n_qubits(), 16).unwrap();
    assert!(spec.n_head_positions() >= 100);
    let out = Compiler::new(spec).compile(&c).expect("compiles");
    let lowered = tilt::compiler::decompose::decompose(&out.routed.circuit);
    assert!(
        lowered
            .iter()
            .filter(|g| matches!(g, Gate::Barrier))
            .count()
            >= 4
    );
    for kind in [
        SchedulerKind::GreedyMaxExecutable,
        SchedulerKind::DistanceDiscounted {
            penalty_permille: 400,
        },
        SchedulerKind::NaiveNextGate,
    ] {
        assert_eq!(
            schedule(&lowered, spec, kind),
            oracle(&lowered, spec, kind),
            "{kind:?}"
        );
    }
}

/// A circuit longer than the eligibility horizon, with barriers, where
/// the horizon changes the schedule. A zone-B chain of `b` gates comes
/// first, then a longer zone-A chain that runs `a > b` gates before its
/// first barrier and then fences every 1000 gates. Unbounded, zone A
/// scores `a` and wins the first round; under the horizon only
/// `DEFAULT_HORIZON − b < b` of its gates are eligible, so zone B goes
/// first. `schedule` must follow the horizon-capped oracle.
#[test]
fn horizon_binding_stream_with_barriers_matches_oracle() {
    let b = 80_000;
    let a = 90_000;
    assert!(a > b && DEFAULT_HORIZON - b < b);
    let mut c = Circuit::new(16);
    for _ in 0..b {
        c.xx(Qubit(12), Qubit(13), 0.1);
    }
    for _ in 0..a {
        c.xx(Qubit(0), Qubit(1), 0.1);
    }
    for i in 0..60_000 {
        if i % 1000 == 0 {
            c.barrier();
        }
        c.xx(Qubit(i % 3), Qubit(i % 3 + 1), 0.1);
    }
    assert!(c.len() > DEFAULT_HORIZON);
    let spec = DeviceSpec::new(16, 4).unwrap();
    let kind = SchedulerKind::GreedyMaxExecutable;
    let capped = schedule_rescan_capped(&c, spec, kind, DEFAULT_HORIZON);
    assert_ne!(
        capped,
        oracle(&c, spec, kind),
        "the horizon must bind on this circuit"
    );
    assert_eq!(schedule(&c, spec, kind), capped);
}
