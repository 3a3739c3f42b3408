//! Pins the swap router (`StreamRouter`, behind `RouterKind::route` and
//! the streaming pipeline) to the reference router (`route_oracle`).
//!
//! Random native circuits — far `XX` pairs, rotations, barriers and
//! measure/reset — run through the oracle, through `RouterKind::route`
//! and through `StreamingCompiler` at several window sizes, for every
//! router configuration below. All must agree exactly: the same routed
//! gates, swap and opposing-swap counts and final mapping. The streamed
//! program is compared against the oracle's routed circuit lowered and
//! scheduled, which is how a window boundary that changed one swap would
//! show. Fixed cases cover what the small random circuits never reach:
//! a circuit long enough to rebase the router's skeleton several times,
//! and a look-ahead longer than any circuit.

use proptest::prelude::*;
use tilt::circuit::{Circuit, Gate, Qubit};
use tilt::compiler::decompose::decompose;
use tilt::compiler::route::{route_oracle, LinqConfig, RouteOutcome, StochasticConfig};
use tilt::compiler::schedule::schedule;
use tilt::compiler::{CollectSink, Compiler, DeviceSpec, InitialMapping, RouterKind};

/// Window sizes for the streaming pipeline: gate by gate, small, large,
/// and the whole circuit as one window.
const WINDOWS: [usize; 4] = [1, 64, 1024, usize::MAX];

/// The router configurations under test.
fn routers() -> Vec<RouterKind> {
    vec![
        RouterKind::Linq(LinqConfig::default()),
        RouterKind::Linq(LinqConfig::with_max_swap_len(3)),
        RouterKind::Linq(LinqConfig {
            lookahead: 17,
            ..LinqConfig::default()
        }),
        RouterKind::Stochastic(StochasticConfig::default()),
        RouterKind::Stochastic(StochasticConfig {
            seed: 7,
            ..StochasticConfig::default()
        }),
    ]
}

fn spec_strategy() -> impl Strategy<Value = DeviceSpec> {
    prop_oneof![
        Just(DeviceSpec::new(16, 4).unwrap()),
        Just(DeviceSpec::new(24, 6).unwrap()),
        Just(DeviceSpec::new(32, 8).unwrap()),
    ]
}

/// A random native circuit on `n` qubits, dominated by two-qubit traffic
/// between arbitrary (often far) pairs.
fn native_circuit_strategy(n: usize) -> impl Strategy<Value = Circuit> {
    let xx = move |(a, d): (usize, usize)| {
        let b = (a + d) % n;
        if a == b {
            vec![Gate::Rx(Qubit(a), 0.3)]
        } else {
            vec![Gate::Xx(Qubit(a), Qubit(b), 0.4)]
        }
    };
    // The shim's `prop_oneof!` is unweighted; repeat the two-qubit arm
    // to keep routing busy.
    let gate = prop_oneof![
        (0..n, 1..n).prop_map(xx),
        (0..n, 1..n).prop_map(xx),
        (0..n, 1..n).prop_map(xx),
        (0..n, 1..n).prop_map(xx),
        (0..n).prop_map(|q| vec![Gate::Rz(Qubit(q), 0.7)]),
        (0..n).prop_map(|q| vec![Gate::Measure(Qubit(q)), Gate::Reset(Qubit(q))]),
        Just(vec![Gate::Barrier]),
    ];
    prop::collection::vec(gate, 1..160)
        .prop_map(move |gates| Circuit::from_gates(n, gates.into_iter().flatten()))
}

/// Asserts that both entry points route `c` exactly as the oracle does.
fn assert_router_matches_oracle(c: &Circuit, spec: DeviceSpec, kind: RouterKind) {
    let initial = InitialMapping::Identity.build(c, spec.n_ions());
    let oracle = route_oracle(c, spec, &initial, &kind);
    let routed = kind.route(c, spec, &initial).unwrap();
    assert_same_route(&routed, &oracle, &format!("{kind:?} route"));

    let mut compiler = Compiler::new(spec);
    compiler.router(kind);
    let expected = schedule(
        &decompose(&oracle.circuit),
        spec,
        tilt::compiler::SchedulerKind::default(),
    );
    for window in WINDOWS {
        let mut sink = CollectSink::default();
        let summary = compiler
            .compile_stream(c.n_qubits(), c.iter().copied(), window, &mut sink)
            .unwrap();
        let what = format!("{kind:?} window {window}");
        assert_eq!(sink.ops, expected.ops(), "{what}: program");
        assert_eq!(summary.report.swap_count, oracle.swap_count, "{what}");
        assert_eq!(
            summary.report.opposing_swap_count, oracle.opposing_swap_count,
            "{what}"
        );
        assert_eq!(summary.final_mapping, oracle.final_mapping, "{what}");
    }
}

fn assert_same_route(got: &RouteOutcome, oracle: &RouteOutcome, what: &str) {
    assert_eq!(got.circuit, oracle.circuit, "{what}: routed gates");
    assert_eq!(got.swap_count, oracle.swap_count, "{what}: swaps");
    assert_eq!(
        got.opposing_swap_count, oracle.opposing_swap_count,
        "{what}: opposing swaps"
    );
    assert_eq!(got.final_mapping, oracle.final_mapping, "{what}: mapping");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn router_matches_oracle_on_random_circuits(
        (spec, c) in spec_strategy()
            .prop_flat_map(|spec| (Just(spec), native_circuit_strategy(spec.n_ions())))
    ) {
        for kind in routers() {
            assert_router_matches_oracle(&c, spec, kind);
        }
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// `len` random far `XX` pairs with a rotation, a barrier or a
/// measure/reset every few gates.
fn long_circuit(n: usize, len: usize, seed: u64) -> Circuit {
    let mut c = Circuit::new(n);
    let mut s = seed;
    for i in 0..len {
        let a = (xorshift(&mut s) as usize) % n;
        let b = (a + 1 + (xorshift(&mut s) as usize) % (n - 1)) % n;
        c.xx(Qubit(a), Qubit(b), 0.5);
        match i % 97 {
            0 => {
                c.barrier();
            }
            13 => {
                c.measure(Qubit(b)).reset_qubit(Qubit(b));
            }
            _ if i % 3 == 0 => {
                c.rz(Qubit(a), 0.25);
            }
            _ => {}
        }
    }
    c
}

#[test]
fn skeleton_rebases_several_times_without_changing_a_swap() {
    // 13,000 two-qubit gates: the router drops its routed skeleton
    // prefix every 4,096 of them.
    let c = long_circuit(24, 13_000, 0x5EED);
    let spec = DeviceSpec::new(24, 6).unwrap();
    assert_router_matches_oracle(&c, spec, RouterKind::Linq(LinqConfig::default()));
    assert_router_matches_oracle(
        &c,
        spec,
        RouterKind::Stochastic(StochasticConfig::default()),
    );
}

#[test]
fn unbounded_lookahead_means_every_remaining_gate() {
    // Three long CNOTs on 16 ions under a 4-ion head: this once
    // overflowed `cursor + lookahead`.
    let mut cnots = Circuit::new(16);
    cnots.cnot(Qubit(0), Qubit(15));
    cnots.cnot(Qubit(1), Qubit(14));
    cnots.cnot(Qubit(2), Qubit(13));
    let spec = DeviceSpec::new(16, 4).unwrap();
    let unbounded = RouterKind::Linq(LinqConfig {
        lookahead: usize::MAX,
        ..LinqConfig::default()
    });
    for (c, spec) in [
        (cnots, spec),
        (
            long_circuit(20, 600, 0xA11),
            DeviceSpec::new(20, 5).unwrap(),
        ),
    ] {
        let native = decompose(&c);
        let exact = RouterKind::Linq(LinqConfig {
            lookahead: native.two_qubit_count(),
            ..LinqConfig::default()
        });
        let initial = InitialMapping::Identity.build(&native, spec.n_ions());
        let reference = exact.route(&native, spec, &initial).unwrap();
        assert_router_matches_oracle(&native, spec, unbounded);
        let routed = unbounded.route(&native, spec, &initial).unwrap();
        assert_same_route(&routed, &reference, "usize::MAX vs two-qubit count");

        let mut compiler = Compiler::new(spec);
        compiler.router(unbounded);
        let mono = compiler.compile(&c).unwrap();
        assert_same_route(&mono.routed, &reference, "Compiler::compile");
        let mut sink = CollectSink::default();
        let summary = compiler
            .compile_stream(c.n_qubits(), c.iter().copied(), 2, &mut sink)
            .unwrap();
        assert_eq!(sink.ops, mono.program.ops());
        assert_eq!(summary.final_mapping, reference.final_mapping);
    }
}
