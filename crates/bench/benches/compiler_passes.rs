//! Criterion timing of the three LinQ passes (the `t_swap`/`t_move`
//! columns of Table III, measured robustly), plus the QASM front end
//! that feeds them.
//!
//! Run with: `cargo bench -p bench --bench compiler_passes`

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tilt_benchmarks::{bv::bv64, paper_suite, qft::qft64, sqrt::sqrt78};
use tilt_circuit::qasm::{parse_qasm, to_qasm};
use tilt_compiler::decompose::decompose;
use tilt_compiler::mapping::InitialMapping;
use tilt_compiler::schedule::{schedule, SchedulerKind};
use tilt_compiler::{DeviceSpec, RouterKind};

fn bench_qasm_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("qasm_parse");
    for bench in paper_suite() {
        let text = to_qasm(&bench.circuit);
        group.bench_function(bench.name, |b| {
            b.iter(|| parse_qasm(black_box(&text)).unwrap());
        });
    }
    group.finish();
}

fn bench_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    for (name, circuit) in [("bv64", bv64()), ("qft64", qft64())] {
        group.bench_function(name, |b| b.iter(|| decompose(black_box(&circuit))));
    }
    group.finish();
}

fn bench_swap_insertion(c: &mut Criterion) {
    let mut group = c.benchmark_group("swap_insertion_head16");
    group.sample_size(10);
    let workloads = [("bv64", bv64()), ("qft64", qft64()), ("sqrt78", sqrt78())];
    for (name, circuit) in &workloads {
        let native = decompose(circuit);
        let spec = DeviceSpec::new(native.n_qubits(), 16).unwrap();
        let initial = InitialMapping::Identity.build(&native, spec.n_ions());
        group.bench_function(format!("linq/{name}"), |b| {
            b.iter(|| {
                RouterKind::default()
                    .route(black_box(&native), spec, &initial)
                    .unwrap()
            });
        });
        group.bench_function(format!("baseline/{name}"), |b| {
            b.iter(|| {
                RouterKind::Stochastic(Default::default())
                    .route(black_box(&native), spec, &initial)
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_tape_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("tape_scheduling_head16");
    group.sample_size(10);
    for (name, circuit) in [("bv64", bv64()), ("qft64", qft64())] {
        let native = decompose(&circuit);
        let spec = DeviceSpec::new(native.n_qubits(), 16).unwrap();
        let initial = InitialMapping::Identity.build(&native, spec.n_ions());
        let routed = RouterKind::default()
            .route(&native, spec, &initial)
            .unwrap();
        let lowered = decompose(&routed.circuit);
        group.bench_function(name, |b| {
            b.iter(|| {
                schedule(
                    black_box(&lowered),
                    spec,
                    SchedulerKind::GreedyMaxExecutable,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_qasm_parse,
    bench_decompose,
    bench_swap_insertion,
    bench_tape_scheduling
);
criterion_main!(benches);
