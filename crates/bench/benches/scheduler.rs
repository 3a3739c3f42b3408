//! Algorithm-2 scheduling throughput on the 16-qubit RCS benchmark,
//! QFT-32 (the many-position regime) and an 8×8 RCS of 2 000 cycles
//! (~632k lowered gates, the horizon-bound regime).
//!
//! Run with: `cargo bench -p tilt-bench --bench scheduler`

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tilt_benchmarks::qft::qft;
use tilt_benchmarks::rcs::random_circuit_sampling;
use tilt_benchmarks::stream::rcs_stream;
use tilt_circuit::Circuit;
use tilt_compiler::decompose::decompose;
use tilt_compiler::mapping::InitialMapping;
use tilt_compiler::schedule::{schedule, SchedulerKind};
use tilt_compiler::{DeviceSpec, RouterKind};

fn bench_workload(c: &mut Criterion, name: &str, circuit: &Circuit, head: usize) {
    let spec = DeviceSpec::new(circuit.n_qubits(), head).unwrap();
    let native = decompose(circuit);
    let initial = InitialMapping::Identity.build(&native, spec.n_ions());
    let routed = RouterKind::default()
        .route(&native, spec, &initial)
        .expect("bench workloads route");
    let lowered = decompose(&routed.circuit);
    let mut group = c.benchmark_group(format!("scheduler_{name}"));
    group.sample_size(10);
    group.bench_function("schedule", |b| {
        b.iter(|| {
            schedule(
                black_box(&lowered),
                spec,
                SchedulerKind::GreedyMaxExecutable,
            )
        });
    });
    group.finish();
}
fn bench_rcs16(c: &mut Criterion) {
    bench_workload(c, "rcs16_head4", &random_circuit_sampling(4, 4, 16, 7), 4);
}

fn bench_qft32(c: &mut Criterion) {
    bench_workload(c, "qft32_head8", &qft(32), 8);
}

fn bench_rcs_stream(c: &mut Criterion) {
    let circuit = Circuit::from_gates(64, rcs_stream(8, 8, 2_000, 7));
    bench_workload(c, "rcs_stream_8x8x2000_head16", &circuit, 16);
}

criterion_group!(benches, bench_rcs16, bench_qft32, bench_rcs_stream);
criterion_main!(benches);
