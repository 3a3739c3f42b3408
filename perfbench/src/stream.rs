//! `stream_rcs_1m`: the 1,012,064-gate 8×8 RCS, written as QASM to a
//! temporary file during set-up and compiled with
//! `Engine::run_streaming_qasm` on a 64-ion, head-16 tape with the
//! default window and a counting sink.

use crate::util::{
    arr, calibrate, digest, emit, host_factor, peak_rss_mb, quantile, ready, tmp_dir,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tilt_benchmarks::stream::rcs_stream;
use tilt_circuit::qasm::{parse_qasm, write_qasm_stream, QasmStream};
use tilt_compiler::{DeviceSpec, TiltOp};
use tilt_engine::{Engine, StreamOutcome, DEFAULT_STREAM_WINDOW};
use tilt_report::Json;

const ROWS: usize = 8;
const COLS: usize = 8;
const CYCLES: usize = 11_000;
const QUBITS: usize = ROWS * COLS;

fn engine() -> Engine {
    Engine::tilt(DeviceSpec::new(QUBITS, 16).expect("valid tape"))
}

fn circuit_seed(seed: u64) -> u64 {
    crate::util::Rng::new(seed).next_u64()
}

pub fn input_path(tag: &str) -> PathBuf {
    tmp_dir().join(format!("rcs1m-{}-{tag}.qasm", std::process::id()))
}

/// Writes the seeded circuit to `path` gate by gate; returns the
/// generator's gate count.
pub fn write_input(seed: u64, path: &Path) -> usize {
    let mut gates = 0usize;
    let mut w = BufWriter::new(File::create(path).expect("create the QASM input"));
    let stream = rcs_stream(ROWS, COLS, CYCLES, circuit_seed(seed)).inspect(|_| gates += 1);
    write_qasm_stream(QUBITS, stream, &mut w).expect("write the QASM input");
    w.flush().expect("flush the QASM input");
    gates
}

/// A sink that counts ops and stamps each increment's arrival.
struct Stamps {
    start: Instant,
    at_ms: Vec<f64>,
    ops: usize,
}

impl tilt_engine::StreamSink for Stamps {
    fn emit(&mut self, _shard: usize, ops: &[TiltOp]) {
        self.at_ms.push(self.start.elapsed().as_secs_f64() * 1e3);
        self.ops += ops.len();
    }
}

/// One pass: file open to final outcome.
fn pass(engine: &Engine, path: &Path) -> (StreamOutcome, Stamps, f64) {
    let mut sink = Stamps {
        start: Instant::now(),
        at_ms: Vec::new(),
        ops: 0,
    };
    let reader = BufReader::new(File::open(path).expect("open the QASM input"));
    let outcome = engine
        .run_streaming_qasm(reader, DEFAULT_STREAM_WINDOW, &mut sink)
        .expect("the stream compiles");
    let secs = sink.start.elapsed().as_secs_f64();
    (outcome, sink, secs)
}

/// The outcome's deterministic fields as bytes.
fn outcome_bytes(o: &StreamOutcome, ops: usize) -> String {
    let c = &o.compile;
    format!(
        "{} {} {} {} {} {} {} {} {} {}",
        c.swap_count,
        c.opposing_swap_count,
        c.move_count,
        c.move_distance,
        c.native_gate_count,
        o.ln_success.to_bits(),
        o.exec_time_us.to_bits(),
        o.increments,
        o.input_gate_count,
        ops
    )
}

/// Correctness of one pass: at least two increments and every input gate
/// of the generator consumed.
fn pass_ok(o: &StreamOutcome, generated: usize) -> bool {
    o.increments >= 2 && o.input_gate_count == generated
}

/// Timed round.
pub fn child(seed: u64, budget_s: f64) {
    let setup_cal = calibrate();
    let engine = engine();
    let path = input_path("timed");
    let generated = write_input(seed, &path);
    ready();

    let (mut p50, mut p99, mut samples) = (Vec::new(), Vec::new(), 0usize);
    let (mut first, mut passes_s, mut raw_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut cal = vec![calibrate()];
    let mut wrong = 0usize;
    let mut reference: Option<String> = None;
    let start = Instant::now();
    // Whole passes only, ending as close to the budget as they can.
    while raw_s
        .last()
        .is_none_or(|last| start.elapsed().as_secs_f64() + last / 2.0 <= budget_s)
    {
        let (outcome, sink, secs) = pass(&engine, &path);
        cal.push(calibrate());
        let f = host_factor(cal[cal.len() - 2], cal[cal.len() - 1]);
        passes_s.push(secs * f);
        raw_s.push(secs);
        first.push(sink.at_ms[0] * f);
        let mut pass_gaps: Vec<f64> = std::iter::once(sink.at_ms[0])
            .chain(sink.at_ms.windows(2).map(|w| w[1] - w[0]))
            .map(|ms| ms * f)
            .collect();
        samples += pass_gaps.len();
        p50.push(quantile(&mut pass_gaps, 0.5));
        p99.push(quantile(&mut pass_gaps, 0.99));
        let bytes = outcome_bytes(&outcome, sink.ops);
        if !pass_ok(&outcome, generated) || reference.get_or_insert_with(|| bytes.clone()) != &bytes
        {
            wrong += 1;
        }
    }
    let attempted = passes_s.len();
    std::fs::remove_file(&path).expect("remove the QASM input");
    emit(
        &Json::object()
            .set("attempted", attempted)
            .set("failed", 0usize)
            .set("wrong", wrong)
            .set("unit_items", arr(&vec![1.0; attempted]))
            .set("unit_gates", arr(&vec![generated as f64; attempted]))
            .set("unit_s", arr(&passes_s))
            .set("raw_unit_s", arr(&raw_s))
            .set("setup_factor", host_factor(setup_cal, cal[0]))
            .set("p50_ms", arr(&p50))
            .set("p99_ms", arr(&p99))
            .set("latency_samples", samples)
            .set("first_output_ms", arr(&first))
            .set("peak_rss_mb", peak_rss_mb())
            .set("digest", digest(reference.unwrap_or_default().as_bytes())),
    );
}

/// Traced round on an input the parent wrote: the streaming pass with
/// increment stamps, the compile alone on the gate iterator, and the
/// parser pulled alone.
pub fn trace_child(seed: u64, path: &Path) {
    let engine = engine();
    let generated = rcs_stream(ROWS, COLS, CYCLES, circuit_seed(seed)).count();
    // A warm-up pass, then the stamped pass, then the same pass untraced
    // (a sink that ignores the increments) for the overhead ratio.
    let (warm, warm_sink, _) = pass(&engine, path);
    let (outcome, sink, e2e_s) = pass(&engine, path);
    let mut wrong = usize::from(!pass_ok(&outcome, generated))
        + usize::from(outcome_bytes(&outcome, sink.ops) != outcome_bytes(&warm, warm_sink.ops));
    let t0 = Instant::now();
    let reader = BufReader::new(File::open(path).expect("open the QASM input"));
    engine
        .run_streaming_qasm(reader, DEFAULT_STREAM_WINDOW, &mut tilt_engine::NullSink)
        .expect("the stream compiles");
    let untraced_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let compiled = engine
        .run_streaming(
            QUBITS,
            rcs_stream(ROWS, COLS, CYCLES, circuit_seed(seed)),
            DEFAULT_STREAM_WINDOW,
            &mut tilt_engine::NullSink,
        )
        .expect("the gate stream compiles");
    let compile_s = t0.elapsed().as_secs_f64();
    wrong += usize::from(compiled.ln_success.to_bits() != outcome.ln_success.to_bits());

    let t0 = Instant::now();
    let mut parsed = 0usize;
    for gate in QasmStream::new(BufReader::new(
        File::open(path).expect("open the QASM input"),
    )) {
        gate.expect("the QASM input parses");
        parsed += 1;
    }
    let stream_s = t0.elapsed().as_secs_f64();
    wrong += usize::from(parsed != generated);
    let bytes = std::fs::metadata(path).expect("stat the QASM input").len() as f64;

    let c = &outcome.compile;
    let (decompose_s, route_s, schedule_s) = (
        c.t_decompose.as_secs_f64(),
        c.t_swap.as_secs_f64(),
        c.t_move.as_secs_f64(),
    );
    let gap_max = sink
        .at_ms
        .windows(2)
        .map(|w| w[1] - w[0])
        .fold(sink.at_ms[0], f64::max);
    let mut layers = BTreeMap::new();
    layers.insert("decompose.s", decompose_s);
    layers.insert("decompose.native_gates", c.native_gate_count as f64);
    layers.insert("route.s", route_s);
    layers.insert("route.swaps", c.swap_count as f64);
    layers.insert(
        "route.opposing_ratio",
        if c.swap_count == 0 {
            0.0
        } else {
            c.opposing_swap_count as f64 / c.swap_count as f64
        },
    );
    layers.insert("schedule.s", schedule_s);
    layers.insert("schedule.moves", c.move_count as f64);
    layers.insert("schedule.move_distance", c.move_distance as f64);
    layers.insert("schedule.ops", sink.ops as f64);
    layers.insert("engine.run_s", e2e_s);
    layers.insert("stream.increments", outcome.increments as f64);
    layers.insert("stream.increment_gap_max_ms", gap_max);
    layers.insert("stream.compile_s", compile_s);
    layers.insert("qasm.stream_s", stream_s);
    layers.insert("qasm.bytes_per_s", bytes / stream_s);
    layers.insert(
        "trace.unaccounted_ratio",
        (e2e_s - decompose_s - route_s - schedule_s - stream_s) / e2e_s,
    );
    layers.insert("trace.overhead_ratio", e2e_s / untraced_s);
    println!(
        "stream_rcs_1m trace: pass {e2e_s:.3} s (decompose {decompose_s:.3} + route {route_s:.3} + schedule {schedule_s:.3}, \
         pass timers of the streaming compiler) ; parser alone {stream_s:.3} s ; compile alone {compile_s:.3} s ; \
         {} increments, max gap {gap_max:.1} ms",
        outcome.increments
    );
    emit(&crate::layer_values(layers, 1, 0, wrong));
}

/// One side of the streaming-vs-monolithic settlement, in its own
/// process: file open to final outcome (in reference-host time), then
/// this process's peak RSS.
pub fn settle_child(path: &Path, monolithic: bool) {
    let engine = engine();
    let before = calibrate();
    let t0 = Instant::now();
    let (gates, ln_success) = if monolithic {
        let mut text = String::new();
        File::open(path)
            .expect("open the QASM input")
            .read_to_string(&mut text)
            .expect("read the QASM input");
        let circuit = parse_qasm(&text).expect("the QASM input parses");
        drop(text);
        let report = engine.run(&circuit).expect("the circuit compiles");
        (circuit.len(), report.ln_success)
    } else {
        let (outcome, _, _) = pass(&engine, path);
        (outcome.input_gate_count, outcome.ln_success)
    };
    let secs = t0.elapsed().as_secs_f64() * host_factor(before, calibrate());
    emit(
        &Json::object()
            .set("gates_per_s", gates as f64 / secs)
            .set("peak_rss_mb", peak_rss_mb())
            .set("ln_success_bits", format!("{:x}", ln_success.to_bits())),
    );
}
