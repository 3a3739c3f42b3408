//! One benchmark item per (circuit, machine) pair, and the traced
//! equivalent of `Engine::run`: the same work split into each layer's
//! public steps, with a span around every call.

use crate::trace::Trace;
use tilt_circuit::Circuit;
use tilt_compiler::decompose::decompose;
use tilt_compiler::schedule::schedule;
use tilt_compiler::verify::verify_tilt;
use tilt_compiler::{
    CompileOutput, CompileReport, DeviceSpec, InitialMapping, RouterKind, SchedulerKind, TiltOp,
};
use tilt_engine::{Backend, Engine, RunReport, SimMethod, VerifyLevel};
use tilt_qccd::{compile_qccd, estimate_qccd_success, QccdParams, QccdSpec};
use tilt_scale::{compile_scaled, estimate_scaled, verify_scaled, ScaleSpec};
use tilt_sim::{estimate_success, execution_time_us, ExecTimeModel, GateTimeModel, NoiseModel};

/// A known answer for a memory experiment's measurement record.
#[derive(Clone, Copy)]
pub enum Qec {
    /// `repetition_code(d, rounds)`: every syndrome and data bit is 0.
    Repetition,
    /// `surface_syndrome(d, rounds)`: Z checks read 0, X checks repeat
    /// their first-round value, and the data readout satisfies every
    /// Z check.
    Surface { d: usize, rounds: usize },
}

impl Qec {
    pub fn holds(self, bits: &str) -> bool {
        let bits = bits.as_bytes();
        match self {
            Qec::Repetition => !bits.is_empty() && bits.iter().all(|&b| b == b'0'),
            Qec::Surface { d, rounds } => {
                let checks = (d - 1) * (d - 1);
                if bits.len() != rounds * checks + d * d {
                    return false;
                }
                let data = &bits[rounds * checks..];
                let bit = |b: u8| usize::from(b == b'1');
                (0..d - 1).all(|r| {
                    (0..d - 1).all(|c| {
                        let k = r * (d - 1) + c;
                        if (r + c) % 2 == 0 {
                            let corners = [
                                r * d + c,
                                r * d + c + 1,
                                (r + 1) * d + c,
                                (r + 1) * d + c + 1,
                            ];
                            (0..rounds).all(|t| bits[t * checks + k] == b'0')
                                && corners.iter().map(|&q| bit(data[q])).sum::<usize>() % 2 == 0
                        } else {
                            (0..rounds).all(|t| bits[t * checks + k] == bits[k])
                        }
                    })
                })
            }
        }
    }
}

/// The machine an item compiles for.
#[derive(Clone, Copy)]
pub enum Target {
    Tilt(DeviceSpec),
    Qccd(QccdSpec),
    Scaled(ScaleSpec),
}

/// One circuit on one machine, as QASM text plus its session.
pub struct Item {
    /// Row label: circuit and machine, e.g. `QFT/tilt16`.
    pub row: String,
    pub qasm: String,
    pub target: Target,
    /// Memory experiments also run the stabilizer simulator and carry
    /// their known answer.
    pub qec: Option<Qec>,
    /// Strict static verification of every compiled artifact.
    pub verify: bool,
    pub engine: Engine,
}

impl Item {
    pub fn new(row: String, qasm: String, target: Target, qec: Option<Qec>, verify: bool) -> Item {
        let backend = match target {
            Target::Tilt(spec) => Backend::Tilt(spec),
            Target::Qccd(spec) => Backend::Qccd(spec),
            Target::Scaled(spec) => Backend::Scaled(spec),
        };
        let mut builder = Engine::builder().backend(backend);
        if qec.is_some() {
            builder = builder.simulate(SimMethod::Stabilizer);
        }
        if verify {
            builder = builder.verify(VerifyLevel::Strict);
        }
        let engine = builder.build().expect("benchmark sessions are valid");
        Item {
            row,
            qasm,
            target,
            qec,
            verify,
            engine,
        }
    }

    /// Whether a report from this item's session is correct: a clean
    /// verifier pass and, for memory experiments, the known answer.
    pub fn report_ok(&self, report: &RunReport) -> bool {
        let clean = report.diagnostics.is_empty();
        let answer = match (self.qec, &report.sim) {
            (Some(qec), Some(sim)) => qec.holds(&sim.bitstring),
            (Some(_), None) => false,
            (None, _) => true,
        };
        clean && answer
    }
}

/// What the traced split produced, for comparison with `Engine::run`.
pub struct Traced {
    pub ln_success: f64,
    pub exec_time_us: f64,
    pub tilt_ops: Option<Vec<TiltOp>>,
    pub diagnostics: usize,
    pub qec_ok: bool,
}

impl Traced {
    /// Whether the traced split did exactly the work `Engine::run` did:
    /// the same TILT program op for op and the same estimates.
    pub fn matches(&self, report: &RunReport) -> bool {
        let ops_equal = match (&self.tilt_ops, report.tilt_program()) {
            (Some(ops), Some(program)) => ops.as_slice() == program.ops(),
            (None, None) => true,
            _ => false,
        };
        ops_equal
            && self.ln_success.to_bits() == report.ln_success.to_bits()
            && self.exec_time_us.to_bits() == report.exec_time_us.to_bits()
    }
}

/// `Engine::run` on `circuit`, split into the layers' public steps with
/// a span around each call; counters are recorded at the same places.
pub fn traced_run(t: &mut Trace, item: &Item, circuit: &Circuit) -> Traced {
    let noise = NoiseModel::default();
    let times = GateTimeModel::default();
    t.span("engine.run", |t| {
        let mut traced = match item.target {
            Target::Tilt(spec) => traced_tilt(t, item.verify, spec, circuit, &noise, &times),
            Target::Qccd(spec) => {
                let native = t.span("decompose", |_| decompose(circuit));
                t.count("decompose.native_gates", native.len() as f64);
                let program = t
                    .span("qccd.compile", |_| compile_qccd(&native, &spec))
                    .expect("benchmark circuits fit the QCCD array");
                let report = t.span("estimate", |_| {
                    estimate_qccd_success(&program, &noise, &times, &QccdParams::default())
                });
                t.count("qccd.transports", report.transports as f64);
                let diagnostics = if item.verify {
                    t.span("verify", |_| tilt_qccd::verify::verify_qccd(&program).len())
                } else {
                    0
                };
                Traced {
                    ln_success: report.ln_success,
                    exec_time_us: report.exec_time_us,
                    tilt_ops: None,
                    diagnostics,
                    qec_ok: true,
                }
            }
            Target::Scaled(spec) => {
                let program = t
                    .span("scale.compile", |_| compile_scaled(circuit, &spec))
                    .expect("benchmark circuits fit the ELU array");
                t.count("scale.epr_pairs", program.epr_pairs as f64);
                let report = t.span("estimate", |_| estimate_scaled(&program, &noise, &times));
                let diagnostics = if item.verify {
                    t.span("verify", |_| verify_scaled(&program).len())
                } else {
                    0
                };
                Traced {
                    ln_success: report.ln_success,
                    exec_time_us: report.exec_time_us,
                    tilt_ops: None,
                    diagnostics,
                    qec_ok: true,
                }
            }
        };
        if let Some(qec) = item.qec {
            // The engine's stabilizer method runs with its default seed, 0.
            let run = t
                .span("stabilizer", |_| tilt_stabilizer::run(circuit, 0))
                .expect("memory experiments are Clifford");
            t.count("stabilizer.measurements", run.outcomes.len() as f64);
            traced.qec_ok = qec.holds(&run.bitstring());
        }
        t.count("verify.diagnostics", traced.diagnostics as f64);
        traced
    })
}

fn traced_tilt(
    t: &mut Trace,
    verify: bool,
    spec: DeviceSpec,
    circuit: &Circuit,
    noise: &NoiseModel,
    times: &GateTimeModel,
) -> Traced {
    // The engine's defaults: LinQ routing, greedy scheduling, identity
    // placement.
    let router = RouterKind::default();
    let native = t.span("decompose", |_| decompose(circuit));
    t.count("decompose.native_gates", native.len() as f64);
    let routed = t
        .span("route", |_| {
            let initial = InitialMapping::default().build(&native, spec.n_ions());
            router.route(&native, spec, &initial)
        })
        .expect("benchmark circuits route");
    t.count("route.swaps", routed.swap_count as f64);
    t.count("route.opposing_swaps", routed.opposing_swap_count as f64);
    let lowered = t.span("decompose", |_| decompose(&routed.circuit));
    let program = t.span("schedule", |_| {
        schedule(&lowered, spec, SchedulerKind::default())
    });
    t.count("schedule.moves", program.move_count() as f64);
    t.count(
        "schedule.move_distance",
        program.move_distance_ions() as f64,
    );
    t.count("schedule.ops", program.ops().len() as f64);
    let (success, exec_time_us) = t.span("estimate", |_| {
        (
            estimate_success(&program, noise, times),
            execution_time_us(&program, times, &ExecTimeModel::default()),
        )
    });
    let mut diagnostics = 0;
    let tilt_ops = if verify {
        let report = CompileReport {
            swap_count: routed.swap_count,
            opposing_swap_count: routed.opposing_swap_count,
            opposing_ratio: routed.opposing_ratio(),
            move_count: program.move_count(),
            move_distance_ions: program.move_distance_ions(),
            native_gate_count: program.gate_count(),
            native_two_qubit_count: program.two_qubit_gate_count(),
            t_decompose: std::time::Duration::ZERO,
            t_swap: std::time::Duration::ZERO,
            t_move: std::time::Duration::ZERO,
        };
        let output = CompileOutput {
            program,
            routed,
            report,
        };
        diagnostics = t.span("verify", |_| {
            verify_tilt(&output, router.max_swap_span(spec)).len()
        });
        output.program.ops().to_vec()
    } else {
        program.ops().to_vec()
    };
    Traced {
        ln_success: success.ln_success,
        exec_time_us,
        tilt_ops: Some(tilt_ops),
        diagnostics,
        qec_ok: true,
    }
}
