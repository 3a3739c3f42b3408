//! Streaming estimator accumulators for bounded-memory compilation.
//!
//! [`estimate_success`](crate::estimate_success) and
//! [`execution_time_us`](crate::execution_time_us) are both sequential
//! folds over the scheduled op stream; these accumulators apply the
//! *same* folds one op at a time, so a streaming compile that never
//! materializes its [`TiltProgram`](tilt_compiler::TiltProgram) can still
//! produce **bit-identical** `ln_success` and `exec_time_us` to the
//! monolithic path. Every floating-point operation happens in the same
//! order with the same operands; nothing is re-associated.
//!
//! ```
//! use tilt_circuit::{Circuit, Qubit};
//! use tilt_compiler::{Compiler, DeviceSpec};
//! use tilt_sim::streaming::{ExecTimeAccumulator, SuccessAccumulator};
//! use tilt_sim::{estimate_success, ExecTimeModel, GateTimeModel, NoiseModel};
//!
//! let mut c = Circuit::new(8);
//! c.cnot(Qubit(0), Qubit(7));
//! let out = Compiler::new(DeviceSpec::new(8, 4)?).compile(&c)?;
//! let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
//! let mut acc = SuccessAccumulator::new(8, &noise, &times);
//! let mut exec = ExecTimeAccumulator::new(8, &times, &ExecTimeModel::default());
//! for op in out.program.ops() {
//!     acc.push(op);
//!     exec.push(op);
//! }
//! let mono = estimate_success(&out.program, &noise, &times);
//! assert_eq!(acc.finish().ln_success, mono.ln_success);
//! # Ok::<(), tilt_compiler::CompileError>(())
//! ```

use crate::exec_time::ExecTimeModel;
use crate::gate_time::GateTimeModel;
use crate::noise::NoiseModel;
use crate::success::SuccessReport;
use tilt_circuit::Gate;
use tilt_compiler::TiltOp;

/// The [`estimate_success`](crate::estimate_success) fold, applied one
/// op at a time.
///
/// State is O(1): the chain's accumulated motional quanta, the running
/// log-fidelity, and the op-class counters.
#[derive(Clone, Debug)]
pub struct SuccessAccumulator {
    noise: NoiseModel,
    times: GateTimeModel,
    /// Per-move quanta for this chain length (`k(n)` with the `√n`
    /// scaling), fixed at construction like the monolithic estimator.
    k: f64,
    quanta: f64,
    ln_success: f64,
    two_q: usize,
    one_q: usize,
    meas: usize,
    moves: usize,
}

impl SuccessAccumulator {
    /// Starts an estimate for a chain of `n_ions` ions under `noise` and
    /// `times`.
    pub fn new(n_ions: usize, noise: &NoiseModel, times: &GateTimeModel) -> Self {
        SuccessAccumulator {
            noise: *noise,
            times: *times,
            k: noise.k_for_chain(n_ions),
            quanta: 0.0,
            ln_success: 0.0,
            two_q: 0,
            one_q: 0,
            meas: 0,
            moves: 0,
        }
    }

    /// Folds one scheduled op into the estimate.
    pub fn push(&mut self, op: &TiltOp) {
        match op {
            TiltOp::Move { .. } => {
                self.moves += 1;
                self.quanta += self.k;
            }
            TiltOp::Gate { gate, .. } => {
                let f = match gate {
                    Gate::Measure(_) | Gate::Reset(_) => {
                        self.meas += 1;
                        self.noise.measurement_fidelity()
                    }
                    g if g.is_two_qubit() => {
                        self.two_q += 1;
                        self.noise
                            .two_qubit_fidelity(self.times.gate_us(g), self.quanta)
                    }
                    Gate::Barrier => 1.0,
                    _ => {
                        self.one_q += 1;
                        self.noise.single_qubit_fidelity()
                    }
                };
                self.ln_success += f.ln();
            }
        }
    }

    /// The estimate over everything pushed so far. The accumulator stays
    /// usable; this is a snapshot, not a terminator.
    pub fn finish(&self) -> SuccessReport {
        SuccessReport {
            ln_success: self.ln_success,
            success: self.ln_success.exp(),
            two_qubit_gates: self.two_q,
            single_qubit_gates: self.one_q,
            measurements: self.meas,
            moves: self.moves,
            final_quanta: self.quanta,
        }
    }
}

/// The [`execution_time_us`](crate::execution_time_us) fold, applied one
/// op at a time.
///
/// State is O(chain): the per-qubit layer indices and per-layer maxima
/// of the current head-position segment (a tape move fences layering, so
/// the segment state never outlives two moves).
#[derive(Clone, Debug)]
pub struct ExecTimeAccumulator {
    times: GateTimeModel,
    exec: ExecTimeModel,
    level: Vec<usize>,
    layer_max: Vec<f64>,
    total_us: f64,
    /// Travel distance folded exactly like
    /// [`TiltProgram::move_distance_ions`](tilt_compiler::TiltProgram::move_distance_ions).
    move_distance_ions: usize,
    last_head: Option<usize>,
}

impl ExecTimeAccumulator {
    /// Starts a timing estimate for a chain of `n_ions` ions.
    pub fn new(n_ions: usize, times: &GateTimeModel, exec: &ExecTimeModel) -> Self {
        ExecTimeAccumulator {
            times: *times,
            exec: *exec,
            level: vec![0; n_ions],
            layer_max: Vec::new(),
            total_us: 0.0,
            move_distance_ions: 0,
            last_head: None,
        }
    }

    fn flush_segment(&mut self) {
        self.total_us += self.layer_max.iter().sum::<f64>();
        self.layer_max.clear();
        self.level.iter_mut().for_each(|l| *l = 0);
    }

    /// Folds one scheduled op into the estimate.
    pub fn push(&mut self, op: &TiltOp) {
        match op {
            TiltOp::Move { to } => {
                self.flush_segment();
                if let Some(p) = self.last_head {
                    self.move_distance_ions += p.abs_diff(*to);
                }
                self.last_head = Some(*to);
            }
            TiltOp::Gate { gate, head_pos } => {
                if self.last_head.is_none() {
                    self.last_head = Some(*head_pos);
                }
                if matches!(gate, Gate::Barrier) {
                    return;
                }
                let qs = gate.operands();
                let layer = qs.iter().map(|q| self.level[q.index()]).max().unwrap_or(0);
                for q in qs.iter() {
                    self.level[q.index()] = layer + 1;
                }
                if self.layer_max.len() <= layer {
                    self.layer_max.resize(layer + 1, 0.0);
                }
                let dur = self.times.gate_us(gate);
                if dur > self.layer_max[layer] {
                    self.layer_max[layer] = dur;
                }
            }
        }
    }

    /// Total execution time in µs over everything pushed so far: the
    /// final segment flush plus the Eq. 5 travel term.
    ///
    /// Unlike [`SuccessAccumulator::finish`] this *is* a terminator —
    /// the trailing segment is flushed into the total.
    pub fn finish(mut self) -> f64 {
        self.flush_segment();
        self.total_us
            + self.move_distance_ions as f64 * self.exec.ion_spacing_um
                / self.exec.shuttle_um_per_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{estimate_success, execution_time_us};
    use tilt_circuit::{Circuit, Qubit};
    use tilt_compiler::{Compiler, DeviceSpec, TiltProgram};

    fn workload(n: usize, gates: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..gates {
            let a = Qubit((rng() as usize) % n);
            let b = Qubit((rng() as usize) % n);
            match rng() % 10 {
                0 => {
                    c.barrier();
                }
                1 => {
                    c.measure(a);
                }
                2 | 3 => {
                    c.h(a);
                }
                _ if a != b => {
                    c.cnot(a, b);
                }
                _ => {
                    c.t(a);
                }
            }
        }
        c
    }

    fn compile(c: &Circuit, n: usize, head: usize) -> TiltProgram {
        Compiler::new(DeviceSpec::new(n, head).unwrap())
            .compile(c)
            .unwrap()
            .program
    }

    #[test]
    fn success_fold_is_bit_identical_to_the_monolithic_estimator() {
        let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
        for (n, head, gates, seed) in [(8, 4, 60, 3), (16, 4, 400, 11), (24, 8, 900, 29)] {
            let p = compile(&workload(n, gates, seed), n, head);
            let mono = estimate_success(&p, &noise, &times);
            let mut acc = SuccessAccumulator::new(n, &noise, &times);
            for op in p.ops() {
                acc.push(op);
            }
            let s = acc.finish();
            assert_eq!(s.ln_success, mono.ln_success);
            assert_eq!(s.success, mono.success);
            assert_eq!(s.final_quanta, mono.final_quanta);
            assert_eq!(s.two_qubit_gates, mono.two_qubit_gates);
            assert_eq!(s.single_qubit_gates, mono.single_qubit_gates);
            assert_eq!(s.measurements, mono.measurements);
            assert_eq!(s.moves, mono.moves);
        }
    }

    #[test]
    fn exec_time_fold_is_bit_identical_to_the_monolithic_estimator() {
        let times = GateTimeModel::default();
        let exec = ExecTimeModel::default();
        for (n, head, gates, seed) in [(8, 4, 60, 5), (16, 4, 400, 17), (24, 8, 900, 31)] {
            let p = compile(&workload(n, gates, seed), n, head);
            let mono = execution_time_us(&p, &times, &exec);
            let mut acc = ExecTimeAccumulator::new(n, &times, &exec);
            for op in p.ops() {
                acc.push(op);
            }
            assert_eq!(acc.finish(), mono);
        }
    }

    #[test]
    fn success_snapshot_does_not_consume_the_accumulator() {
        let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
        let p = compile(&workload(8, 40, 7), 8, 4);
        let mut acc = SuccessAccumulator::new(8, &noise, &times);
        for op in p.ops() {
            acc.push(op);
            let _ = acc.finish(); // mid-stream snapshots are fine
        }
        assert_eq!(
            acc.finish().ln_success,
            estimate_success(&p, &noise, &times).ln_success
        );
    }

    #[test]
    fn empty_stream_is_certain_success_in_zero_time() {
        let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
        let acc = SuccessAccumulator::new(4, &noise, &times);
        assert_eq!(acc.finish().success, 1.0);
        let exec = ExecTimeAccumulator::new(4, &times, &ExecTimeModel::default());
        assert_eq!(exec.finish(), 0.0);
    }
}
