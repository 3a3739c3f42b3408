//! Sharded streaming compilation: one bounded-memory LinQ session per
//! ELU, fed from a single pass over the input gate stream.
//!
//! [`compile_scaled`](crate::compile_scaled) materializes the whole
//! native circuit, the per-ELU gate streams, and every ELU's compiled
//! program before any estimation runs — O(circuit) memory three times
//! over. [`ScaledStreamingCompiler`] replays the exact same
//! decompose→split→teleport-template fold one input gate at a time,
//! dispatching each ELU's share into that ELU's own
//! [`StreamingCompiler`] and folding the emitted ops straight into the
//! streaming estimators. Peak memory is O(window · ELUs) plus the
//! per-ELU scheduler horizons, independent of circuit length, and the
//! per-ELU op streams plus the final [`ScaleReport`] are bit-identical
//! to the monolithic path.
//!
//! Shard compiles fan out across the work-stealing pool: gates buffer
//! into per-ELU inboxes during the split, and each macro-window the pool
//! advances every shard's pipeline concurrently. Emitted increments are
//! drained to the sink **in ELU order** after each fan-out, so the
//! delivery order is deterministic regardless of pool scheduling.

use crate::partition::Partition;
use crate::spec::{ScaleError, ScaleSpec, COMM_SLOTS};
use crate::ScaleReport;
use rayon::prelude::*;
use tilt_circuit::{validate_gate, Circuit, Gate, Qubit};
use tilt_compiler::decompose::decompose_gate;
use tilt_compiler::pipeline::streaming::StreamSummary;
use tilt_compiler::{Compiler, StreamingCompiler, TiltOp};
use tilt_sim::streaming::{ExecTimeAccumulator, SuccessAccumulator};
use tilt_sim::{ExecTimeModel, GateTimeModel, NoiseModel};

/// Receives each ELU's scheduled-op increments as its windows complete.
pub trait ScaledSink {
    /// Delivers one non-empty increment of ELU `elu`'s op stream.
    /// Concatenating every increment for a given ELU reproduces that
    /// ELU's monolithic program exactly.
    fn emit(&mut self, elu: usize, ops: &[TiltOp]);
}

impl<F: FnMut(usize, &[TiltOp])> ScaledSink for F {
    fn emit(&mut self, elu: usize, ops: &[TiltOp]) {
        self(elu, ops);
    }
}

/// What a finished scaled streaming session produced.
#[derive(Clone, Debug)]
pub struct ScaledStreamSummary {
    /// The aggregate estimate — bit-identical to
    /// [`estimate_scaled`](crate::estimate_scaled) over the monolithic
    /// [`ScaledProgram`](crate::ScaledProgram).
    pub report: ScaleReport,
    /// Per-ELU compile summaries, in ELU order.
    pub elu_summaries: Vec<StreamSummary>,
    /// EPR pairs consumed (one per remote two-qubit gate).
    pub epr_pairs: usize,
    /// Non-empty increments delivered to the sink, over all ELUs.
    pub increments: usize,
    /// Program gates consumed from the input stream.
    pub input_gate_count: usize,
}

/// One ELU's slice of the streaming session.
struct Shard {
    /// `None` only transiently inside [`ScaledStreamingCompiler::finish`],
    /// where the pool consumes it.
    compiler: Option<StreamingCompiler>,
    /// Gates split to this ELU since the last fan-out.
    inbox: Vec<Gate>,
    /// Ops emitted by this shard during the current fan-out, awaiting
    /// the ordered drain.
    outbox: Vec<TiltOp>,
    success: SuccessAccumulator,
    /// `None` after [`ScaledStreamingCompiler::finish`] consumes it.
    exec: Option<ExecTimeAccumulator>,
    exec_us: Option<f64>,
    summary: Option<StreamSummary>,
    err: Option<tilt_compiler::CompileError>,
}

impl Shard {
    /// Pushes every inboxed gate through this shard's pipeline, folding
    /// emitted ops into the estimators and the outbox. Runs on a pool
    /// worker.
    fn feed(&mut self) {
        if self.err.is_some() {
            self.inbox.clear();
            return;
        }
        let mut inbox = std::mem::take(&mut self.inbox);
        let compiler = self.compiler.as_mut().expect("shard still live");
        let success = &mut self.success;
        let exec = self.exec.as_mut().expect("shard still live");
        let outbox = &mut self.outbox;
        let mut sink = |ops: &[TiltOp]| {
            for op in ops {
                success.push(op);
                exec.push(op);
            }
            outbox.extend_from_slice(ops);
        };
        for g in inbox.drain(..) {
            if let Err(e) = compiler.push(g, &mut sink) {
                self.err = Some(e);
                break;
            }
        }
        self.inbox = inbox;
    }

    /// [`Shard::feed`] plus the end-of-stream flush; consumes the
    /// pipeline. Runs on a pool worker.
    fn finish(&mut self) {
        self.feed();
        if self.err.is_some() {
            return;
        }
        let compiler = self.compiler.take().expect("finish runs once");
        let success = &mut self.success;
        let mut exec = self.exec.take().expect("finish runs once");
        let outbox = &mut self.outbox;
        let summary = compiler.finish(&mut |ops: &[TiltOp]| {
            for op in ops {
                success.push(op);
                exec.push(op);
            }
            outbox.extend_from_slice(ops);
        });
        self.summary = Some(summary);
        self.exec_us = Some(exec.finish());
    }
}

/// A bounded-memory replacement for
/// [`compile_scaled`](crate::compile_scaled) +
/// [`estimate_scaled`](crate::estimate_scaled): push program gates one
/// at a time, receive per-ELU op increments through a [`ScaledSink`],
/// and collect the aggregate [`ScaleReport`] at the end.
pub struct ScaledStreamingCompiler {
    spec: ScaleSpec,
    partition: Partition,
    n_qubits: usize,
    shards: Vec<Shard>,
    epr_pairs: usize,
    /// Per-ELU usage of each comm slot (see the monolithic splitter: a
    /// recycled slot holds a measured ion and must be reset first).
    comm_used: Vec<[bool; COMM_SLOTS]>,
    /// Scratch for the per-gate native decomposition.
    native: Circuit,
    /// Gates buffered across all inboxes since the last fan-out.
    buffered: usize,
    /// Total buffered gates that trigger a fan-out.
    window: usize,
    increments: usize,
    input_gate_count: usize,
}

impl ScaledStreamingCompiler {
    /// Starts a streaming session for an `n_qubits`-wide input stream on
    /// the ELU array `spec`, fanning a shard advance every `window`
    /// split gates (`usize::MAX` defers all compilation to
    /// [`ScaledStreamingCompiler::finish`]). The per-ELU success/time
    /// estimates fold under `noise` and `times`, exactly as
    /// [`estimate_scaled`](crate::estimate_scaled) would apply them.
    ///
    /// # Errors
    ///
    /// Rejects invalid per-ELU policies, and per-ELU configurations the
    /// streaming pipeline does not support (the `InteractionChain`
    /// initial mapping, which needs the whole circuit).
    pub fn new(
        spec: &ScaleSpec,
        n_qubits: usize,
        window: usize,
        noise: &NoiseModel,
        times: &GateTimeModel,
    ) -> Result<Self, ScaleError> {
        let device = spec.validate_policies()?;
        let partition = Partition::new(spec, n_qubits);
        let n_elus = partition.n_elus();
        let mut compiler = Compiler::new(device);
        compiler
            .router(spec.router)
            .scheduler(spec.scheduler)
            .initial_mapping(spec.initial_mapping);
        let mut shards = Vec::with_capacity(n_elus);
        for e in 0..n_elus {
            let streaming = StreamingCompiler::new(&compiler, spec.ions_per_elu(), window)
                .map_err(|err| ScaleError::EluCompile {
                    elu: e,
                    reason: err.to_string(),
                })?;
            shards.push(Shard {
                compiler: Some(streaming),
                inbox: Vec::new(),
                outbox: Vec::new(),
                success: SuccessAccumulator::new(spec.ions_per_elu(), noise, times),
                // `estimate_scaled` hardcodes the default shuttle model
                // for every ELU; so does the streaming fold.
                exec: Some(ExecTimeAccumulator::new(
                    spec.ions_per_elu(),
                    times,
                    &ExecTimeModel::default(),
                )),
                exec_us: None,
                summary: None,
                err: None,
            });
        }
        Ok(ScaledStreamingCompiler {
            spec: *spec,
            partition,
            n_qubits,
            shards,
            epr_pairs: 0,
            comm_used: vec![[false; COMM_SLOTS]; n_elus],
            native: Circuit::new(n_qubits),
            buffered: 0,
            window: window.max(1),
            increments: 0,
            input_gate_count: 0,
        })
    }

    /// Number of ELUs this session compiles onto.
    pub fn n_elus(&self) -> usize {
        self.shards.len()
    }

    /// Ingests the next program gate, fanning a shard advance when the
    /// macro-window fills.
    ///
    /// # Errors
    ///
    /// Invalid input gates (out-of-range operands, non-finite angles,
    /// reported with their global stream index) and per-ELU compile
    /// failures.
    pub fn push(&mut self, g: Gate, sink: &mut dyn ScaledSink) -> Result<(), ScaleError> {
        validate_gate(&g, self.input_gate_count, self.n_qubits).map_err(|e| {
            ScaleError::InvalidSpec {
                reason: format!("invalid input gate: {e}"),
            }
        })?;
        self.input_gate_count += 1;
        // The monolithic splitter's fold, verbatim, over this gate's
        // native expansion. The scratch circuit is taken out of `self`
        // for the duration so `split` can borrow the shards mutably.
        let mut native = std::mem::replace(&mut self.native, Circuit::new(0));
        native.reset(self.n_qubits);
        decompose_gate(&mut native, &g);
        for gate in native.gates() {
            self.split(gate);
        }
        self.native = native;
        if self.buffered >= self.window {
            self.fan_out(sink)?;
        }
        Ok(())
    }

    /// Routes one native gate to its shard inbox(es) — the same match as
    /// `compile_scaled`'s splitter.
    fn split(&mut self, gate: &Gate) {
        match gate {
            Gate::Barrier => {
                for s in &mut self.shards {
                    s.inbox.push(Gate::Barrier);
                }
                self.buffered += self.shards.len();
            }
            g if g.is_two_qubit() => {
                let qs = g.operands();
                let (a, b) = (qs[0].index(), qs[1].index());
                let (ea, eb) = (self.partition.elu_of(a), self.partition.elu_of(b));
                let (la, lb) = (
                    Qubit(self.partition.local_of(a)),
                    Qubit(self.partition.local_of(b)),
                );
                if ea == eb {
                    self.shards[ea]
                        .inbox
                        .push(g.map_qubits(|q| if q.index() == a { la } else { lb }));
                    self.buffered += 1;
                } else {
                    let slot = self.epr_pairs % COMM_SLOTS;
                    let comm = Qubit(self.partition.comm_position(slot));
                    self.epr_pairs += 1;
                    for e in [ea, eb] {
                        if std::mem::replace(&mut self.comm_used[e][slot], true) {
                            self.shards[e].inbox.push(Gate::Reset(comm));
                            self.buffered += 1;
                        }
                    }
                    self.shards[ea].inbox.push(Gate::Cnot(la, comm));
                    self.shards[ea].inbox.push(Gate::Measure(comm));
                    self.shards[eb].inbox.push(g.map_qubits(|q| {
                        if q.index() == a {
                            comm
                        } else {
                            lb
                        }
                    }));
                    self.shards[eb].inbox.push(Gate::Measure(comm));
                    self.buffered += 4;
                }
            }
            g => {
                let q = match g.operands().first() {
                    Some(q) => q.index(),
                    None => return,
                };
                let e = self.partition.elu_of(q);
                let local = Qubit(self.partition.local_of(q));
                self.shards[e].inbox.push(g.map_qubits(|_| local));
                self.buffered += 1;
            }
        }
    }

    /// Advances every shard's pipeline on the pool, then drains emitted
    /// increments to `sink` in ELU order.
    fn fan_out(&mut self, sink: &mut dyn ScaledSink) -> Result<(), ScaleError> {
        self.shards.par_chunks_mut(1).for_each(|chunk| {
            chunk[0].feed();
        });
        self.buffered = 0;
        self.drain(sink)
    }

    /// Ordered outbox drain + first-error check (ELU order, so the
    /// reported error is deterministic regardless of pool scheduling).
    fn drain(&mut self, sink: &mut dyn ScaledSink) -> Result<(), ScaleError> {
        for (e, shard) in self.shards.iter_mut().enumerate() {
            if !shard.outbox.is_empty() {
                sink.emit(e, &shard.outbox);
                self.increments += 1;
                shard.outbox.clear();
            }
            if let Some(err) = &shard.err {
                return Err(ScaleError::EluCompile {
                    elu: e,
                    reason: err.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Flushes every shard to end-of-stream and aggregates the estimate.
    ///
    /// # Errors
    ///
    /// Per-ELU compile failures surfaced by the final flush.
    pub fn finish(mut self, sink: &mut dyn ScaledSink) -> Result<ScaledStreamSummary, ScaleError> {
        self.shards.par_chunks_mut(1).for_each(|chunk| {
            chunk[0].finish();
        });
        self.drain(sink)?;

        // `estimate_scaled`'s aggregation fold, in the same ELU order
        // with the same floating-point operation sequence.
        let mut ln_success = 0.0f64;
        let mut slowest_elu_us = 0.0f64;
        let mut total_moves = 0usize;
        let mut total_swaps = 0usize;
        let mut elu_summaries = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            let summary = shard.summary.take().expect("finish ran on every shard");
            ln_success += shard.success.finish().ln_success;
            slowest_elu_us = slowest_elu_us.max(shard.exec_us.expect("finish ran"));
            total_moves += summary.report.move_count;
            total_swaps += summary.report.swap_count;
            elu_summaries.push(summary);
        }
        ln_success += self.epr_pairs as f64 * self.spec.epr.fidelity.ln();
        let epr_rounds = self.epr_pairs.div_ceil(COMM_SLOTS);
        Ok(ScaledStreamSummary {
            report: ScaleReport {
                ln_success,
                success: ln_success.exp(),
                remote_gates: self.epr_pairs,
                exec_time_us: slowest_elu_us + epr_rounds as f64 * self.spec.epr.generation_us,
                total_moves,
                total_swaps,
            },
            elu_summaries,
            epr_pairs: self.epr_pairs,
            increments: self.increments,
            input_gate_count: self.input_gate_count,
        })
    }
}

/// One-call streaming compile+estimate over a gate iterator.
///
/// # Errors
///
/// Same failures as [`ScaledStreamingCompiler::push`] /
/// [`ScaledStreamingCompiler::finish`].
pub fn run_scaled_stream<I: IntoIterator<Item = Gate>>(
    spec: &ScaleSpec,
    n_qubits: usize,
    gates: I,
    window: usize,
    noise: &NoiseModel,
    times: &GateTimeModel,
    sink: &mut dyn ScaledSink,
) -> Result<ScaledStreamSummary, ScaleError> {
    let mut session = ScaledStreamingCompiler::new(spec, n_qubits, window, noise, times)?;
    for g in gates {
        session.push(g, sink)?;
    }
    session.finish(sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_scaled, estimate_scaled};
    use tilt_benchmarks::qaoa::qaoa_maxcut;

    fn collect_streams(
        spec: &ScaleSpec,
        c: &Circuit,
        window: usize,
    ) -> (Vec<Vec<TiltOp>>, ScaledStreamSummary) {
        let n_elus = spec.elus_for(c.n_qubits());
        let mut streams: Vec<Vec<TiltOp>> = vec![Vec::new(); n_elus];
        let mut sink = |elu: usize, ops: &[TiltOp]| streams[elu].extend_from_slice(ops);
        let summary = run_scaled_stream(
            spec,
            c.n_qubits(),
            c.gates().iter().copied(),
            window,
            &NoiseModel::default(),
            &GateTimeModel::default(),
            &mut sink,
        )
        .unwrap();
        (streams, summary)
    }

    #[test]
    fn sharded_stream_matches_monolithic_scaled_compile() {
        let circuit = qaoa_maxcut(32, 2, 5);
        let spec = ScaleSpec::new(10, 4).unwrap();
        let mono = compile_scaled(&circuit, &spec).unwrap();
        let mono_report = estimate_scaled(&mono, &NoiseModel::default(), &GateTimeModel::default());
        for window in [1usize, 64, 1024, usize::MAX] {
            let (streams, summary) = collect_streams(&spec, &circuit, window);
            assert_eq!(streams.len(), mono.elu_outputs.len());
            for (e, out) in mono.elu_outputs.iter().enumerate() {
                assert_eq!(streams[e], out.program.ops(), "ELU {e} window {window}");
                let (sr, mr) = (&summary.elu_summaries[e].report, &out.report);
                assert_eq!(sr.swap_count, mr.swap_count);
                assert_eq!(sr.move_count, mr.move_count);
                assert_eq!(sr.move_distance_ions, mr.move_distance_ions);
                assert_eq!(sr.native_gate_count, mr.native_gate_count);
            }
            assert_eq!(summary.epr_pairs, mono.epr_pairs);
            assert_eq!(summary.report, mono_report, "window {window}");
            assert_eq!(summary.input_gate_count, circuit.len());
            assert!(summary.increments >= 1);
        }
    }

    #[test]
    fn comm_slot_recycling_matches_monolithic() {
        // Four boundary crossings over 2 comm slots: both slots recycle,
        // so the streamed splitter must emit the same resets.
        let mut c = Circuit::new(16);
        for _ in 0..4 {
            c.cnot(Qubit(7), Qubit(8));
        }
        let spec = ScaleSpec::new(10, 4).unwrap();
        let mono = compile_scaled(&c, &spec).unwrap();
        let (streams, summary) = collect_streams(&spec, &c, 3);
        assert_eq!(summary.epr_pairs, 4);
        for (e, out) in mono.elu_outputs.iter().enumerate() {
            assert_eq!(streams[e], out.program.ops(), "ELU {e}");
        }
    }

    #[test]
    fn invalid_input_gate_is_rejected_with_stream_index() {
        let spec = ScaleSpec::new(10, 4).unwrap();
        let mut session = ScaledStreamingCompiler::new(
            &spec,
            16,
            8,
            &NoiseModel::default(),
            &GateTimeModel::default(),
        )
        .unwrap();
        let mut sink = |_: usize, _: &[TiltOp]| {};
        session.push(Gate::H(Qubit(0)), &mut sink).unwrap();
        let err = session.push(Gate::H(Qubit(40)), &mut sink).err().unwrap();
        assert!(err.to_string().contains("invalid input gate"), "{err}");
    }

    #[test]
    fn local_only_stream_uses_no_epr() {
        let mut c = Circuit::new(8);
        c.cnot(Qubit(0), Qubit(1)).cnot(Qubit(6), Qubit(7));
        let spec = ScaleSpec::new(10, 4).unwrap();
        let (_, summary) = collect_streams(&spec, &c, 4);
        assert_eq!(summary.epr_pairs, 0);
        assert_eq!(summary.elu_summaries.len(), 1);
    }
}
