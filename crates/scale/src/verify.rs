//! Static verification of ELU-array compilations.
//!
//! The scaled rule pack of the program-invariant verifier (see
//! `tilt_compiler::verify` for the rule engine and diagnostic format).
//! The `scaled/measured-unreset` rule generalizes the PR 4 regression
//! fix — a comm-slot ion that was measured for one teleportation must
//! be reset before the next remote gate replays the template onto it —
//! from a one-off test into an invariant every compilation is checked
//! against.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `scaled/measured-unreset` | no gate acts on an ion that was measured and not yet reset |
//! | `scaled/comm-slot-budget` | every operand fits the ELU tape (data ions below the comm block, comm traffic inside the [`COMM_SLOTS`](crate::COMM_SLOTS) block) and comm-ion measurements account for exactly two per recorded EPR pair |
//! | `tilt/*` | each ELU's LinQ output passes the full TILT tape rule pack |

use crate::program::ScaledProgram;
use crate::spec::COMM_SLOTS;
use tilt_circuit::Gate;
use tilt_compiler::verify::{verify_tilt, Diagnostic};

/// Runs the scaled rule pack (plus the TILT pack per ELU) over one
/// compiled ELU array.
pub fn verify_scaled(program: &ScaledProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let capacity = program.spec.data_capacity();
    let ions_per_elu = capacity + COMM_SLOTS;
    let mut comm_measures = 0usize;

    for (e, out) in program.elu_outputs.iter().enumerate() {
        // Every scheduled operand must fit the ELU tape.
        for (i, (g, _)) in out.program.gates().enumerate() {
            for q in g.operands().iter() {
                if q.index() >= ions_per_elu {
                    diags.push(Diagnostic::error(
                        "scaled/comm-slot-budget",
                        i,
                        format!(
                            "elu {e}: {g} touches position {}, past the {capacity} data + \
                             {COMM_SLOTS} comm ions",
                            q.index()
                        ),
                    ));
                }
            }
        }

        // The PR 4 bug class: gate on a measured, unreset ion. The walk
        // runs over the *routed* circuit — the scheduled stream
        // decomposes swaps into native gates, which hides where the
        // collapsed state travels.
        let mut measured = vec![false; ions_per_elu];
        for (i, g) in out.routed.circuit.iter().enumerate() {
            match g {
                Gate::Measure(q) if q.index() < ions_per_elu => {
                    measured[q.index()] = true;
                }
                Gate::Reset(q) if q.index() < ions_per_elu => {
                    measured[q.index()] = false;
                }
                // A SWAP is unitary even on a collapsed ion: it relocates
                // the dirty state rather than computing on it, so the
                // taint travels with it.
                Gate::Swap(a, b) if a.index() < ions_per_elu && b.index() < ions_per_elu => {
                    measured.swap(a.index(), b.index());
                }
                Gate::Barrier => {}
                g => {
                    for q in g.operands().iter() {
                        if q.index() < ions_per_elu && measured[q.index()] {
                            diags.push(Diagnostic::error(
                                "scaled/measured-unreset",
                                i,
                                format!(
                                    "elu {e}: {g} acts on position {} after it was measured \
                                     and before any reset",
                                    q.index()
                                ),
                            ));
                        }
                    }
                }
            }
        }

        // Comm-ion measurements are counted in *logical* coordinates:
        // routing may swap a comm ion away from its home position, so
        // the physical measure target says nothing. Replay the routed
        // circuit's mapping instead.
        let mut m = out.routed.initial_mapping.clone();
        for g in &out.routed.circuit {
            match g {
                Gate::Swap(a, b) if a.index() < m.len() && b.index() < m.len() => {
                    m.swap_positions(a.index(), b.index());
                }
                Gate::Measure(q)
                    if q.index() < m.len() && m.logical_at(q.index()).index() >= capacity =>
                {
                    comm_measures += 1;
                }
                _ => {}
            }
        }

        // Each ELU is an ordinary TILT compilation; its artifacts must
        // pass the tape rules against the spec's own router cap.
        let cap = program.spec.router.max_swap_span(*out.program.spec());
        for mut d in verify_tilt(out, cap) {
            d.message = format!("elu {e}: {}", d.message);
            diags.push(d);
        }
    }

    // Gate teleportation measures one comm ion in each endpoint ELU, so
    // the comm-ion measurement count pins down the EPR ledger.
    if comm_measures != 2 * program.epr_pairs {
        diags.push(Diagnostic::error(
            "scaled/comm-slot-budget",
            0,
            format!(
                "{} comm-ion measurements across the array, but {} EPR pairs were recorded \
                 (expected {})",
                comm_measures,
                program.epr_pairs,
                2 * program.epr_pairs
            ),
        ));
    }
    diags
}

/// Incremental evaluation of the window-applicable half of
/// `scaled/comm-slot-budget` over a sharded streaming compile's
/// per-ELU op increments.
///
/// The operand-fits-the-tape predicate is per-op, so it can run on
/// each increment as a shard delivers it. The rule's other half (the
/// EPR ledger balanced against comm-ion measurements) and the
/// `scaled/measured-unreset` replay both need whole-array artifacts
/// and stay in [`verify_scaled`].
///
/// Diagnostics carry the same indices the monolithic walk would
/// assign: the per-ELU *gate* index (moves are not counted), tracked
/// globally across pushes for each ELU.
#[derive(Debug)]
pub struct StreamScaledVerifier {
    capacity: usize,
    next_gate_index: Vec<usize>,
    diags: Vec<Diagnostic>,
}

impl StreamScaledVerifier {
    /// A verifier for a streaming compile over `n_elus` shards on a
    /// spec with `capacity` data ions per ELU.
    pub fn new(capacity: usize, n_elus: usize) -> StreamScaledVerifier {
        StreamScaledVerifier {
            capacity,
            next_gate_index: vec![0; n_elus],
            diags: Vec::new(),
        }
    }

    /// Checks one ELU's op increment; that ELU's gate indices continue
    /// from its prior pushes.
    ///
    /// # Panics
    ///
    /// Panics if `elu` is outside the shard count given to
    /// [`StreamScaledVerifier::new`].
    pub fn push(&mut self, elu: usize, ops: &[tilt_compiler::TiltOp]) {
        let ions_per_elu = self.capacity + COMM_SLOTS;
        let capacity = self.capacity;
        for op in ops {
            let tilt_compiler::TiltOp::Gate { gate: g, .. } = op else {
                continue;
            };
            let i = self.next_gate_index[elu];
            self.next_gate_index[elu] += 1;
            for q in g.operands().iter() {
                if q.index() >= ions_per_elu {
                    self.diags.push(Diagnostic::error(
                        "scaled/comm-slot-budget",
                        i,
                        format!(
                            "elu {elu}: {g} touches position {}, past the {capacity} data + \
                             {COMM_SLOTS} comm ions",
                            q.index()
                        ),
                    ));
                }
            }
        }
    }

    /// Total gates checked so far across every ELU.
    pub fn gates_seen(&self) -> usize {
        self.next_gate_index.iter().sum()
    }

    /// Findings accumulated so far (borrowed;
    /// [`StreamScaledVerifier::finish`] consumes).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Consumes the verifier, returning every finding.
    pub fn finish(self) -> Vec<Diagnostic> {
        self.diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::compile_scaled;
    use crate::spec::ScaleSpec;
    use tilt_circuit::{Circuit, Qubit};
    use tilt_compiler::{TiltOp, TiltProgram};

    fn remote_heavy() -> ScaledProgram {
        let mut c = Circuit::new(16);
        for _ in 0..4 {
            c.cnot(Qubit(7), Qubit(8));
        }
        compile_scaled(&c, &ScaleSpec::new(10, 4).unwrap()).unwrap()
    }

    #[test]
    fn clean_compile_verifies_clean() {
        assert_eq!(verify_scaled(&remote_heavy()), Vec::new());
    }

    #[test]
    fn dropped_reset_is_diagnosed() {
        let mut p = remote_heavy();
        // Strip every reset from ELU 0's artifacts: the slot-0 comm ion
        // is then reused while still measured — the exact PR 4 bug
        // shape.
        let out = &mut p.elu_outputs[0];
        let spec = *out.program.spec();
        let ops: Vec<TiltOp> = out
            .program
            .ops()
            .iter()
            .filter(|op| {
                !matches!(
                    op,
                    TiltOp::Gate {
                        gate: Gate::Reset(_),
                        ..
                    }
                )
            })
            .copied()
            .collect();
        out.program = TiltProgram::new_unchecked(spec, ops);
        let width = out.routed.circuit.n_qubits();
        let gates: Vec<Gate> = out
            .routed
            .circuit
            .iter()
            .filter(|g| !matches!(g, Gate::Reset(_)))
            .copied()
            .collect();
        out.routed.circuit = Circuit::from_gates(width, gates);
        let diags = verify_scaled(&p);
        assert!(
            diags.iter().any(|d| d.rule == "scaled/measured-unreset"),
            "{diags:?}"
        );
    }

    #[test]
    fn epr_ledger_mismatch_is_diagnosed() {
        let mut p = remote_heavy();
        p.epr_pairs += 1;
        let diags = verify_scaled(&p);
        assert!(
            diags.iter().any(|d| d.rule == "scaled/comm-slot-budget"),
            "{diags:?}"
        );
    }

    #[test]
    fn out_of_tape_operand_is_diagnosed() {
        let mut p = remote_heavy();
        let out = &mut p.elu_outputs[0];
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        ops.push(TiltOp::Gate {
            gate: Gate::Rx(Qubit(spec.n_ions()), 0.5),
            head_pos: spec.n_ions() - spec.head_size(),
        });
        out.program = TiltProgram::new_unchecked(spec, ops);
        let diags = verify_scaled(&p);
        assert!(
            diags.iter().any(|d| d.rule == "scaled/comm-slot-budget"),
            "{diags:?}"
        );
    }

    #[test]
    fn stream_verifier_matches_the_monolithic_walk_at_every_window_split() {
        // Corrupt one ELU's op stream, then push each ELU's ops in
        // window partitions: findings must match the monolithic per-op
        // walk exactly, including the per-ELU *gate* indices (moves are
        // not counted), at every split.
        let mut p = remote_heavy();
        let out = &mut p.elu_outputs[1];
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        ops.push(TiltOp::Gate {
            gate: Gate::Rx(Qubit(spec.n_ions()), 0.5),
            head_pos: 0,
        });
        out.program = TiltProgram::new_unchecked(spec, ops);
        let capacity = p.spec.data_capacity();
        let whole: Vec<Diagnostic> = verify_scaled(&p)
            .into_iter()
            .filter(|d| d.rule == "scaled/comm-slot-budget" && d.message.contains("elu 1"))
            .collect();
        assert!(!whole.is_empty());
        for window in [1, 3, 16, usize::MAX] {
            let mut sv = StreamScaledVerifier::new(capacity, p.elu_outputs.len());
            for (e, out) in p.elu_outputs.iter().enumerate() {
                for chunk in out
                    .program
                    .ops()
                    .chunks(window.min(out.program.ops().len()))
                {
                    sv.push(e, chunk);
                }
            }
            let total: usize = p
                .elu_outputs
                .iter()
                .map(|o| o.program.gates().count())
                .sum();
            assert_eq!(sv.gates_seen(), total);
            assert_eq!(sv.finish(), whole, "window {window}");
        }
    }
}
