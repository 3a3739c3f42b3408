//! Static verification of compiled programs.
//!
//! A compiled program that silently violates a machine invariant is a
//! correctness bug the success estimator will happily mis-score: a gate
//! outside the head span would need a tape move the timing model never
//! charged, an over-long swap could not execute at any head position,
//! and a scrambled schedule breaks the circuit's dependency order. The
//! pipeline debug-asserts these invariants while building programs;
//! this module re-checks them *from the finished artifact* in release
//! builds, so every emitted program can be validated independently of
//! the pass that produced it — the safety net the streaming/sharded
//! compilation plans need before compile windows stop being
//! whole-program.
//!
//! The rule engine is deliberately boring: each rule walks a compiled
//! artifact and appends [`Diagnostic`]s. Backend-specific rule packs
//! live next to their program types — [`verify_tilt`] here, the QCCD
//! pack in `tilt-qccd`, the ELU-array pack in `tilt-scale` — and the
//! session layer (`tilt-engine`) dispatches on the run's backend.
//!
//! # TILT tape rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `tilt/head-span` | every gate's operands sit under the recorded head position; every move targets a valid head position |
//! | `tilt/swap-chain` | every inserted SWAP spans `1..=max_swap_len` positions |
//! | `tilt/mapping-bijection` | replaying the routed swaps over the initial mapping lands exactly on the recorded final mapping |
//! | `tilt/schedule-order` | the scheduled op stream preserves each ion's gate order from the routed circuit, and no gate is dropped or invented |
//!
//! # Example
//!
//! ```
//! use tilt_circuit::{Circuit, Qubit};
//! use tilt_compiler::{verify, Compiler, DeviceSpec};
//!
//! let mut c = Circuit::new(8);
//! c.h(Qubit(0)).cnot(Qubit(0), Qubit(7));
//! let spec = DeviceSpec::new(8, 4)?;
//! let out = Compiler::new(spec).compile(&c)?;
//! let cap = spec.head_size() - 1;
//! assert!(verify::verify_tilt(&out, cap).is_empty());
//! # Ok::<(), tilt_compiler::CompileError>(())
//! ```

use crate::decompose::decompose;
use crate::pipeline::CompileOutput;
use crate::program::TiltOp;
use tilt_circuit::Gate;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but executable; reported, never fatal.
    Warning,
    /// A machine-invariant violation: the program cannot execute as
    /// recorded, so any estimate derived from it is unsound.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One verifier finding, anchored to the offending operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier, `backend/rule-name` (e.g.
    /// `tilt/head-span`).
    pub rule: &'static str,
    /// How bad the finding is.
    pub severity: Severity,
    /// Index of the offending operation in the stream the rule walks
    /// (op stream for program rules, routed circuit for routing rules;
    /// the message says which).
    pub op_index: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// An [`Severity::Error`] finding.
    pub fn error(rule: &'static str, op_index: usize, message: String) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            op_index,
            message,
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] op {}: {}",
            self.severity, self.rule, self.op_index, self.message
        )
    }
}

/// Runs the TILT tape rule pack over one compilation.
///
/// `max_swap_len` is the router's effective swap-span cap
/// ([`crate::route::RouterKind::max_swap_span`] resolves it for the
/// configured policy).
pub fn verify_tilt(out: &CompileOutput, max_swap_len: usize) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    head_span(out, &mut diags);
    swap_chain(out, max_swap_len, &mut diags);
    mapping_bijection(out, &mut diags);
    schedule_order(out, &mut diags);
    diags
}

/// `tilt/head-span`: gates covered, moves in range.
fn head_span(out: &CompileOutput, diags: &mut Vec<Diagnostic>) {
    let spec = *out.program.spec();
    for (i, op) in out.program.ops().iter().enumerate() {
        head_span_op(&spec, i, op, diags);
    }
}

/// The per-op body of `tilt/head-span`, shared by the whole-program
/// walk and the incremental [`StreamVerifier`].
fn head_span_op(
    spec: &crate::spec::DeviceSpec,
    i: usize,
    op: &TiltOp,
    diags: &mut Vec<Diagnostic>,
) {
    let max_head = spec.n_ions() - spec.head_size();
    match op {
        TiltOp::Move { to } => {
            if *to > max_head {
                diags.push(Diagnostic::error(
                    "tilt/head-span",
                    i,
                    format!("move targets head position {to}, past the last valid {max_head}"),
                ));
            }
        }
        TiltOp::Gate { gate, head_pos } => {
            if *head_pos > max_head {
                diags.push(Diagnostic::error(
                    "tilt/head-span",
                    i,
                    format!("{gate} recorded at head {head_pos}, past the last valid {max_head}"),
                ));
            }
            for q in gate.operands().iter() {
                if q.index() >= spec.n_ions() || !spec.covers(*head_pos, q.index()) {
                    diags.push(Diagnostic::error(
                        "tilt/head-span",
                        i,
                        format!(
                            "{gate} at head {head_pos} leaves position {} outside the \
                             {}-wide head",
                            q.index(),
                            spec.head_size()
                        ),
                    ));
                }
            }
        }
    }
}

/// Incremental evaluation of the window-applicable TILT rules over a
/// streaming compile's op increments.
///
/// Only `tilt/head-span` is window-applicable: it is a pure per-op
/// predicate, so checking each increment as it arrives is exactly the
/// whole-program walk with the indices offset by the ops already seen.
/// The other three rules need whole-compilation artifacts (the routed
/// circuit, the final mapping, every ion's complete gate sequence) and
/// cannot run on a window without false verdicts — use the monolithic
/// [`verify_tilt`] for those.
///
/// Diagnostics carry **global** op indices: pushing a stream in any
/// window partition yields byte-identical findings.
#[derive(Debug)]
pub struct StreamVerifier {
    spec: crate::spec::DeviceSpec,
    next_index: usize,
    diags: Vec<Diagnostic>,
}

impl StreamVerifier {
    /// A verifier for a streaming compile on `spec`'s tape.
    pub fn new(spec: crate::spec::DeviceSpec) -> StreamVerifier {
        StreamVerifier {
            spec,
            next_index: 0,
            diags: Vec::new(),
        }
    }

    /// Checks one op increment; indices continue from prior pushes.
    pub fn push(&mut self, ops: &[TiltOp]) {
        for op in ops {
            head_span_op(&self.spec, self.next_index, op, &mut self.diags);
            self.next_index += 1;
        }
    }

    /// Total ops checked so far.
    pub fn ops_seen(&self) -> usize {
        self.next_index
    }

    /// Findings accumulated so far (borrowed; [`StreamVerifier::finish`]
    /// consumes).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Consumes the verifier, returning every finding.
    pub fn finish(self) -> Vec<Diagnostic> {
        self.diags
    }
}

/// `tilt/swap-chain`: inserted swaps span `1..=max_swap_len`.
fn swap_chain(out: &CompileOutput, max_swap_len: usize, diags: &mut Vec<Diagnostic>) {
    for (i, g) in out.routed.circuit.iter().enumerate() {
        if let Gate::Swap(a, b) = g {
            let span = a.index().abs_diff(b.index());
            if span == 0 || span > max_swap_len {
                diags.push(Diagnostic::error(
                    "tilt/swap-chain",
                    i,
                    format!(
                        "routed swap ({}, {}) spans {span} positions, outside the router's \
                         1..={max_swap_len} cap",
                        a.index(),
                        b.index()
                    ),
                ));
            }
        }
    }
}

/// `tilt/mapping-bijection`: the routed swap sequence transforms the
/// initial layout into exactly the recorded final layout.
fn mapping_bijection(out: &CompileOutput, diags: &mut Vec<Diagnostic>) {
    let mut m = out.routed.initial_mapping.clone();
    let n = m.len();
    for (i, g) in out.routed.circuit.iter().enumerate() {
        if let Gate::Swap(a, b) = g {
            if a.index() >= n || b.index() >= n {
                diags.push(Diagnostic::error(
                    "tilt/mapping-bijection",
                    i,
                    format!(
                        "swap ({}, {}) references a position outside the {n}-ion tape",
                        a.index(),
                        b.index()
                    ),
                ));
                continue;
            }
            m.swap_positions(a.index(), b.index());
        }
    }
    if m != out.routed.final_mapping {
        diags.push(Diagnostic::error(
            "tilt/mapping-bijection",
            out.routed.circuit.len(),
            "replaying the routed swaps does not reproduce the recorded final mapping".into(),
        ));
    }
}

/// `tilt/schedule-order`: the scheduled program preserves every ion's
/// gate subsequence from the (swap-lowered) routed circuit.
///
/// The op stream is serial, so "never two ops on one ion at once" holds
/// by construction; the meaningful DAG property on a serial stream is
/// that per-ion order survives scheduling — any reordering that crosses
/// a data dependency shows up as a per-ion subsequence mismatch.
fn schedule_order(out: &CompileOutput, diags: &mut Vec<Diagnostic>) {
    let spec = *out.program.spec();
    let n = spec.n_ions();
    let lowered = decompose(&out.routed.circuit);
    let mut expected: Vec<Vec<Gate>> = vec![Vec::new(); n];
    for g in &lowered {
        for q in g.operands().iter() {
            if q.index() < n {
                expected[q.index()].push(*g);
            }
        }
    }

    let mut cursor = vec![0usize; n];
    // One report per ion: after a mismatch every later gate on that ion
    // is out of step, which would only repeat the same finding.
    let mut desynced = vec![false; n];
    for (i, op) in out.program.ops().iter().enumerate() {
        let TiltOp::Gate { gate, .. } = op else {
            continue;
        };
        for q in gate.operands().iter() {
            let qi = q.index();
            if qi >= n || desynced[qi] {
                continue;
            }
            match expected[qi].get(cursor[qi]) {
                Some(want) if *want == *gate => cursor[qi] += 1,
                Some(want) => {
                    desynced[qi] = true;
                    diags.push(Diagnostic::error(
                        "tilt/schedule-order",
                        i,
                        format!("position {qi} executes {gate} but its next dependency is {want}"),
                    ));
                }
                None => {
                    desynced[qi] = true;
                    diags.push(Diagnostic::error(
                        "tilt/schedule-order",
                        i,
                        format!("position {qi} executes {gate} beyond its routed gate sequence"),
                    ));
                }
            }
        }
    }
    for qi in 0..n {
        if !desynced[qi] && cursor[qi] < expected[qi].len() {
            diags.push(Diagnostic::error(
                "tilt/schedule-order",
                out.program.ops().len(),
                format!(
                    "position {qi} is missing {} scheduled gate(s) from the routed circuit",
                    expected[qi].len() - cursor[qi]
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Compiler;
    use crate::program::TiltProgram;
    use crate::route::{LinqConfig, RouterKind};
    use crate::spec::DeviceSpec;
    use tilt_circuit::{Circuit, Qubit};

    fn compiled(n: usize, head: usize) -> CompileOutput {
        let mut c = Circuit::new(n);
        c.h(Qubit(0));
        for i in 1..n {
            c.cnot(Qubit(i - 1), Qubit(i));
        }
        c.cnot(Qubit(0), Qubit(n - 1));
        Compiler::new(DeviceSpec::new(n, head).unwrap())
            .compile(&c)
            .unwrap()
    }

    #[test]
    fn clean_compile_verifies_clean() {
        let out = compiled(16, 4);
        assert_eq!(verify_tilt(&out, 3), Vec::new());
    }

    #[test]
    fn capped_router_verifies_against_its_cap() {
        let mut c = Circuit::new(16);
        c.cnot(Qubit(0), Qubit(15));
        let spec = DeviceSpec::new(16, 8).unwrap();
        let mut compiler = Compiler::new(spec);
        compiler.router(RouterKind::Linq(LinqConfig::with_max_swap_len(3)));
        let out = compiler.compile(&c).unwrap();
        assert!(verify_tilt(&out, 3).is_empty());
    }

    #[test]
    fn uncovered_gate_is_diagnosed() {
        let mut out = compiled(16, 4);
        // Rebuild the program with one gate's head position shifted out
        // from under its operands (skip the debug asserts of `new` by
        // mutating a covered gate to an uncovered head).
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        let idx = ops
            .iter()
            .position(|op| matches!(op, TiltOp::Gate { gate, .. } if gate.is_two_qubit()))
            .unwrap();
        if let TiltOp::Gate { gate, head_pos } = &mut ops[idx] {
            let hi = gate.operands().iter().map(|q| q.index()).max().unwrap();
            *head_pos = if hi >= spec.head_size() {
                0
            } else {
                spec.n_ions() - spec.head_size()
            };
        }
        out.program = TiltProgram::new_unchecked(spec, ops);
        let diags = verify_tilt(&out, spec.head_size() - 1);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "tilt/head-span" && d.op_index == idx),
            "{diags:?}"
        );
    }

    #[test]
    fn move_past_tape_end_is_diagnosed() {
        let mut out = compiled(16, 4);
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        ops.push(TiltOp::Move { to: spec.n_ions() });
        out.program = TiltProgram::new_unchecked(spec, ops);
        let diags = verify_tilt(&out, spec.head_size() - 1);
        assert!(
            diags.iter().any(|d| d.rule == "tilt/head-span"),
            "{diags:?}"
        );
    }

    #[test]
    fn stream_verifier_matches_head_span_at_every_window_split() {
        // Corrupt two ops at known indices, then push the op stream in
        // several window partitions: the findings (rules AND global
        // indices) must be byte-identical to the whole-program walk.
        let out = compiled(16, 4);
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        let idx = ops
            .iter()
            .position(|op| matches!(op, TiltOp::Gate { gate, .. } if gate.is_two_qubit()))
            .unwrap();
        if let TiltOp::Gate { head_pos, .. } = &mut ops[idx] {
            *head_pos = spec.n_ions() - spec.head_size();
        }
        ops.push(TiltOp::Move { to: spec.n_ions() });
        let mut whole = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            head_span_op(&spec, i, op, &mut whole);
        }
        assert!(whole.iter().any(|d| d.op_index == idx));
        assert!(whole.iter().any(|d| d.op_index == ops.len() - 1));
        for window in [1, 3, 7, ops.len(), ops.len() + 5] {
            let mut sv = StreamVerifier::new(spec);
            for chunk in ops.chunks(window) {
                sv.push(chunk);
            }
            assert_eq!(sv.ops_seen(), ops.len());
            assert_eq!(sv.finish(), whole, "window {window}");
        }
    }

    #[test]
    fn stream_verifier_is_clean_on_a_clean_compile() {
        let out = compiled(16, 4);
        let mut sv = StreamVerifier::new(*out.program.spec());
        for chunk in out.program.ops().chunks(5) {
            sv.push(chunk);
        }
        assert!(sv.diagnostics().is_empty());
        assert_eq!(sv.ops_seen(), out.program.ops().len());
        assert_eq!(sv.finish(), Vec::new());
    }

    #[test]
    fn overlong_swap_is_diagnosed() {
        let mut out = compiled(16, 4);
        let idx = out
            .routed
            .circuit
            .iter()
            .position(|g| matches!(g, Gate::Swap(..)))
            .expect("wrap-around CNOT forces a swap");
        out.routed.circuit.gates_mut()[idx] = Gate::Swap(Qubit(0), Qubit(9));
        let diags = verify_tilt(&out, 3);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "tilt/swap-chain" && d.op_index == idx),
            "{diags:?}"
        );
        // Replaying the corrupted swap also breaks the recorded final
        // mapping and the per-ion schedule.
        assert!(diags.iter().any(|d| d.rule == "tilt/mapping-bijection"));
    }

    #[test]
    fn scrambled_schedule_is_diagnosed() {
        let mut out = compiled(16, 4);
        // Swap two gate ops that share an operand: per-ion order breaks.
        let gate_idx: Vec<usize> = out
            .program
            .ops()
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                TiltOp::Gate { gate, .. } if !gate.operands().is_empty() => Some(i),
                _ => None,
            })
            .collect();
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        let (mut a, mut b) = (usize::MAX, usize::MAX);
        'outer: for (k, &i) in gate_idx.iter().enumerate() {
            for &j in &gate_idx[k + 1..] {
                let (TiltOp::Gate { gate: gi, .. }, TiltOp::Gate { gate: gj, .. }) =
                    (&ops[i], &ops[j])
                else {
                    continue;
                };
                let shared = gi.operands().iter().any(|q| gj.operands().contains(q));
                if shared && gi != gj {
                    (a, b) = (i, j);
                    break 'outer;
                }
            }
        }
        assert_ne!(a, usize::MAX, "GHZ chain has dependent gate pairs");
        ops.swap(a, b);
        out.program = TiltProgram::new_unchecked(spec, ops);
        let diags = verify_tilt(&out, spec.head_size() - 1);
        assert!(
            diags.iter().any(|d| d.rule == "tilt/schedule-order"),
            "{diags:?}"
        );
    }

    #[test]
    fn dropped_gate_is_diagnosed() {
        let mut out = compiled(16, 4);
        let spec = *out.program.spec();
        let mut ops = out.program.ops().to_vec();
        // Drop the final gate: no reordering, just a silently missing
        // op — the completeness half of the rule.
        let idx = ops
            .iter()
            .rposition(|op| matches!(op, TiltOp::Gate { .. }))
            .unwrap();
        ops.remove(idx);
        out.program = TiltProgram::new_unchecked(spec, ops);
        let diags = verify_tilt(&out, spec.head_size() - 1);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "tilt/schedule-order" && d.message.contains("missing")),
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostics_render_rule_and_index() {
        let d = Diagnostic::error("tilt/head-span", 7, "example".into());
        assert_eq!(d.to_string(), "error[tilt/head-span] op 7: example");
        assert!(Severity::Error > Severity::Warning);
    }
}
