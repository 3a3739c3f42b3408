//! The gate set.
//!
//! Two groups of gates appear in the toolflow:
//!
//! * **Program gates** emitted by the benchmark generators: `H`, `X`, `T`,
//!   `CNOT`, `CZ`, controlled-phase, Toffoli, `Swap`, measurement.
//! * **Trapped-ion native gates** produced by the decomposition pass
//!   (§IV-B of the paper): single-qubit rotations `Rx/Ry/Rz` and the
//!   two-qubit Mølmer–Sørensen interaction `XX(θ) = exp(i·θ/2·X⊗X)`.
//!
//! The LinQ passes only care about *which qubits* a gate touches and whether
//! it is a two-qubit interaction; angles ride along untouched.

use crate::qubit::Qubit;
use std::fmt;

/// A quantum gate applied to one, two, or three qubits.
///
/// Angles are in radians. The enum intentionally keeps both high-level
/// program gates and trapped-ion native gates: benchmark circuits are built
/// from the former and lowered to the latter by
/// `tilt_compiler::decompose`.
///
/// # Example
///
/// ```
/// use tilt_circuit::{Gate, Qubit};
///
/// let g = Gate::Cnot(Qubit(0), Qubit(5));
/// assert!(g.is_two_qubit());
/// assert_eq!(g.qubits(), vec![Qubit(0), Qubit(5)]);
/// assert_eq!(g.span(), Some(5));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    // --- single-qubit program gates -------------------------------------
    /// Hadamard.
    H(Qubit),
    /// Pauli-X.
    X(Qubit),
    /// Pauli-Y.
    Y(Qubit),
    /// Pauli-Z.
    Z(Qubit),
    /// Phase gate S = diag(1, i).
    S(Qubit),
    /// Inverse phase gate.
    Sdg(Qubit),
    /// T = diag(1, e^{iπ/4}).
    T(Qubit),
    /// Inverse T.
    Tdg(Qubit),
    /// Square root of X (used by RCS).
    SqrtX(Qubit),
    /// Square root of Y (used by RCS).
    SqrtY(Qubit),

    // --- single-qubit native rotations ----------------------------------
    /// Rotation about the X axis by the given angle (radians).
    Rx(Qubit, f64),
    /// Rotation about the Y axis by the given angle (radians).
    Ry(Qubit, f64),
    /// Rotation about the Z axis by the given angle (radians).
    Rz(Qubit, f64),

    // --- two-qubit gates --------------------------------------------------
    /// Controlled-NOT with control first.
    Cnot(Qubit, Qubit),
    /// Controlled-Z (symmetric).
    Cz(Qubit, Qubit),
    /// Controlled phase rotation by the given angle; the workhorse of QFT.
    Cphase(Qubit, Qubit, f64),
    /// Ising coupling `ZZ(θ) = exp(-i·θ/2·Z⊗Z)`; the workhorse of QAOA.
    Zz(Qubit, Qubit, f64),
    /// The trapped-ion native Mølmer–Sørensen gate
    /// `XX(θ) = exp(i·θ/2·X⊗X)`.
    Xx(Qubit, Qubit, f64),
    /// SWAP of two qubits. On TILT this is a *communication* gate inserted
    /// by the compiler; it costs three `XX` interactions after lowering.
    Swap(Qubit, Qubit),

    // --- three-qubit program gates ---------------------------------------
    /// Toffoli (CCX) with the two controls first.
    Toffoli(Qubit, Qubit, Qubit),

    // --- non-unitary -------------------------------------------------------
    /// Computational-basis measurement.
    Measure(Qubit),
    /// Re-initialization of one ion to |0⟩ (optical pumping). Required
    /// between uses of a communication ion: once measured, the ion must
    /// be pumped back to the ground state before it can host the next
    /// EPR half.
    Reset(Qubit),
    /// Compiler barrier: no dependency may be reordered across it.
    Barrier,
}

impl Gate {
    /// The qubits this gate acts on, in declaration order.
    ///
    /// [`Gate::Barrier`] returns an empty vector: it constrains *all* qubits
    /// but owns none.
    ///
    /// This allocates a `Vec` per call, so it serves tests, `Display` and
    /// other cold paths; per-gate code uses the allocation-free
    /// [`Gate::operands`].
    pub fn qubits(&self) -> Vec<Qubit> {
        use Gate::*;
        match *self {
            H(q)
            | X(q)
            | Y(q)
            | Z(q)
            | S(q)
            | Sdg(q)
            | T(q)
            | Tdg(q)
            | SqrtX(q)
            | SqrtY(q)
            | Rx(q, _)
            | Ry(q, _)
            | Rz(q, _)
            | Measure(q)
            | Reset(q) => vec![q],
            Cnot(a, b) | Cz(a, b) | Swap(a, b) => vec![a, b],
            Cphase(a, b, _) | Zz(a, b, _) | Xx(a, b, _) => vec![a, b],
            Toffoli(a, b, c) => vec![a, b, c],
            Barrier => vec![],
        }
    }

    /// The gate's operands as a fixed-capacity, allocation-free slice
    /// — [`Gate::qubits`] allocates a `Vec` per call, which hot paths
    /// (the tape scheduler's cascade walks) cannot afford.
    pub fn operands(&self) -> Operands {
        use Gate::*;
        let (arr, len) = match *self {
            H(q)
            | X(q)
            | Y(q)
            | Z(q)
            | S(q)
            | Sdg(q)
            | T(q)
            | Tdg(q)
            | SqrtX(q)
            | SqrtY(q)
            | Rx(q, _)
            | Ry(q, _)
            | Rz(q, _)
            | Measure(q)
            | Reset(q) => ([q, Qubit(0), Qubit(0)], 1),
            Cnot(a, b) | Cz(a, b) | Swap(a, b) | Cphase(a, b, _) | Zz(a, b, _) | Xx(a, b, _) => {
                ([a, b, Qubit(0)], 2)
            }
            Toffoli(a, b, c) => ([a, b, c], 3),
            Barrier => ([Qubit(0); 3], 0),
        };
        Operands { arr, len }
    }

    /// Number of qubits the gate acts on (0 for [`Gate::Barrier`]).
    pub fn arity(&self) -> usize {
        use Gate::*;
        match self {
            Barrier => 0,
            H(_) | X(_) | Y(_) | Z(_) | S(_) | Sdg(_) | T(_) | Tdg(_) | SqrtX(_) | SqrtY(_)
            | Rx(..) | Ry(..) | Rz(..) | Measure(_) | Reset(_) => 1,
            Cnot(..) | Cz(..) | Cphase(..) | Zz(..) | Xx(..) | Swap(..) => 2,
            Toffoli(..) => 3,
        }
    }

    /// True for gates coupling exactly two qubits.
    ///
    /// This is the paper's `g` (Table I): the class of gates that the swap
    /// inserter must make executable within the tape head.
    #[inline]
    pub fn is_two_qubit(&self) -> bool {
        self.arity() == 2
    }

    /// True for the single-qubit unitaries (excludes measurement/barrier).
    pub fn is_single_qubit_unitary(&self) -> bool {
        !matches!(self, Gate::Measure(_) | Gate::Reset(_) | Gate::Barrier) && self.arity() == 1
    }

    /// True if this gate is in the trapped-ion native set `{Rx, Ry, Rz, XX}`
    /// (measurement and barriers are also accepted by the hardware).
    pub fn is_native(&self) -> bool {
        matches!(
            self,
            Gate::Rx(..)
                | Gate::Ry(..)
                | Gate::Rz(..)
                | Gate::Xx(..)
                | Gate::Measure(_)
                | Gate::Reset(_)
                | Gate::Barrier
        )
    }

    /// For two-qubit gates, the distance `d_g = |q1 - q2|` between the
    /// operands in ion spacings; `None` otherwise.
    pub fn span(&self) -> Option<usize> {
        let qs = self.operands();
        if qs.len() == 2 {
            Some(qs[0].distance(qs[1]))
        } else {
            None
        }
    }

    /// Returns a copy of the gate with every operand remapped through `f`.
    ///
    /// Used by the mapping pass to rewrite logical operands into physical
    /// tape positions, and by swap insertion to track the evolving layout.
    pub fn map_qubits(&self, mut f: impl FnMut(Qubit) -> Qubit) -> Gate {
        use Gate::*;
        match *self {
            H(q) => H(f(q)),
            X(q) => X(f(q)),
            Y(q) => Y(f(q)),
            Z(q) => Z(f(q)),
            S(q) => S(f(q)),
            Sdg(q) => Sdg(f(q)),
            T(q) => T(f(q)),
            Tdg(q) => Tdg(f(q)),
            SqrtX(q) => SqrtX(f(q)),
            SqrtY(q) => SqrtY(f(q)),
            Rx(q, a) => Rx(f(q), a),
            Ry(q, a) => Ry(f(q), a),
            Rz(q, a) => Rz(f(q), a),
            Cnot(a, b) => Cnot(f(a), f(b)),
            Cz(a, b) => Cz(f(a), f(b)),
            Cphase(a, b, t) => Cphase(f(a), f(b), t),
            Zz(a, b, t) => Zz(f(a), f(b), t),
            Xx(a, b, t) => Xx(f(a), f(b), t),
            Swap(a, b) => Swap(f(a), f(b)),
            Toffoli(a, b, c) => Toffoli(f(a), f(b), f(c)),
            Measure(q) => Measure(f(q)),
            Reset(q) => Reset(f(q)),
            Barrier => Barrier,
        }
    }

    /// True when the gate normalizes a Pauli operator to a Pauli
    /// operator — i.e. the stabilizer (tableau) backend can simulate it
    /// exactly.
    ///
    /// Angle-carrying gates are classified against the Clifford grid
    /// with the shared [`crate::clifford::ANGLE_TOL`] tolerance:
    /// `Rx`/`Ry`/`Rz`/`Zz`/`Xx` at multiples of π/2, `Cphase` at
    /// multiples of π (λ = π/2 is the CS gate, which is *not*
    /// Clifford). `T`/`Tdg`/`Toffoli` are never Clifford.
    ///
    /// [`Gate::Measure`], [`Gate::Reset`], and [`Gate::Barrier`] return
    /// `true`: they are not unitaries, but a tableau simulates them
    /// exactly, so "every gate is Clifford" is precisely the condition
    /// under which the whole circuit is stabilizer-simulable.
    pub fn is_clifford(&self) -> bool {
        use crate::clifford::{half_pi_steps, pi_steps};
        use Gate::*;
        match *self {
            H(_) | X(_) | Y(_) | Z(_) | S(_) | Sdg(_) | SqrtX(_) | SqrtY(_) | Cnot(..) | Cz(..)
            | Swap(..) => true,
            T(_) | Tdg(_) | Toffoli(..) => false,
            Rx(_, t) | Ry(_, t) | Rz(_, t) | Zz(_, _, t) | Xx(_, _, t) => {
                half_pi_steps(t).is_some()
            }
            Cphase(_, _, t) => pi_steps(t).is_some(),
            Measure(_) | Reset(_) | Barrier => true,
        }
    }

    /// Short lowercase mnemonic, matching the OpenQASM spelling where one
    /// exists.
    pub fn name(&self) -> &'static str {
        use Gate::*;
        match self {
            H(_) => "h",
            X(_) => "x",
            Y(_) => "y",
            Z(_) => "z",
            S(_) => "s",
            Sdg(_) => "sdg",
            T(_) => "t",
            Tdg(_) => "tdg",
            SqrtX(_) => "sx",
            SqrtY(_) => "sy",
            Rx(..) => "rx",
            Ry(..) => "ry",
            Rz(..) => "rz",
            Cnot(..) => "cx",
            Cz(..) => "cz",
            Cphase(..) => "cp",
            Zz(..) => "rzz",
            Xx(..) => "rxx",
            Swap(..) => "swap",
            Toffoli(..) => "ccx",
            Measure(_) => "measure",
            Reset(_) => "reset",
            Barrier => "barrier",
        }
    }
}

/// Fixed-capacity operand list returned by [`Gate::operands`]; derefs
/// to a slice of the gate's qubits in declaration order.
#[derive(Clone, Copy, Debug)]
pub struct Operands {
    arr: [Qubit; 3],
    len: usize,
}

impl std::ops::Deref for Operands {
    type Target = [Qubit];

    fn deref(&self) -> &[Qubit] {
        &self.arr[..self.len]
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Gate::*;
        match self {
            Rx(q, a) | Ry(q, a) | Rz(q, a) => write!(f, "{}({:.4}) {}", self.name(), a, q),
            Cphase(a, b, t) | Zz(a, b, t) | Xx(a, b, t) => {
                write!(f, "{}({:.4}) {}, {}", self.name(), t, a, b)
            }
            Barrier => write!(f, "barrier"),
            _ => {
                write!(f, "{}", self.name())?;
                let qs = self.qubits();
                for (i, q) in qs.iter().enumerate() {
                    write!(f, "{}{}", if i == 0 { " " } else { ", " }, q)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_qubits_len() {
        let gates = [
            Gate::H(Qubit(0)),
            Gate::Rx(Qubit(1), 0.5),
            Gate::Cnot(Qubit(0), Qubit(1)),
            Gate::Xx(Qubit(2), Qubit(3), 0.25),
            Gate::Toffoli(Qubit(0), Qubit(1), Qubit(2)),
            Gate::Measure(Qubit(4)),
            Gate::Barrier,
        ];
        for g in gates {
            assert_eq!(g.arity(), g.qubits().len(), "{g:?}");
        }
    }

    #[test]
    fn two_qubit_classification() {
        assert!(Gate::Cnot(Qubit(0), Qubit(1)).is_two_qubit());
        assert!(Gate::Swap(Qubit(0), Qubit(1)).is_two_qubit());
        assert!(!Gate::H(Qubit(0)).is_two_qubit());
        assert!(!Gate::Toffoli(Qubit(0), Qubit(1), Qubit(2)).is_two_qubit());
    }

    #[test]
    fn native_set() {
        assert!(Gate::Xx(Qubit(0), Qubit(1), 0.1).is_native());
        assert!(Gate::Rz(Qubit(0), 1.0).is_native());
        assert!(!Gate::Cnot(Qubit(0), Qubit(1)).is_native());
        assert!(!Gate::H(Qubit(0)).is_native());
    }

    #[test]
    fn span_of_two_qubit_gates() {
        assert_eq!(Gate::Cnot(Qubit(3), Qubit(11)).span(), Some(8));
        assert_eq!(Gate::H(Qubit(3)).span(), None);
        assert_eq!(Gate::Toffoli(Qubit(0), Qubit(1), Qubit(2)).span(), None);
    }

    #[test]
    fn map_qubits_shifts_operands() {
        let g = Gate::Cphase(Qubit(1), Qubit(2), 0.5);
        let shifted = g.map_qubits(|q| Qubit(q.index() + 10));
        assert_eq!(shifted.qubits(), vec![Qubit(11), Qubit(12)]);
        // Angle preserved.
        match shifted {
            Gate::Cphase(_, _, t) => assert_eq!(t, 0.5),
            other => panic!("unexpected gate {other:?}"),
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Gate::Cnot(Qubit(0), Qubit(1)).to_string(), "cx q0, q1");
        assert_eq!(Gate::Rx(Qubit(2), 0.5).to_string(), "rx(0.5000) q2");
        assert_eq!(Gate::Barrier.to_string(), "barrier");
    }

    #[test]
    #[allow(clippy::approx_constant)] // decimal π/2 spellings are the point
    fn clifford_classification_is_angle_aware() {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
        let q = Qubit(0);
        let p = Qubit(1);
        // Fixed Clifford gates.
        for g in [
            Gate::H(q),
            Gate::X(q),
            Gate::Y(q),
            Gate::Z(q),
            Gate::S(q),
            Gate::Sdg(q),
            Gate::SqrtX(q),
            Gate::SqrtY(q),
            Gate::Cnot(q, p),
            Gate::Cz(q, p),
            Gate::Swap(q, p),
            Gate::Measure(q),
            Gate::Reset(q),
            Gate::Barrier,
        ] {
            assert!(g.is_clifford(), "{g:?}");
        }
        // Never Clifford.
        for g in [Gate::T(q), Gate::Tdg(q), Gate::Toffoli(q, p, Qubit(2))] {
            assert!(!g.is_clifford(), "{g:?}");
        }
        // Rotations: π/2 grid, with tolerance for decimal spellings.
        assert!(Gate::Rz(q, FRAC_PI_2).is_clifford());
        assert!(Gate::Rz(q, -3.0 * PI / 2.0).is_clifford());
        assert!(Gate::Rx(q, 1.5707963267948966).is_clifford());
        assert!(Gate::Ry(q, 0.0).is_clifford());
        assert!(!Gate::Rz(q, FRAC_PI_4).is_clifford());
        assert!(!Gate::Rx(q, 0.3).is_clifford());
        assert!(Gate::Zz(q, p, FRAC_PI_2).is_clifford());
        assert!(Gate::Xx(q, p, -FRAC_PI_2).is_clifford());
        assert!(!Gate::Xx(q, p, FRAC_PI_4).is_clifford());
        // Cphase: Clifford only at multiples of π (CS is not).
        assert!(Gate::Cphase(q, p, PI).is_clifford());
        assert!(Gate::Cphase(q, p, 0.0).is_clifford());
        assert!(!Gate::Cphase(q, p, FRAC_PI_2).is_clifford());
    }

    #[test]
    fn single_qubit_unitary_excludes_measure() {
        assert!(Gate::H(Qubit(0)).is_single_qubit_unitary());
        assert!(!Gate::Measure(Qubit(0)).is_single_qubit_unitary());
        assert!(!Gate::Barrier.is_single_qubit_unitary());
    }
}
