//! Gate fusion: collapsing adjacent gates into wider matrix blocks.
//!
//! Two levels of fusion happen in one pass over the circuit:
//!
//! 1. **Single-qubit runs** — consecutive single-qubit gates on the same
//!    qubit multiply into one 2×2 matrix, turning `k` passes over the
//!    amplitude pairs into one. Because single-qubit gates on different
//!    qubits commute, a pending matrix only flushes when a multi-qubit
//!    gate touches its qubit, so single-qubit gates also commute past
//!    unrelated two-qubit gates.
//! 2. **Two-qubit blocks** — a two-qubit gate absorbs the pending
//!    single-qubit blocks on its operands, and subsequent gates confined
//!    to the same qubit pair keep multiplying into one 4×4 matrix. This
//!    is what collapses the ubiquitous `Rz·CX·Rz·CX·Rz` controlled-phase
//!    pattern (two CNOT passes + three Rz sweeps) into a *single*
//!    diagonal 4×4 — which the kernels then apply as one masked phase
//!    sweep over `2^(n-2)` amplitudes.
//!
//! [`Gate::Barrier`] is the identity on a pure state and is dropped.
//! Blocks have pairwise-disjoint supports by construction, so pending
//! blocks commute and flush order between them is irrelevant.
//!
//! Fusion widens the work handed to each kernel call (one dense 2×2 /
//! 4×4 sweep instead of several sparse ones), which is exactly the
//! shape the [`crate::simd`] tier vectorizes best — fused blocks and
//! diagonal runs flow through the same tier dispatch as unfused gates.

use crate::complex::Complex;
use tilt_circuit::{Circuit, Gate};

/// A 2×2 complex matrix (row-major).
pub type Mat2 = [[Complex; 2]; 2];

/// A 4×4 complex matrix (row-major) over the two-qubit basis
/// `|b1 b0⟩` with `v = b0 + 2·b1` — `b0` is the block's first qubit.
pub type Mat4 = [[Complex; 4]; 4];

/// One operation after fusion.
#[derive(Clone, Copy, Debug)]
pub enum FusedOp {
    /// A fused single-qubit unitary on `q`.
    OneQ {
        /// Target qubit.
        q: usize,
        /// The accumulated 2×2 matrix.
        m: Mat2,
    },
    /// A fused two-qubit unitary on the pair `(a, b)`, with `a` the
    /// low bit of the [`Mat4`] index.
    TwoQ {
        /// Low-bit qubit of the matrix convention.
        a: usize,
        /// High-bit qubit of the matrix convention.
        b: usize,
        /// The accumulated 4×4 matrix.
        m: Mat4,
    },
    /// A gate passed through unfused (wider than two qubits, or a
    /// measurement).
    Passthrough(Gate),
}

/// The 2×2 matrix of a single-qubit gate, or `None` for anything else.
pub(crate) fn matrix_1q(gate: &Gate) -> Option<(usize, Mat2)> {
    use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_4};
    let c = Complex::new;
    let m = match *gate {
        Gate::H(q) => (
            q.index(),
            [
                [c(FRAC_1_SQRT_2, 0.0), c(FRAC_1_SQRT_2, 0.0)],
                [c(FRAC_1_SQRT_2, 0.0), c(-FRAC_1_SQRT_2, 0.0)],
            ],
        ),
        Gate::X(q) => (
            q.index(),
            [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]],
        ),
        Gate::Y(q) => (
            q.index(),
            [[Complex::ZERO, -Complex::I], [Complex::I, Complex::ZERO]],
        ),
        Gate::Z(q) => (q.index(), diag2(Complex::ONE, c(-1.0, 0.0))),
        Gate::S(q) => (q.index(), diag2(Complex::ONE, Complex::I)),
        Gate::Sdg(q) => (q.index(), diag2(Complex::ONE, -Complex::I)),
        Gate::T(q) => (q.index(), diag2(Complex::ONE, Complex::cis(FRAC_PI_4))),
        Gate::Tdg(q) => (q.index(), diag2(Complex::ONE, Complex::cis(-FRAC_PI_4))),
        Gate::SqrtX(q) => {
            let p = c(0.5, 0.5);
            let m = c(0.5, -0.5);
            (q.index(), [[p, m], [m, p]])
        }
        Gate::SqrtY(q) => {
            let p = c(0.5, 0.5);
            (q.index(), [[p, -p], [p, p]])
        }
        Gate::Rx(q, t) => {
            let (co, si) = ((t / 2.0).cos(), (t / 2.0).sin());
            (
                q.index(),
                [[c(co, 0.0), c(0.0, -si)], [c(0.0, -si), c(co, 0.0)]],
            )
        }
        Gate::Ry(q, t) => {
            let (co, si) = ((t / 2.0).cos(), (t / 2.0).sin());
            (
                q.index(),
                [[c(co, 0.0), c(-si, 0.0)], [c(si, 0.0), c(co, 0.0)]],
            )
        }
        Gate::Rz(q, t) => (
            q.index(),
            diag2(Complex::cis(-t / 2.0), Complex::cis(t / 2.0)),
        ),
        _ => return None,
    };
    Some(m)
}

/// The 4×4 matrix of a two-qubit gate in the `(a = low bit, b = high
/// bit)` convention, or `None` for anything else.
pub(crate) fn matrix_2q(gate: &Gate) -> Option<(usize, usize, Mat4)> {
    let (a, b, m) = match *gate {
        Gate::Cnot(c, t) => {
            // Control is the low bit: v = b_c + 2·b_t; flip t when c set.
            (c.index(), t.index(), perm4([0, 3, 2, 1]))
        }
        Gate::Cz(x, y) => (
            x.index(),
            y.index(),
            diag4([
                Complex::ONE,
                Complex::ONE,
                Complex::ONE,
                Complex::new(-1.0, 0.0),
            ]),
        ),
        Gate::Cphase(x, y, lambda) => (
            x.index(),
            y.index(),
            diag4([
                Complex::ONE,
                Complex::ONE,
                Complex::ONE,
                Complex::cis(lambda),
            ]),
        ),
        Gate::Zz(x, y, t) => {
            let same = Complex::cis(-t / 2.0);
            let diff = Complex::cis(t / 2.0);
            (x.index(), y.index(), diag4([same, diff, diff, same]))
        }
        Gate::Xx(x, y, t) => {
            let cos = Complex::new((t / 2.0).cos(), 0.0);
            let isin = Complex::new(0.0, -(t / 2.0).sin());
            let z = Complex::ZERO;
            (
                x.index(),
                y.index(),
                [
                    [cos, z, z, isin],
                    [z, cos, isin, z],
                    [z, isin, cos, z],
                    [isin, z, z, cos],
                ],
            )
        }
        Gate::Swap(x, y) => (x.index(), y.index(), perm4([0, 2, 1, 3])),
        _ => return None,
    };
    // Degenerate same-operand gates (`cx q, q` — QASM only range-checks)
    // have no valid 4×4 embedding; let them pass through to the
    // naive-semantics fallback in gate dispatch.
    if a == b {
        return None;
    }
    Some((a, b, m))
}

#[inline]
fn diag2(p0: Complex, p1: Complex) -> Mat2 {
    [[p0, Complex::ZERO], [Complex::ZERO, p1]]
}

#[inline]
fn diag4(d: [Complex; 4]) -> Mat4 {
    let mut m = [[Complex::ZERO; 4]; 4];
    for (i, &di) in d.iter().enumerate() {
        m[i][i] = di;
    }
    m
}

/// The permutation matrix sending basis state `v` to `p[v]`.
#[inline]
fn perm4(p: [usize; 4]) -> Mat4 {
    let mut m = [[Complex::ZERO; 4]; 4];
    for (v, &pv) in p.iter().enumerate() {
        m[pv][v] = Complex::ONE;
    }
    m
}

/// `b · a` — apply `a` first, then `b`.
#[inline]
pub(crate) fn matmul2(b: Mat2, a: Mat2) -> Mat2 {
    let mut out = [[Complex::ZERO; 2]; 2];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = b[i][0] * a[0][j] + b[i][1] * a[1][j];
        }
    }
    out
}

/// `b · a` for 4×4 matrices — apply `a` first, then `b`.
#[inline]
pub(crate) fn matmul4(b: Mat4, a: Mat4) -> Mat4 {
    let mut out = [[Complex::ZERO; 4]; 4];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for k in 0..4 {
                acc += b[i][k] * a[k][j];
            }
            *cell = acc;
        }
    }
    out
}

/// Embeds a 2×2 matrix acting on bit `pos` (0 = low, 1 = high) of the
/// two-qubit index into a 4×4.
#[inline]
fn embed2(m: Mat2, pos: usize) -> Mat4 {
    let mut out = [[Complex::ZERO; 4]; 4];
    for (vout, row) in out.iter_mut().enumerate() {
        for (vin, cell) in row.iter_mut().enumerate() {
            let (bo, bi, spectator_match) = if pos == 0 {
                (vout & 1, vin & 1, vout >> 1 == vin >> 1)
            } else {
                (vout >> 1, vin >> 1, vout & 1 == vin & 1)
            };
            if spectator_match {
                *cell = m[bo][bi];
            }
        }
    }
    out
}

/// Reverses the qubit convention of a 4×4 (swaps the index bits).
#[inline]
pub(crate) fn transpose_qubits(m: Mat4) -> Mat4 {
    let p = |v: usize| ((v & 1) << 1) | (v >> 1);
    let mut out = [[Complex::ZERO; 4]; 4];
    for (vout, row) in out.iter_mut().enumerate() {
        for (vin, cell) in row.iter_mut().enumerate() {
            *cell = m[p(vout)][p(vin)];
        }
    }
    out
}

/// True when `m` is diagonal (kernel dispatch can use a phase sweep).
#[inline]
pub(crate) fn is_diagonal2(m: &Mat2) -> bool {
    m[0][1] == Complex::ZERO && m[1][0] == Complex::ZERO
}

/// True when every off-diagonal entry of `m` is exactly zero.
///
/// Structural zeros survive fusion exactly (products of exact zeros),
/// so diagonality detection needs no tolerance.
#[inline]
pub(crate) fn is_diagonal4(m: &Mat4) -> bool {
    for (i, row) in m.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            if i != j && *cell != Complex::ZERO {
                return false;
            }
        }
    }
    true
}

/// True when `m` is *monomial*: exactly one nonzero entry per column —
/// a basis permutation dressed with phases (`M = P·D`). These blocks
/// have cheap kernels (a masked phase sweep plus the contiguous-run
/// swap kernels), so the collector's cost model keeps them from being
/// densified by non-diagonal single-qubit absorption. Diagonal and
/// pure-permutation matrices are special cases. As with
/// [`is_diagonal4`], structural zeros survive fusion exactly, so no
/// tolerance is needed.
#[inline]
pub fn is_monomial4(m: &Mat4) -> bool {
    for v in 0..4 {
        let nonzeros = m.iter().filter(|row| row[v] != Complex::ZERO).count();
        if nonzeros != 1 {
            return false;
        }
    }
    true
}

/// One pending fusion block.
enum Block {
    One(usize, Mat2),
    Two(usize, usize, Mat4),
}

/// Incremental block collector (shared by [`fuse`] and streaming users).
struct Collector {
    /// `qubit → index into blocks` for live blocks.
    owner: Vec<Option<usize>>,
    /// Live and tombstoned blocks; emission happens on flush.
    blocks: Vec<Option<Block>>,
    out: Vec<FusedOp>,
}

impl Collector {
    fn new(n_qubits: usize, capacity: usize) -> Self {
        Collector {
            owner: vec![None; n_qubits],
            blocks: Vec::new(),
            out: Vec::with_capacity(capacity),
        }
    }

    fn flush_qubit(&mut self, q: usize) {
        let Some(idx) = self.owner[q] else { return };
        let block = self.blocks[idx].take().expect("owner points at live block");
        match block {
            Block::One(q0, m) => {
                self.owner[q0] = None;
                self.out.push(FusedOp::OneQ { q: q0, m });
            }
            Block::Two(a, b, m) => {
                self.owner[a] = None;
                self.owner[b] = None;
                self.out.push(FusedOp::TwoQ { a, b, m });
            }
        }
    }

    fn push_1q(&mut self, q: usize, m: Mat2) {
        // Cost model: embedding a non-diagonal matrix (H, Rx, …) into a
        // monomial 2q block would densify it — one dense 4×4 pass costs
        // about twice the block's cheap permutation + phase kernels
        // (the Clifford+T-dressed CNOTs of the lowered Cuccaro adder
        // are exactly this shape). Flush the cheap block and let the
        // rotation start its own 1q run instead.
        if let Some(idx) = self.owner[q] {
            let densifies = matches!(
                self.blocks[idx].as_ref().expect("live block"),
                Block::Two(_, _, acc) if !is_diagonal2(&m) && is_monomial4(acc)
            );
            if densifies {
                self.flush_qubit(q);
            }
        }
        match self.owner[q] {
            None => {
                self.owner[q] = Some(self.blocks.len());
                self.blocks.push(Some(Block::One(q, m)));
            }
            Some(idx) => match self.blocks[idx].as_mut().expect("live block") {
                Block::One(_, acc) => *acc = matmul2(m, *acc),
                Block::Two(a, _, acc) => {
                    let pos = if *a == q { 0 } else { 1 };
                    *acc = matmul4(embed2(m, pos), *acc);
                }
            },
        }
    }

    fn push_2q(&mut self, a: usize, b: usize, m: Mat4) {
        // A live block on exactly this pair extends in place.
        if let (Some(ia), Some(ib)) = (self.owner[a], self.owner[b]) {
            if ia == ib {
                let Some(Block::Two(ba, _, acc)) = self.blocks[ia].as_mut() else {
                    unreachable!("two owners share a block only when it is 2q");
                };
                let aligned = if *ba == a { m } else { transpose_qubits(m) };
                *acc = matmul4(aligned, *acc);
                return;
            }
        }
        // Otherwise: flush 2q blocks that would overflow the pair, then
        // absorb any remaining 1q operand blocks into a fresh block.
        for q in [a, b] {
            if let Some(idx) = self.owner[q] {
                if matches!(self.blocks[idx], Some(Block::Two(..))) {
                    self.flush_qubit(q);
                }
            }
        }
        // Same cost model as `push_1q`: a monomial 2q gate (CNOT, SWAP,
        // and every diagonal) absorbing a pending non-diagonal rotation
        // would densify; flush the rotation and keep the block cheap.
        // Pending *diagonal* blocks still merge in — that absorption is
        // what collapses `Rz·CX·Rz·CX·Rz` into one diagonal.
        if is_monomial4(&m) {
            for q in [a, b] {
                if let Some(idx) = self.owner[q] {
                    let nondiag = matches!(
                        self.blocks[idx].as_ref().expect("live block"),
                        Block::One(_, m1) if !is_diagonal2(m1)
                    );
                    if nondiag {
                        self.flush_qubit(q);
                    }
                }
            }
        }
        let mut acc = m;
        for (q, pos) in [(a, 0usize), (b, 1usize)] {
            if let Some(idx) = self.owner[q] {
                let Some(Block::One(_, m1)) = self.blocks[idx].take() else {
                    unreachable!("2q blocks were flushed above");
                };
                acc = matmul4(acc, embed2(m1, pos));
            }
        }
        let idx = self.blocks.len();
        self.owner[a] = Some(idx);
        self.owner[b] = Some(idx);
        self.blocks.push(Some(Block::Two(a, b, acc)));
    }

    fn finish(mut self, n_qubits: usize) -> Vec<FusedOp> {
        for q in 0..n_qubits {
            self.flush_qubit(q);
        }
        self.out
    }
}

/// Fuses `circuit` into an op stream with single-qubit runs and
/// two-qubit blocks collapsed.
pub fn fuse(circuit: &Circuit) -> Vec<FusedOp> {
    let mut col = Collector::new(circuit.n_qubits(), circuit.len());
    for gate in circuit {
        if matches!(gate, Gate::Barrier) {
            continue; // identity on a pure state
        }
        if let Some((q, m)) = matrix_1q(gate) {
            col.push_1q(q, m);
            continue;
        }
        if let Some((a, b, m)) = matrix_2q(gate) {
            col.push_2q(a, b, m);
            continue;
        }
        // Toffoli / Measure: flush operands and pass through.
        for q in gate.operands().iter() {
            col.flush_qubit(q.index());
        }
        col.out.push(FusedOp::Passthrough(*gate));
    }
    col.finish(circuit.n_qubits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_circuit::Qubit;

    #[test]
    fn collapses_same_qubit_runs() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).t(Qubit(0)).s(Qubit(0)).x(Qubit(1));
        let ops = fuse(&c);
        assert_eq!(ops.len(), 2);
        assert!(ops
            .iter()
            .all(|o| matches!(o, FusedOp::OneQ { q: 0, .. } | FusedOp::OneQ { q: 1, .. })));
    }

    #[test]
    fn cnot_sandwich_becomes_one_diagonal_block() {
        // The cu1 lowering: Rz·CX·Rz·CX·Rz on one pair → a single
        // diagonal 4×4.
        let lambda = 0.9;
        let mut c = Circuit::new(2);
        c.rz(Qubit(0), lambda / 2.0);
        c.cnot(Qubit(0), Qubit(1));
        c.rz(Qubit(1), -lambda / 2.0);
        c.cnot(Qubit(0), Qubit(1));
        c.rz(Qubit(1), lambda / 2.0);
        let ops = fuse(&c);
        assert_eq!(ops.len(), 1);
        let FusedOp::TwoQ { m, .. } = ops[0] else {
            panic!("expected a fused 2q block, got {:?}", ops[0]);
        };
        assert!(is_diagonal4(&m));
        // Up to global phase e^{-iλ/4} this is diag(1, 1, 1, e^{iλ}).
        let g = m[0][0];
        assert!((m[1][1] - g).abs() < 1e-15);
        assert!((m[2][2] - g).abs() < 1e-15);
        let ratio = m[3][3] * g.conj();
        let expect = Complex::cis(lambda);
        assert!((ratio - expect).abs() < 1e-12, "{ratio:?} vs {expect:?}");
    }

    #[test]
    fn overlapping_pairs_flush() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(1), Qubit(2));
        let ops = fuse(&c);
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0], FusedOp::TwoQ { .. }));
        assert!(matches!(ops[1], FusedOp::TwoQ { .. }));
    }

    #[test]
    fn disjoint_single_qubit_gates_float_past_two_qubit_gates() {
        let mut c = Circuit::new(3);
        c.h(Qubit(2));
        c.cnot(Qubit(0), Qubit(1));
        c.t(Qubit(2));
        let ops = fuse(&c);
        // h(2)·t(2) fuse even though a cnot sits between them.
        assert_eq!(ops.len(), 2);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, FusedOp::OneQ { q: 2, .. }))
                .count(),
            1
        );
    }

    #[test]
    fn barrier_disappears() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0)).barrier().h(Qubit(0));
        let ops = fuse(&c);
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn s_s_fuses_to_z() {
        let mut c = Circuit::new(1);
        c.s(Qubit(0)).s(Qubit(0));
        let ops = fuse(&c);
        let FusedOp::OneQ { m, .. } = ops[0] else {
            panic!("expected fused 1q op");
        };
        assert!(is_diagonal2(&m));
        assert!((m[0][0].re - 1.0).abs() < 1e-15);
        assert!((m[1][1].re + 1.0).abs() < 1e-15);
    }

    #[test]
    fn toffoli_flushes_and_passes_through() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.toffoli(Qubit(0), Qubit(1), Qubit(2));
        let ops = fuse(&c);
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0], FusedOp::OneQ { q: 0, .. }));
        assert!(matches!(ops[1], FusedOp::Passthrough(Gate::Toffoli(..))));
    }

    #[test]
    fn t_dressed_cnot_stays_monomial() {
        // The Toffoli lowering's `Tdg(t); CX(c,t); T(c)` shape: diagonal
        // phases merge into the CNOT block without densifying it.
        let mut c = Circuit::new(2);
        c.tdg(Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        c.t(Qubit(0));
        let ops = fuse(&c);
        assert_eq!(ops.len(), 1);
        let FusedOp::TwoQ { m, .. } = ops[0] else {
            panic!("expected a fused 2q block, got {:?}", ops[0]);
        };
        assert!(is_monomial4(&m));
        assert!(!is_diagonal4(&m));
    }

    #[test]
    fn hadamard_does_not_densify_permutation_blocks() {
        // `H(t); CX(c,t)`: absorbing the H would make a dense 4×4 that
        // costs ~2× the cheap kernels; the cost model emits the H
        // separately and keeps the CNOT monomial.
        let mut c = Circuit::new(2);
        c.h(Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        let ops = fuse(&c);
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0], FusedOp::OneQ { q: 1, .. }));
        let FusedOp::TwoQ { m, .. } = ops[1] else {
            panic!("expected a 2q block, got {:?}", ops[1]);
        };
        assert!(is_monomial4(&m));
    }

    #[test]
    fn rotation_after_monomial_block_flushes_it() {
        // `CX; H(t)`: the trailing rotation must not densify the cheap
        // block either — it flushes the block and starts a 1q run.
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        c.h(Qubit(1));
        let ops = fuse(&c);
        assert_eq!(ops.len(), 2);
        let FusedOp::TwoQ { m, .. } = ops[0] else {
            panic!("expected a 2q block, got {:?}", ops[0]);
        };
        assert!(is_monomial4(&m));
        assert!(matches!(ops[1], FusedOp::OneQ { q: 1, .. }));
    }

    #[test]
    fn dense_blocks_still_absorb_rotations() {
        // XX is dense regardless; merging the H into it saves a pass,
        // so absorption is kept for already-dense blocks.
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.xx(Qubit(0), Qubit(1), 0.7);
        let ops = fuse(&c);
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], FusedOp::TwoQ { .. }));
    }

    #[test]
    fn transpose_qubits_round_trips() {
        let (_, _, m) = matrix_2q(&Gate::Cnot(Qubit(0), Qubit(1))).unwrap();
        assert_eq!(transpose_qubits(transpose_qubits(m)), m);
        // CNOT with swapped roles is a different matrix.
        assert_ne!(transpose_qubits(m), m);
    }
}
