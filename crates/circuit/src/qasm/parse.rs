//! OpenQASM 2.0 parsing: the statement parser shared by [`parse_qasm`]
//! and [`QasmStream`](super::QasmStream) (grammar and limits in
//! [`crate::qasm`]).
//!
//! One byte cursor, [`Parser::next_statement`], walks the text: a
//! statement ends at `;` or a line break, a `//` comment runs to the
//! line break, and a line opening or continuing a `gate` definition is
//! skipped. Each statement is lexed in one pass — keyword or gate name,
//! optional `(angles)`, then `reg[index]` operands. [`parse_qasm`] runs
//! the cursor over the whole source, the stream over one line at a time.

use crate::circuit::Circuit;
use crate::clifford::normalize_angle;
use crate::gate::Gate;
use crate::qubit::Qubit;
use std::error::Error;
use std::fmt;

/// Deepest nesting of `(` and unary `-` in an angle expression. The
/// expression parser recurses per level, so the bound keeps a hostile
/// angle from overflowing the parsing thread's stack.
pub const MAX_ANGLE_DEPTH: usize = 64;

/// Widest `qreg` accepted (2²⁰ qubits). A whole-register `measure`
/// expands to one gate per qubit, so this caps that at 32 MiB; every
/// `tilt-benchmarks` generator stays far below it.
pub const MAX_QREG_WIDTH: usize = 1 << 20;

/// Why a QASM program failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseQasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QASM parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseQasmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseQasmError> {
    Err(ParseQasmError {
        line,
        message: message.into(),
    })
}

/// Parses an OpenQASM 2.0 program into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on unknown gates, malformed statements,
/// multiple quantum registers, a register wider than
/// [`MAX_QREG_WIDTH`], out-of-range qubit indices, or invalid angle
/// expressions (including ones nested deeper than [`MAX_ANGLE_DEPTH`]).
///
/// # Example
///
/// ```
/// use tilt_circuit::qasm::parse_qasm;
///
/// let c = parse_qasm(
///     "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0], q[2];\n",
/// )?;
/// assert_eq!(c.n_qubits(), 3);
/// assert_eq!(c.two_qubit_count(), 1);
/// # Ok::<(), tilt_circuit::qasm::ParseQasmError>(())
/// ```
pub fn parse_qasm(source: &str) -> Result<Circuit, ParseQasmError> {
    let mut parser = Parser::default();
    let mut gates: Vec<Gate> = Vec::new();
    let mut pos = 0;
    while let Some(stmt) = parser.next_statement(source, &mut pos)? {
        match stmt {
            Stmt::Gate(g) => gates.push(g),
            Stmt::MeasureAll(n) => gates.extend((0..n).map(|q| Gate::Measure(Qubit(q)))),
            Stmt::Nothing => {}
        }
    }
    let n = match parser.n_qubits {
        Some(n) => n,
        None if gates.is_empty() => 0,
        None => return err(1, "no qreg declaration found"),
    };
    Ok(Circuit::from_gates(n, gates))
}

/// What one statement adds to the gate sequence.
pub(super) enum Stmt {
    /// A declaration, `id`, or an ignored statement.
    Nothing,
    Gate(Gate),
    /// A whole-register `measure`: one `Measure` per qubit `0..n`.
    MeasureAll(usize),
}

/// Parser state carried from statement to statement.
#[derive(Default)]
pub(super) struct Parser {
    /// The `qreg` width, once declared.
    pub(super) n_qubits: Option<usize>,
    /// Line of the last statement parsed (1-based; 0 before any input).
    line: usize,
    /// Whether `line` already counts the line the cursor is on.
    in_line: bool,
    in_gate_def: bool,
    /// Highest qubit used before the `qreg`, checked when it arrives.
    max_early: Option<usize>,
}

/// Length of `line` before its first `//`.
pub(super) fn code_len(line: &[u8]) -> usize {
    let comment = line.windows(2).position(|w| w == b"//");
    comment.unwrap_or(line.len())
}

/// ASCII whitespace as `char::is_whitespace` has it (vertical tab too).
fn is_ws(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// Whether a statement ends at `b[i]`: `;`, a line break, `//`, or the
/// end of the text.
fn at_end(b: &[u8], i: usize) -> bool {
    match b.get(i) {
        None | Some(b';' | b'\n') => true,
        Some(b'/') => b.get(i + 1) == Some(&b'/'),
        Some(_) => false,
    }
}

fn statement_end(b: &[u8], mut i: usize) -> usize {
    while !at_end(b, i) {
        i += 1;
    }
    i
}

/// Scans the register reference `name[index]` (or a bare `name`) from
/// `src[from]` to the end of its statement, or to an earlier `stop`
/// byte: `,` in operand lists, `-` for the `->` of `measure`, `;` for
/// none. Returns the index (`None` for a bare name) and where the scan
/// stopped. The name is not checked (there is one register); text after
/// the last `]` is ignored.
fn register(
    src: &str,
    from: usize,
    stop: u8,
    line: usize,
) -> Result<(Option<usize>, usize), ParseQasmError> {
    let b = src.as_bytes();
    let (mut i, mut open, mut close) = (from, None, None);
    while !at_end(b, i) && !(b[i] == stop && (stop != b'-' || b.get(i + 1) == Some(&b'>'))) {
        match b[i] {
            b'[' if open.is_none() => open = Some(i),
            b']' => close = Some(i),
            _ => {}
        }
        i += 1;
    }
    let Some(open) = open else {
        return Ok((None, i));
    };
    let bad = |what: &str| err(line, format!("{what} `{}`", src[from..i].trim()));
    match close {
        Some(close) if close > open => match src[open + 1..close].trim().parse() {
            Ok(index) => Ok((Some(index), i)),
            Err(_) => bad("invalid index in"),
        },
        Some(_) => bad("malformed register reference"),
        None => bad("unclosed index in"),
    }
}

impl Parser {
    /// Parses the next statement of `src` at or after `*pos`, leaving
    /// `*pos` past it; `Ok(None)` once `src` is spent.
    pub(super) fn next_statement(
        &mut self,
        src: &str,
        pos: &mut usize,
    ) -> Result<Option<Stmt>, ParseQasmError> {
        let b = src.as_bytes();
        loop {
            if !self.in_line && *pos < b.len() {
                self.in_line = true;
                self.line += 1;
                self.skip_gate_def(src, pos);
            }
            // Skip whitespace and empty statements; a comment runs to
            // the line break.
            match b.get(*pos) {
                None => return Ok(None),
                Some(b'\n') => self.in_line = false,
                Some(b'/') if b.get(*pos + 1) == Some(&b'/') => {
                    let rest = b[*pos..].iter().position(|&c| c == b'\n');
                    *pos += rest.unwrap_or(b.len() - *pos);
                    continue;
                }
                Some(&c) if c == b';' || is_ws(c) => {}
                Some(_) => break,
            }
            *pos += 1;
        }
        let stmt = self.statement(src, pos)?;
        *pos += usize::from(b.get(*pos) == Some(&b';'));
        Ok(Some(stmt))
    }

    /// At a line start: moves `*pos` to the line break when the line
    /// opens or continues a `gate … { … }` definition (the built-in
    /// semantics of the gates it defines are used).
    fn skip_gate_def(&mut self, src: &str, pos: &mut usize) {
        let rest = &src.as_bytes()[*pos..];
        let first = rest.iter().position(|&b| b == b'\n' || !is_ws(b));
        if !self.in_gate_def && !rest[first.unwrap_or(rest.len())..].starts_with(b"gate") {
            return;
        }
        let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        let text = &src[*pos..*pos + code_len(&rest[..len])];
        if self.in_gate_def || text.trim().starts_with("gate ") {
            self.in_gate_def = !text.contains('}');
            *pos += len;
        }
    }

    /// The statement starting at `src[*pos]`; leaves `*pos` at its end.
    fn statement(&mut self, src: &str, pos: &mut usize) -> Result<Stmt, ParseQasmError> {
        let (b, line, start) = (src.as_bytes(), self.line, *pos);
        let mut word = start;
        while b
            .get(word)
            .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
        {
            word += 1;
        }
        match &src[start..word] {
            "OPENQASM" | "include" | "creg" => {
                *pos = statement_end(b, word);
                Ok(Stmt::Nothing)
            }
            "barrier" => {
                *pos = statement_end(b, word);
                Ok(Stmt::Gate(Gate::Barrier))
            }
            "qreg" => {
                let (size, end) = register(src, word, b';', line)?;
                *pos = end;
                let Some(size) = size else {
                    return err(line, "qreg needs an explicit size");
                };
                if size > MAX_QREG_WIDTH {
                    let limit = format!("exceeds the parser limit of {MAX_QREG_WIDTH}");
                    return err(line, format!("qreg of {size} qubits {limit}"));
                }
                if self.n_qubits.replace(size).is_some() {
                    return err(line, "multiple quantum registers are not supported");
                }
                match self.max_early.filter(|&q| q >= size) {
                    Some(q) => err(line, format!("qubit {q} outside qreg of size {size}")),
                    None => Ok(Stmt::Nothing),
                }
            }
            "measure" => {
                // `measure q[i] -> c[i]` or `measure q -> c`.
                let (index, end) = register(src, word, b'-', line)?;
                *pos = statement_end(b, end);
                match (index, self.n_qubits) {
                    (Some(i), _) => self.checked(Gate::Measure(Qubit(i))),
                    (None, Some(n)) => Ok(Stmt::MeasureAll(n)),
                    (None, None) => err(line, "measure before qreg"),
                }
            }
            _ => self.gate(src, pos),
        }
    }

    /// A gate application: `name[(angle, ...)] operand[, operand...]`.
    fn gate(&mut self, src: &str, pos: &mut usize) -> Result<Stmt, ParseQasmError> {
        let (b, line, start) = (src.as_bytes(), self.line, *pos);
        let mut i = start;
        while !at_end(b, i) && b[i] != b'(' && !is_ws(b[i]) {
            i += 1;
        }
        let name = &src[start..i];
        let mut params = Params::default();
        if b.get(i) == Some(&b'(') {
            i = params.parse(src, i, line)? + 1;
        }
        // Fixed-capacity operand list: nothing per statement allocates.
        let mut operands = [Qubit(0); 3];
        let mut n_operands = 0usize;
        loop {
            let (index, end) = register(src, i, b',', line)?;
            let part = &src[i..end];
            match index {
                Some(index) if n_operands < operands.len() => {
                    operands[n_operands] = Qubit(index);
                    n_operands += 1;
                }
                Some(_) => return err(line, format!("too many operands for `{name}`")),
                None if part.trim().is_empty() => {}
                None => {
                    let part = part.trim();
                    return err(
                        line,
                        format!("whole-register operand `{part}` not supported here"),
                    );
                }
            }
            i = end;
            if b.get(i) != Some(&b',') {
                break;
            }
            i += 1;
        }
        *pos = i;

        let angle = |k: usize| match params.get(k) {
            Some(a) => Ok(a),
            None => err(line, format!("`{name}` expects an angle parameter")),
        };
        let op = |k: usize| match operands[..n_operands].get(k) {
            Some(&q) => Ok(q),
            None => err(
                line,
                format!("`{name}` expects at least {} operand(s)", k + 1),
            ),
        };
        let gate = match name {
            "h" => Gate::H(op(0)?),
            "x" => Gate::X(op(0)?),
            "y" => Gate::Y(op(0)?),
            "z" => Gate::Z(op(0)?),
            "s" => Gate::S(op(0)?),
            "sdg" => Gate::Sdg(op(0)?),
            "t" => Gate::T(op(0)?),
            "tdg" => Gate::Tdg(op(0)?),
            "sx" => Gate::SqrtX(op(0)?),
            "sy" => Gate::SqrtY(op(0)?),
            "rx" => Gate::Rx(op(0)?, angle(0)?),
            "ry" => Gate::Ry(op(0)?, angle(0)?),
            "rz" | "u1" => Gate::Rz(op(0)?, angle(0)?),
            "cx" | "CX" => Gate::Cnot(op(0)?, op(1)?),
            "cz" => Gate::Cz(op(0)?, op(1)?),
            "cp" | "cu1" => Gate::Cphase(op(0)?, op(1)?, angle(0)?),
            "rzz" => Gate::Zz(op(0)?, op(1)?, angle(0)?),
            "rxx" => Gate::Xx(op(0)?, op(1)?, angle(0)?),
            "swap" => Gate::Swap(op(0)?, op(1)?),
            "ccx" => Gate::Toffoli(op(0)?, op(1)?, op(2)?),
            "reset" => Gate::Reset(op(0)?),
            "id" => return op(0).map(|_| Stmt::Nothing),
            _ => return err(line, format!("unknown gate `{name}`")),
        };
        self.checked(gate)
    }

    /// Range-checks `gate` against the register, or remembers its
    /// highest qubit until the register is declared.
    fn checked(&mut self, gate: Gate) -> Result<Stmt, ParseQasmError> {
        let operands = gate.operands();
        let mut qubits = operands.iter().map(|q| q.index());
        match self.n_qubits {
            Some(n) => {
                if let Some(q) = qubits.find(|&q| q >= n) {
                    return err(self.line, format!("qubit {q} outside qreg of size {n}"));
                }
            }
            None => self.max_early = self.max_early.max(qubits.max()),
        }
        Ok(Stmt::Gate(gate))
    }
}

/// Fixed-capacity parameter list (no `qelib1` gate takes more than
/// three angles; ours take at most one).
#[derive(Default)]
struct Params {
    values: [f64; 3],
    len: usize,
}

impl Params {
    fn get(&self, k: usize) -> Option<f64> {
        (k < self.len).then(|| self.values[k])
    }

    /// Parses the `,`-separated angles of the list opening at
    /// `src[open]`; returns the position of its matching `)`.
    fn parse(&mut self, src: &str, open: usize, line: usize) -> Result<usize, ParseQasmError> {
        let b = src.as_bytes();
        let (mut depth, mut start, mut i) = (0usize, open + 1, open);
        while !at_end(b, i) {
            match b[i] {
                b'(' => depth += 1,
                b')' if depth > 1 => depth -= 1,
                b')' | b',' => {
                    if self.len == self.values.len() {
                        return err(line, format!("too many parameters in `{}`", &src[open..i]));
                    }
                    self.values[self.len] = angle(src[start..i].trim(), line)?;
                    self.len += 1;
                    if b[i] == b')' {
                        return Ok(i);
                    }
                    start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        err(
            line,
            format!("unclosed parameter list in `{}`", &src[open..i]),
        )
    }
}

/// One angle, canonicalized so equivalent spellings (`rz(-3*pi/2)` vs
/// `rz(pi/2)`) build bit-identical gates — and therefore the same
/// circuit digest, cache key, and simulator selection. Kept out of line:
/// inlined, it bloats the per-statement path (measured ~10% slower).
#[inline(never)]
fn angle(text: &str, line: usize) -> Result<f64, ParseQasmError> {
    // Plain decimals (what the emitter and every mainstream toolchain
    // write) go straight to `f64::from_str`; the expression grammar
    // only runs for symbolic forms like `pi/2`.
    let raw = match text.parse::<f64>() {
        Ok(v) if v.is_finite() => v,
        _ => {
            let mut p = AngleExpr {
                s: text,
                pos: 0,
                line,
            };
            let v = p.binary(0, 0)?;
            if p.peek().is_some() {
                return err(line, format!("trailing input in angle `{text}`"));
            }
            v
        }
    };
    Ok(normalize_angle(raw))
}

/// Recursive-descent angle expressions: `expr := term (('+'|'-')
/// term)*`, `term := factor (('*'|'/') factor)*`, `factor := '-' factor
/// | '(' expr ')' | 'pi' | number`, with at most [`MAX_ANGLE_DEPTH`]
/// nested `-` and `(`.
struct AngleExpr<'a> {
    s: &'a str,
    pos: usize,
    line: usize,
}

impl AngleExpr<'_> {
    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let b = self.s.as_bytes();
        while b.get(self.pos).is_some_and(|&c| is_ws(c)) {
            self.pos += 1;
        }
        b.get(self.pos).copied()
    }

    /// An `expr` (`level` 0) or a `term` (`level` 1), `depth` levels
    /// deep.
    fn binary(&mut self, level: usize, depth: usize) -> Result<f64, ParseQasmError> {
        let ops = [[b'+', b'-'], [b'*', b'/']][level];
        let operand = |p: &mut Self| match level {
            0 => p.binary(1, depth),
            _ => p.factor(depth),
        };
        let mut v = operand(self)?;
        while let Some(op) = self.peek().filter(|c| ops.contains(c)) {
            self.pos += 1;
            let rhs = operand(self)?;
            v = match op {
                b'+' => v + rhs,
                b'-' => v - rhs,
                b'*' => v * rhs,
                _ => v / rhs,
            };
        }
        Ok(v)
    }

    fn factor(&mut self, depth: usize) -> Result<f64, ParseQasmError> {
        let c = self.peek();
        if matches!(c, Some(b'-' | b'(')) && depth == MAX_ANGLE_DEPTH {
            let message = format!("angle expression nested deeper than {MAX_ANGLE_DEPTH} levels");
            return err(self.line, message);
        }
        let b = self.s.as_bytes();
        match c {
            Some(b'-') => {
                self.pos += 1;
                Ok(-self.factor(depth + 1)?)
            }
            Some(b'(') => {
                self.pos += 1;
                let v = self.binary(0, depth + 1)?;
                if self.peek() != Some(b')') {
                    return err(self.line, "expected `)` in angle expression");
                }
                self.pos += 1;
                Ok(v)
            }
            Some(b'p' | b'P') if matches!(b.get(self.pos + 1), Some(b'i' | b'I')) => {
                self.pos += 2;
                Ok(std::f64::consts::PI)
            }
            Some(b'p' | b'P') => err(self.line, "expected `pi`"),
            Some(c) if c.is_ascii_digit() || c == b'.' => {
                let start = self.pos;
                while let Some(&c) = b.get(self.pos) {
                    let sign = matches!(c, b'+' | b'-') && matches!(b[self.pos - 1], b'e' | b'E');
                    if !(c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E') || sign) {
                        break;
                    }
                    self.pos += 1;
                }
                let num = &self.s[start..self.pos];
                num.parse()
                    .or_else(|_| err(self.line, format!("invalid number `{num}`")))
            }
            other => {
                let other = other.map(char::from);
                err(self.line, format!("unexpected `{other:?}` in angle"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qasm::to_qasm;
    use std::f64::consts::PI;

    #[test]
    fn parses_basic_program() {
        let c = parse_qasm(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\n\
             h q[0];\ncx q[0], q[3];\nmeasure q[3] -> c[3];\n",
        )
        .unwrap();
        assert_eq!(c.n_qubits(), 4);
        assert_eq!(c.len(), 3);
        assert_eq!(c.gates()[1], Gate::Cnot(Qubit(0), Qubit(3)));
    }

    #[test]
    fn parses_angle_expressions() {
        let c = parse_qasm("qreg q[1];\nrz(pi/2) q[0];\nrx(-pi/4) q[0];\nry(2*pi) q[0];\nrz(0.25) q[0];\nrx((pi+pi)/4) q[0];\n").unwrap();
        let angles: Vec<f64> = c
            .iter()
            .filter_map(|g| match *g {
                Gate::Rx(_, a) | Gate::Ry(_, a) | Gate::Rz(_, a) => Some(a),
                _ => None,
            })
            .collect();
        assert!((angles[0] - PI / 2.0).abs() < 1e-12);
        assert!((angles[1] + PI / 4.0).abs() < 1e-12);
        // `2*pi` canonicalizes to 0: angles are normalized into (-π, π].
        assert_eq!(angles[2], 0.0);
        assert!((angles[3] - 0.25).abs() < 1e-12);
        assert!((angles[4] - PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn normalizes_equivalent_angle_spellings_to_one_digest() {
        // The Clifford-classification satellite case: a wrapped negative
        // angle and its canonical spelling must build bit-identical
        // circuits, so digests (cache keys) and simulator selection
        // cannot diverge on equivalent programs.
        let a = parse_qasm("qreg q[1];\nrz(-3*pi/2) q[0];\n").unwrap();
        let b = parse_qasm("qreg q[1];\nrz(pi/2) q[0];\n").unwrap();
        assert_eq!(a.gates(), b.gates());
        assert_eq!(a.digest(), b.digest());
        assert!(a.gates()[0].is_clifford());
        // Decimal spellings of π multiples snap onto the same grid point.
        let c = parse_qasm("qreg q[1];\nrz(1.5707963267948966) q[0];\n").unwrap();
        assert_eq!(c.digest(), b.digest());
    }

    #[test]
    fn skips_gate_definitions_and_comments() {
        let c = parse_qasm(
            "OPENQASM 2.0;\nqreg q[2];\n// comment line\n\
             gate rxx(theta) a, b { h a; h b; cx a, b; rz(theta) b; cx a, b; h a; h b; }\n\
             rxx(pi/4) q[0], q[1]; // trailing comment\n",
        )
        .unwrap();
        assert_eq!(c.len(), 1);
        assert!(matches!(c.gates()[0], Gate::Xx(..)));
    }

    #[test]
    fn whole_register_measure_expands() {
        let c = parse_qasm("qreg q[3];\ncreg c[3];\nmeasure q -> c;\n").unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|g| matches!(g, Gate::Measure(_))));
    }

    #[test]
    fn rejects_unknown_gate() {
        let e = parse_qasm("qreg q[1];\nfrobnicate q[0];\n").unwrap_err();
        assert!(e.message.contains("frobnicate"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_out_of_range_qubit() {
        let e = parse_qasm("qreg q[2];\nh q[5];\n").unwrap_err();
        assert!(e.message.contains("outside"));
    }

    #[test]
    fn rejects_out_of_range_measure() {
        let e = parse_qasm("qreg q[2];\ncreg c[2];\nmeasure q[5] -> c[0];\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("outside qreg"), "{e}");
    }

    #[test]
    fn rejects_gates_beyond_a_trailing_qreg() {
        let e = parse_qasm("h q[0];\ncx q[1], q[4];\nqreg q[3];\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("qubit 4 outside qreg of size 3"), "{e}");
        assert_eq!(parse_qasm("h q[2];\nqreg q[3];\n").unwrap().n_qubits(), 3);
    }

    #[test]
    fn bounds_the_register_width() {
        let e = parse_qasm("qreg q[100000000000];\ncreg c[1];\nmeasure q -> c;\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("exceeds the parser limit"), "{e}");
        let widest = format!("qreg q[{MAX_QREG_WIDTH}];\nh q[{}];\n", MAX_QREG_WIDTH - 1);
        assert_eq!(parse_qasm(&widest).unwrap().n_qubits(), MAX_QREG_WIDTH);
    }

    #[test]
    fn bounds_angle_nesting() {
        let nested = |depth: usize| {
            let angle = format!("{}pi{}", "(".repeat(depth), ")".repeat(depth));
            parse_qasm(&format!("qreg q[1];\nrz({angle}) q[0];\n"))
        };
        assert!(nested(MAX_ANGLE_DEPTH).is_ok());
        let e = nested(MAX_ANGLE_DEPTH + 1).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("nested deeper"), "{e}");
        let minus =
            |depth: usize| parse_qasm(&format!("qreg q[1];\nrz({}pi) q[0];\n", "-".repeat(depth)));
        assert_eq!(
            minus(MAX_ANGLE_DEPTH).unwrap(),
            minus(MAX_ANGLE_DEPTH - 2).unwrap()
        );
        assert!(minus(MAX_ANGLE_DEPTH + 1).is_err());
    }

    #[test]
    fn rejects_multiple_qregs() {
        let e = parse_qasm("qreg q[2];\nqreg r[2];\n").unwrap_err();
        assert!(e.message.contains("multiple"));
    }

    #[test]
    fn round_trips_the_emitters_output() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0))
            .t(Qubit(1))
            .cnot(Qubit(0), Qubit(1))
            .cphase(Qubit(1), Qubit(2), PI / 8.0)
            .zz(Qubit(0), Qubit(2), 0.3)
            .xx(Qubit(1), Qubit(2), 0.7)
            .swap(Qubit(0), Qubit(2))
            .toffoli(Qubit(0), Qubit(1), Qubit(2))
            .barrier()
            .measure(Qubit(2));
        let parsed = parse_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn empty_source_gives_empty_circuit() {
        let c = parse_qasm("").unwrap();
        assert_eq!(c.n_qubits(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn error_display_mentions_line() {
        let e = parse_qasm("qreg q[1];\nrx() q[0];\n").unwrap_err();
        assert!(e.to_string().contains("line 2"));
    }
}
