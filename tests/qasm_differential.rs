//! Differential tests: the byte-level QASM front end (`parse_qasm` and
//! `QasmStream`) against the string-splitting parser it replaced, kept
//! below as [`oracle`] exactly as it shipped.
//!
//! Two generators drive the comparison:
//!
//! * **Reformatted emitter output** — random circuits rendered with
//!   `to_qasm`, then respelled: CRLF endings, tabs and extra spaces,
//!   `//` comments, several statements per line, and angles rewritten as
//!   `pi` expressions. All three parsers must agree on the register
//!   width and on every gate, angles bit for bit.
//! * **Token soup** — the QASM-like soup of `parser_robustness`, joined
//!   by spaces and newlines. `Ok`/`Err` must agree, errors on the same
//!   line, and accepted programs on the same gates.
//!
//! Inputs the two parsers treat differently, each pinned by a test at
//! the end of this file. Neither generator produces the first three.
//! The last two are programs with a qubit outside the register, which
//! the oracle accepted: the soup requires the new parser to reject them
//! with the "outside qreg" error, at the offending line or before a
//! later, unrelated error the oracle reported instead:
//!
//! * keyword prefixes — the oracle matched `qreg`, `creg`, `measure`,
//!   `barrier`, `include` and `OPENQASM` as string prefixes (`qregX[3]`
//!   declared a register); keywords are now whole identifiers, so such
//!   statements fail as unknown gates;
//! * non-ASCII whitespace — the oracle split tokens on any Unicode
//!   whitespace; only ASCII whitespace separates tokens now;
//! * parameter lists — the oracle cut `name(…)` at the first whitespace
//!   or `)`, rejecting e.g. `rx((pi) / 2)`; the list now runs to the
//!   matching `)`, so that spelling parses;
//! * out-of-range `measure q[i]` — the oracle accepted it (and tripped
//!   `Circuit::from_gates`' debug assertion); it is now rejected with
//!   the "outside qreg" error every other gate gets;
//! * gates before a trailing `qreg` — the oracle never range-checked
//!   them; an index beyond the late register is now rejected at the
//!   `qreg` line.
//!
//! Empty operands between commas (`cx q[0],, q[1]`) and text after an
//! index's `]` are still accepted, as before.

use proptest::prelude::*;
use std::panic::catch_unwind;
use tilt::circuit::qasm::{self, QasmStream};
use tilt::circuit::{Circuit, Gate, Qubit};

/// What a parser made of a program: the register width and the gates
/// (`Debug`-rendered, so angles compare bit for bit), or the error line.
#[derive(Debug, PartialEq)]
enum Outcome {
    Ok(usize, String),
    Err(usize),
}

fn new_parse(src: &str) -> Outcome {
    match qasm::parse_qasm(src) {
        Ok(c) => Outcome::Ok(c.n_qubits(), format!("{:?}", c.gates())),
        Err(e) => Outcome::Err(e.line),
    }
}

fn new_parse_error(src: &str) -> String {
    qasm::parse_qasm(src).unwrap_err().message
}

/// The oracle's verdict; `None` when it accepted a program with a qubit
/// outside the register (its debug builds panic in `Circuit::from_gates`
/// on those), which the new parser must reject.
fn oracle_parse(src: &str) -> Option<Outcome> {
    match catch_unwind(|| oracle::parse_qasm(src)) {
        Ok(Ok(c))
            if c.iter()
                .all(|g| g.qubits().iter().all(|q| q.index() < c.n_qubits())) =>
        {
            Some(Outcome::Ok(c.n_qubits(), format!("{:?}", c.gates())))
        }
        Ok(Err(e)) => Some(Outcome::Err(e.line)),
        Ok(Ok(_)) | Err(_) => None,
    }
}

/// `QasmStream`'s verdict: the width and gates, or the error line and
/// message.
fn stream_parse(src: &str) -> Result<(usize, String), (usize, String)> {
    let mut stream = QasmStream::new(src.as_bytes());
    let parse_err = |e: qasm::QasmStreamError| match e {
        qasm::QasmStreamError::Parse(e) => (e.line, e.message),
        other => panic!("in-memory reads cannot fail: {other}"),
    };
    let n = stream.require_n_qubits().map_err(parse_err)?;
    let gates = stream.collect::<Result<Vec<_>, _>>().map_err(parse_err)?;
    Ok((n, format!("{gates:?}")))
}

/// Asserts the new parser matches the oracle on `src`, and that the
/// stream agrees with the new parser wherever streaming applies.
fn assert_agree(src: &str) {
    let new = new_parse(src);
    let oracle = oracle_parse(src);
    if oracle.as_ref() != Some(&new) {
        // Only the new range checks (`measure` targets, gates before a
        // trailing `qreg`) may part ways: they reject a program the
        // oracle accepted, or failed on only at a later line.
        let earlier = match (&new, &oracle) {
            (Outcome::Err(_), None) => true,
            (Outcome::Err(line), Some(Outcome::Err(oracle_line))) => line < oracle_line,
            _ => false,
        };
        assert!(
            earlier && new_parse_error(src).contains("outside qreg"),
            "new {new:?}, oracle {oracle:?}, source:\n{src}"
        );
    }
    match (&new, stream_parse(src)) {
        (Outcome::Ok(n, gates), Ok(streamed)) => {
            assert_eq!(&(*n, gates.clone()), &streamed, "source:\n{src}");
        }
        // The stream alone needs the `qreg` before the first gate.
        (Outcome::Ok(..), Err((_, message))) => {
            assert!(message.contains("qreg"), "{message}\nsource:\n{src}");
        }
        // The stream fails no later than the whole-program parse, except
        // that a missing `qreg` is reported at line 1 only by the latter.
        (Outcome::Err(line), Err((stream_line, _))) => assert!(
            stream_line <= *line || new_parse_error(src).contains("no qreg"),
            "source:\n{src}"
        ),
        (Outcome::Err(_), Ok(_)) => panic!("stream accepted:\n{src}"),
    }
}

fn gate_strategy(n: usize) -> impl Strategy<Value = Gate> {
    let q = move || (0..n).prop_map(Qubit);
    let pair = move || {
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| (Qubit(a), Qubit(b)))
    };
    let angle = || (-10.0f64..10.0).prop_map(tilt::circuit::clifford::normalize_angle);
    prop_oneof![
        q().prop_map(Gate::H),
        q().prop_map(Gate::Sdg),
        q().prop_map(Gate::SqrtX),
        q().prop_map(Gate::SqrtY),
        (q(), angle()).prop_map(|(q, a)| Gate::Rx(q, a)),
        (q(), angle()).prop_map(|(q, a)| Gate::Rz(q, a)),
        pair().prop_map(|(a, b)| Gate::Cnot(a, b)),
        (pair(), angle()).prop_map(|((a, b), t)| Gate::Cphase(a, b, t)),
        (pair(), angle()).prop_map(|((a, b), t)| Gate::Zz(a, b, t)),
        (pair(), angle()).prop_map(|((a, b), t)| Gate::Xx(a, b, t)),
        pair().prop_map(|(a, b)| Gate::Swap(a, b)),
        (0..n)
            .prop_flat_map(move |a| (Just(a), 0..n, 0..n))
            .prop_filter("distinct", |(a, b, c)| a != b && b != c && a != c)
            .prop_map(|(a, b, c)| Gate::Toffoli(Qubit(a), Qubit(b), Qubit(c))),
        q().prop_map(Gate::Measure),
        q().prop_map(Gate::Reset),
        Just(Gate::Barrier),
    ]
}

/// Random choices for one reformatting pass, consumed in order.
struct Choices(std::vec::IntoIter<u8>);

impl Choices {
    fn pick(&mut self, n: u8) -> u8 {
        self.0.next().map_or(0, |c| c % n)
    }

    /// A run of one to three spaces or tabs.
    fn space(&mut self) -> &'static str {
        ["\t", "  ", " \t ", " "][usize::from(self.pick(4))]
    }
}

/// Rewrites a decimal angle as an expression over `pi` (any value will
/// do: the parsers must agree with each other, not with the circuit).
fn respell_angle(angle: &str, c: &mut Choices) -> String {
    match c.pick(6) {
        0 => format!("{angle}*pi/pi"),
        1 => format!("-(-{angle})"),
        2 => format!("({angle}/pi)*pi"),
        3 => format!("pi-pi+{angle}"),
        4 => format!("2*{angle}/2"),
        _ => angle.to_string(),
    }
}

/// Respells one emitted statement line: spacing around operands and
/// parameters, and angle expressions.
fn respell_statement(line: &str, c: &mut Choices) -> String {
    let stmt = line.trim_end_matches(';');
    let (head, operands) = stmt.split_once(' ').unwrap_or((stmt, ""));
    let head = match head.split_once('(') {
        Some((name, rest)) => {
            let angle = rest.trim_end_matches(')');
            let spelled = respell_angle(angle, c);
            // Only a plain decimal may be padded inside its parentheses:
            // the oracle's parameter cut stops at whitespace.
            if spelled == angle && c.pick(2) == 0 {
                format!("{name}( {spelled} )")
            } else {
                format!("{name}({spelled})")
            }
        }
        None => head.to_string(),
    };
    let mut out = head;
    out.push_str(c.space());
    for (i, operand) in operands.split(", ").enumerate() {
        if i > 0 {
            out.push_str([",", ", ", " ,\t"][usize::from(c.pick(3))]);
        }
        match (operand.split_once('['), c.pick(3)) {
            (Some((reg, index)), 0) => {
                out.push_str(&format!("{reg}[ {}", index.replace(']', " ]")));
            }
            _ => out.push_str(operand),
        }
    }
    out.push(';');
    out
}

/// Reformats `to_qasm` output without changing what it means.
fn reformat(text: &str, choices: Vec<u8>) -> String {
    let mut c = Choices(choices.into_iter());
    let mut out = String::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let is_statement = |l: &str| {
            !(l.starts_with("gate ") || l.starts_with("OPENQASM") || l.starts_with("include"))
        };
        let mut joined = if is_statement(line) {
            respell_statement(line, &mut c)
        } else {
            line.to_string()
        };
        // Several statements per line.
        while is_statement(line) && c.pick(3) == 0 {
            match lines.next_if(|l| is_statement(l)) {
                Some(next) => {
                    joined.push_str(c.space());
                    joined.push_str(&respell_statement(next, &mut c));
                }
                None => break,
            }
        }
        if c.pick(3) == 0 {
            out.push_str(c.space());
        }
        out.push_str(&joined);
        match c.pick(4) {
            0 => out.push_str(" // trailing; comment q[9]"),
            1 => out.push_str(c.space()),
            _ => {}
        }
        out.push_str(if c.pick(2) == 0 { "\r\n" } else { "\n" });
        if c.pick(6) == 0 {
            out.push_str("// a comment line: h q[0];\n");
        }
    }
    out
}

fn soup_token() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("qreg".to_string()),
        Just("creg".to_string()),
        Just("q[3]".to_string()),
        Just("q[".to_string()),
        Just("cx".to_string()),
        Just("rx(pi/2)".to_string()),
        Just("rx()".to_string()),
        Just("measure".to_string()),
        Just("->".to_string()),
        Just(";".to_string()),
        Just("{".to_string()),
        Just("}".to_string()),
        Just("gate".to_string()),
        Just("(".to_string()),
        Just(")".to_string()),
        Just(",".to_string()),
        "[a-z0-9]{1,4}".prop_map(|s| s),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reformatted_emitter_output_parses_identically(
        n in 1usize..12,
        gates in prop::collection::vec(gate_strategy(12), 0..30),
        choices in prop::collection::vec(0u8..255, 0..400),
    ) {
        let gates: Vec<Gate> = gates
            .into_iter()
            .map(|g| g.map_qubits(|q| Qubit(q.index() % n)))
            .filter(|g| {
                let qs = g.qubits();
                qs.iter().collect::<std::collections::HashSet<_>>().len() == qs.len()
            })
            .collect();
        let text = reformat(&qasm::to_qasm(&Circuit::from_gates(n, gates)), choices);
        prop_assert!(matches!(new_parse(&text), Outcome::Ok(..)), "source:\n{}", text);
        assert_agree(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn token_soup_agrees(
        tokens in prop::collection::vec((soup_token(), 0u8..4), 0..30),
    ) {
        let mut input = String::new();
        for (token, sep) in &tokens {
            input.push_str(token);
            input.push(if *sep == 0 { '\n' } else { ' ' });
        }
        assert_agree(&input);
    }
}

/// Programs that exercise the soup's rare accepting paths, one per line
/// shape the oracle accepted.
#[test]
fn hand_picked_programs_agree() {
    for src in [
        "qreg q[4];\ncx q[0],, q[3];\n",
        "qreg q[4];\nh q[1] junk;\nmeasure q[2] junk -> c[2];\n",
        "qreg q[4];\nh ( q[1] );\nrx(pi/2)q[0];\nrx(pi)junk q[1];\n",
        "h q[1];\nqreg q[4];\n",
        "qreg q[3];\nmeasure -> c;\nmeasure q;\nbarrier anything (at all;\n",
        "qreg q[2];\nid q[0];\nrz(1e400) q[0];\nrz(.5e-1) q[1];\nrz(+0.5) q[1];\n",
        "qreg q[2];\ngate foo a {\n h a;\n}\nh q[0];\n",
        "qreg q[2];\nrx(((((pi))))/((2))) q[0];\nry(-pi--pi) q[1];\n",
        "qreg [5];\ncx q[ +4 ], q[0];\n",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ncreg c[1];\n",
    ] {
        assert_agree(src);
    }
    for src in [
        "qreg q[2];\nh;\n",
        "qreg q[2];\nid;\n",
        "qreg q[2];\nh q;\n",
        "qreg q[2];\nh q[0], q[1], q[0], q[1];\n",
        "qreg q[2];\nrx(pi q[0];\n",
        "qreg q[2];\nrx(1,2,3,4) q[0];\n",
        "qreg q[2];\nh q[0]];\n",
        "qreg q[2];\nh q]0[;\n",
        "qreg q[2];\nh q[-1];\n",
        "qreg q;\n",
        "qreg q[99999999999999999999999];\n",
        "h q[0];\n",
        "measure q;\nqreg q[2];\n",
        "qreg q[2];\nrx(p) q[0];\nrx(1..2) q[0];\n",
    ] {
        assert_agree(src);
        assert!(qasm::parse_qasm(src).is_err(), "{src}");
    }
}

#[test]
fn keyword_prefixes_are_no_longer_keywords() {
    for src in [
        "qregX[3];\n",
        "qreg q[2];\nbarrierX;\n",
        "qreg q[2];\ncregs c[2];\n",
        "qreg q[2];\nmeasureq[0];\n",
        "OPENQASM2.0;\n",
    ] {
        assert!(oracle::parse_qasm(src).is_ok(), "{src}");
        let e = qasm::parse_qasm(src).unwrap_err();
        assert!(e.message.contains("unknown gate"), "{src}: {e}");
    }
}

#[test]
fn only_ascii_whitespace_separates_tokens() {
    let src = "qreg q[2];\nh\u{a0}q[0];\n";
    assert!(oracle::parse_qasm(src).is_ok());
    assert!(qasm::parse_qasm(src).is_err());
}

#[test]
fn parameter_lists_run_to_the_matching_paren() {
    let src = "qreg q[1];\nrx((pi) / 2) q[0];\n";
    assert!(oracle::parse_qasm(src).is_err());
    let c = qasm::parse_qasm(src).unwrap();
    assert_eq!(c.gates(), [Gate::Rx(Qubit(0), std::f64::consts::FRAC_PI_2)]);
}

#[test]
fn out_of_range_qubits_the_oracle_accepted_are_rejected() {
    for (src, line) in [
        ("qreg q[2];\nmeasure q[5] -> c[0];\n", 2),
        ("h q[3];\nqreg q[2];\n", 2),
    ] {
        assert_eq!(oracle_parse(src), None, "{src}");
        let e = qasm::parse_qasm(src).unwrap_err();
        assert_eq!(e.line, line, "{src}");
        assert!(e.message.contains("outside qreg"), "{src}: {e}");
    }
}

// The string-splitting parser `parse_qasm` used before the byte-level
// front end, unchanged apart from its `use` paths.
mod oracle {
    //! OpenQASM 2.0 parsing.
    //!
    //! Supports the subset the emitter produces plus common variants: a single
    //! quantum register, the `qelib1` gates used by the benchmarks
    //! (`h x y z s sdg t tdg sx sy rx ry rz cx cz cp/cu1 rzz rxx swap ccx id`),
    //! `measure`, `barrier`, custom `gate` definition blocks (skipped — the
    //! built-in semantics are used), and arithmetic angle expressions over
    //! `pi` with `+ - * /` and parentheses.

    use std::error::Error;
    use std::fmt;
    use tilt::circuit::Circuit;
    use tilt::circuit::Gate;
    use tilt::circuit::Qubit;

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
    /// multiple quantum registers, out-of-range qubit indices, or invalid
    /// angle expressions.
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
        let mut n_qubits: Option<usize> = None;
        let mut gates: Vec<Gate> = Vec::new();
        let mut in_gate_def = false;

        for (lineno, raw_line) in source.lines().enumerate() {
            let lineno = lineno + 1;
            // Strip line comments.
            let line = match raw_line.find("//") {
                Some(i) => &raw_line[..i],
                None => raw_line,
            };

            // Skip custom gate-definition bodies (we know the semantics of the
            // gates the emitter defines).
            if in_gate_def {
                if line.contains('}') {
                    in_gate_def = false;
                }
                continue;
            }
            let trimmed = line.trim();
            if trimmed.starts_with("gate ") {
                if !trimmed.contains('}') {
                    in_gate_def = true;
                }
                continue;
            }

            for stmt in line.split(';') {
                let stmt = stmt.trim();
                if stmt.is_empty() {
                    continue;
                }
                parse_statement(stmt, lineno, &mut n_qubits, &mut gates)?;
            }
        }

        let n = match n_qubits {
            Some(n) => n,
            None if gates.is_empty() => 0,
            None => return err(1, "no qreg declaration found"),
        };
        Ok(Circuit::from_gates(n, gates))
    }

    pub(super) fn parse_statement(
        stmt: &str,
        line: usize,
        n_qubits: &mut Option<usize>,
        gates: &mut Vec<Gate>,
    ) -> Result<(), ParseQasmError> {
        if stmt.starts_with("OPENQASM") || stmt.starts_with("include") || stmt.starts_with("creg") {
            return Ok(());
        }
        if let Some(rest) = stmt.strip_prefix("qreg") {
            let (_, size) = parse_register_ref(rest, line)?;
            let size = size.ok_or_else(|| ParseQasmError {
                line,
                message: "qreg needs an explicit size".into(),
            })?;
            if n_qubits.replace(size).is_some() {
                return err(line, "multiple quantum registers are not supported");
            }
            return Ok(());
        }
        if let Some(rest) = stmt.strip_prefix("measure") {
            // `measure q[i] -> c[i]` or `measure q -> c`.
            let target = rest.split("->").next().unwrap_or("");
            let (_, index) = parse_register_ref(target, line)?;
            match index {
                Some(i) => gates.push(Gate::Measure(Qubit(i))),
                None => {
                    let n = n_qubits.ok_or_else(|| ParseQasmError {
                        line,
                        message: "measure before qreg".into(),
                    })?;
                    gates.extend((0..n).map(|i| Gate::Measure(Qubit(i))));
                }
            }
            return Ok(());
        }
        if stmt.starts_with("barrier") {
            gates.push(Gate::Barrier);
            return Ok(());
        }

        // General gate application: name[(params)] operand[, operand...]
        let (head, operand_text) = match stmt.find(|c: char| c.is_whitespace()) {
            Some(i) if !stmt[..i].contains('(') || stmt[..i].contains(')') => {
                (&stmt[..i], &stmt[i..])
            }
            _ => match stmt.find(')') {
                // Parameterized with possible space inside parens.
                Some(i) => (&stmt[..=i], &stmt[i + 1..]),
                None => return err(line, format!("malformed statement `{stmt}`")),
            },
        };

        let (name, params) = match head.find('(') {
            Some(i) => {
                let close = head.rfind(')').ok_or_else(|| ParseQasmError {
                    line,
                    message: format!("unclosed parameter list in `{head}`"),
                })?;
                (&head[..i], parse_params(&head[i + 1..close], line)?)
            }
            None => (head, Params::default()),
        };
        let name = name.trim();

        // Fixed-capacity operand list: the service parses millions of these
        // statements, and a heap `Vec` per gate dominated the hot path.
        let mut operands = [Qubit(0); 3];
        let mut n_operands = 0usize;
        for part in operand_text.split(',') {
            if part.trim().is_empty() {
                continue;
            }
            let (_, index) = parse_register_ref(part, line)?;
            let index = index.ok_or_else(|| ParseQasmError {
                line,
                message: format!("whole-register operand `{part}` not supported here"),
            })?;
            if n_operands == operands.len() {
                return err(line, format!("too many operands for `{name}`"));
            }
            operands[n_operands] = Qubit(index);
            n_operands += 1;
        }

        let angle = |k: usize| -> Result<f64, ParseQasmError> {
            params.get(k).ok_or_else(|| ParseQasmError {
                line,
                message: format!("`{name}` expects an angle parameter"),
            })
        };
        let op = |k: usize| -> Result<Qubit, ParseQasmError> {
            if k < n_operands {
                Ok(operands[k])
            } else {
                Err(ParseQasmError {
                    line,
                    message: format!("`{name}` expects at least {} operand(s)", k + 1),
                })
            }
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
            "id" => return Ok(()),
            other => return err(line, format!("unknown gate `{other}`")),
        };
        if let Some(n) = *n_qubits {
            for q in gate.operands().iter() {
                if q.index() >= n {
                    return err(
                        line,
                        format!("qubit {} outside qreg of size {n}", q.index()),
                    );
                }
            }
        }
        gates.push(gate);
        Ok(())
    }

    /// Parses `name` or `name[index]`, returning the (borrowed) register
    /// name and the optional index. Allocation-free: this runs once per
    /// operand of every statement.
    fn parse_register_ref(
        text: &str,
        line: usize,
    ) -> Result<(&str, Option<usize>), ParseQasmError> {
        let text = text.trim();
        match text.find('[') {
            Some(i) => {
                let close = text.rfind(']').ok_or_else(|| ParseQasmError {
                    line,
                    message: format!("unclosed index in `{text}`"),
                })?;
                if close <= i {
                    return Err(ParseQasmError {
                        line,
                        message: format!("malformed register reference `{text}`"),
                    });
                }
                let index: usize =
                    text[i + 1..close]
                        .trim()
                        .parse()
                        .map_err(|_| ParseQasmError {
                            line,
                            message: format!("invalid index in `{text}`"),
                        })?;
                Ok((text[..i].trim_end(), Some(index)))
            }
            None => Ok((text, None)),
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
    }

    fn parse_params(text: &str, line: usize) -> Result<Params, ParseQasmError> {
        let mut params = Params::default();
        for part in text.split(',') {
            if params.len == params.values.len() {
                return err(line, format!("too many parameters in `{text}`"));
            }
            let part = part.trim();
            // Fast path: the emitter (and every mainstream toolchain)
            // writes plain decimal angles; the expression grammar only
            // runs for symbolic forms like `pi/2`.
            let raw = match part.parse::<f64>() {
                Ok(v) if v.is_finite() => v,
                _ => parse_angle_expr(part, line)?,
            };
            // Canonicalize so equivalent spellings (`rz(-3*pi/2)` vs
            // `rz(pi/2)`) build bit-identical gates — and therefore the
            // same circuit digest, cache key, and simulator selection.
            params.values[params.len] = tilt::circuit::clifford::normalize_angle(raw);
            params.len += 1;
        }
        Ok(params)
    }

    /// Tiny recursive-descent parser for angle expressions:
    /// `expr := term (('+'|'-') term)*`, `term := factor (('*'|'/') factor)*`,
    /// `factor := ['-'] (number | 'pi' | '(' expr ')')`.
    fn parse_angle_expr(text: &str, line: usize) -> Result<f64, ParseQasmError> {
        struct P<'a> {
            chars: std::iter::Peekable<std::str::Chars<'a>>,
            line: usize,
        }
        impl P<'_> {
            fn skip_ws(&mut self) {
                while self.chars.peek().is_some_and(|c| c.is_whitespace()) {
                    self.chars.next();
                }
            }
            fn expr(&mut self) -> Result<f64, ParseQasmError> {
                let mut v = self.term()?;
                loop {
                    self.skip_ws();
                    match self.chars.peek() {
                        Some('+') => {
                            self.chars.next();
                            v += self.term()?;
                        }
                        Some('-') => {
                            self.chars.next();
                            v -= self.term()?;
                        }
                        _ => return Ok(v),
                    }
                }
            }
            fn term(&mut self) -> Result<f64, ParseQasmError> {
                let mut v = self.factor()?;
                loop {
                    self.skip_ws();
                    match self.chars.peek() {
                        Some('*') => {
                            self.chars.next();
                            v *= self.factor()?;
                        }
                        Some('/') => {
                            self.chars.next();
                            v /= self.factor()?;
                        }
                        _ => return Ok(v),
                    }
                }
            }
            fn factor(&mut self) -> Result<f64, ParseQasmError> {
                self.skip_ws();
                match self.chars.peek() {
                    Some('-') => {
                        self.chars.next();
                        Ok(-self.factor()?)
                    }
                    Some('(') => {
                        self.chars.next();
                        let v = self.expr()?;
                        self.skip_ws();
                        if self.chars.next() != Some(')') {
                            return err(self.line, "expected `)` in angle expression");
                        }
                        Ok(v)
                    }
                    Some('p') | Some('P') => {
                        let p = self.chars.next();
                        let i = self.chars.next();
                        if !matches!((p, i), (Some('p') | Some('P'), Some('i') | Some('I'))) {
                            return err(self.line, "expected `pi`");
                        }
                        Ok(std::f64::consts::PI)
                    }
                    Some(c) if c.is_ascii_digit() || *c == '.' => {
                        let mut num = String::new();
                        while let Some(&c) = self.chars.peek() {
                            let exp_sign = (c == '+' || c == '-') && num.ends_with(['e', 'E']);
                            if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || exp_sign {
                                num.push(c);
                                self.chars.next();
                            } else {
                                break;
                            }
                        }
                        num.parse().map_err(|_| ParseQasmError {
                            line: self.line,
                            message: format!("invalid number `{num}`"),
                        })
                    }
                    other => err(self.line, format!("unexpected `{other:?}` in angle")),
                }
            }
        }
        let mut p = P {
            chars: text.chars().peekable(),
            line,
        };
        let v = p.expr()?;
        p.skip_ws();
        if p.chars.next().is_some() {
            return err(line, format!("trailing input in angle `{text}`"));
        }
        Ok(v)
    }
}
