//! OpenQASM 2.0 interchange: emission ([`to_qasm`]) and parsing
//! ([`parse_qasm`], [`QasmStream`]).
//!
//! LinQ's front end accepts "high-level quantum programs" (§IV of the
//! paper); OpenQASM 2.0 is the lingua franca for that, so the IR can be
//! round-tripped through text:
//!
//! ```
//! use tilt_circuit::{qasm, Circuit, Qubit};
//!
//! let mut c = Circuit::new(2);
//! c.h(Qubit(0));
//! c.cnot(Qubit(0), Qubit(1));
//! let text = qasm::to_qasm(&c);
//! let back = qasm::parse_qasm(&text)?;
//! assert_eq!(back, c);
//! # Ok::<(), tilt_circuit::qasm::ParseQasmError>(())
//! ```
//!
//! # Accepted subset
//!
//! Both front ends share one byte-level statement parser. A line is cut
//! at `//`; a line starting with `gate ` opens a custom definition that
//! is skipped through its closing `}` (the built-in semantics are used).
//! Every other line is split on `;` into statements:
//!
//! * `OPENQASM …`, `include …`, `creg …` — ignored;
//! * `qreg name[n]` — the single quantum register, at most
//!   [`MAX_QREG_WIDTH`] qubits;
//! * `measure name[i] -> …` or `measure name -> …` — one qubit, or one
//!   `Measure` per qubit of the register;
//! * `barrier …` — a full barrier;
//! * `gate[(angle, …)] name[i], …` for the `qelib1` gates the
//!   benchmarks use (`h x y z s sdg t tdg sx sy rx ry rz u1 cx CX cz cp
//!   cu1 rzz rxx swap ccx reset id`).
//!
//! Keywords and gate names are matched as whole identifiers; tokens are
//! separated by ASCII whitespace. Register names are not checked (there
//! is one register) and text after an index's `]` is ignored. Qubit
//! indices are range-checked against the register, including `measure`
//! targets and gates written before a trailing `qreg`. An angle is a
//! decimal (`f64::from_str`) or an expression over `pi` with
//! `+ - * /`, unary `-` and parentheses, nested at most
//! [`MAX_ANGLE_DEPTH`] deep; every angle is canonicalized with
//! [`normalize_angle`](crate::clifford::normalize_angle).

mod emit;
mod parse;
pub mod stream;

pub use emit::{to_qasm, write_qasm_stream};
pub use parse::{parse_qasm, ParseQasmError, MAX_ANGLE_DEPTH, MAX_QREG_WIDTH};
pub use stream::{QasmStream, QasmStreamError};
