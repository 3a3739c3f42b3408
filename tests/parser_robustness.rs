//! Robustness property tests for the QASM parser: arbitrary input must
//! never panic — it either parses or returns a structured error — and
//! structurally mangled valid programs fail gracefully.

use proptest::prelude::*;
use tilt::circuit::qasm;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parser is total: any string produces Ok or Err, never a panic.
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,200}") {
        let _ = qasm::parse_qasm(&input);
    }

    /// Same, over inputs biased toward QASM-looking token soup.
    #[test]
    fn parser_never_panics_on_qasm_like_soup(
        tokens in prop::collection::vec(
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
            ],
            0..30,
        )
    ) {
        let input = tokens.join(" ");
        let _ = qasm::parse_qasm(&input);
    }

    /// Truncating a valid program at any byte never panics.
    #[test]
    fn truncation_is_safe(cut in 0usize..400) {
        let full = qasm::to_qasm(&tilt::benchmarks::bv::bernstein_vazirani(8, &[true; 7]));
        let cut = cut.min(full.len());
        // Only cut at char boundaries (ASCII output, so every byte).
        let _ = qasm::parse_qasm(&full[..cut]);
    }
}

#[test]
fn angle_expression_edge_cases_error_not_panic() {
    for angle in ["", "pi/", "*2", "((pi)", "1e", "pi pi", "1..2", "-"] {
        let src = format!("qreg q[1];\nrx({angle}) q[0];\n");
        assert!(
            qasm::parse_qasm(&src).is_err(),
            "`{angle}` should be rejected"
        );
    }
}

#[test]
fn deeply_nested_parens_parse() {
    let src = "qreg q[1];\nrx(((((pi))))/((2))) q[0];\n";
    let c = qasm::parse_qasm(src).unwrap();
    match c.gates()[0] {
        tilt::circuit::Gate::Rx(_, a) => {
            assert!((a - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        }
        ref g => panic!("unexpected {g:?}"),
    }
}

/// Parses `src` on a thread with a 256 KiB stack: hostile nesting must
/// come back as an error, not overflow the stack.
fn parse_on_small_stack(src: String) -> Result<(), qasm::ParseQasmError> {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || qasm::parse_qasm(&src).map(drop))
        .expect("spawn parser thread")
        .join()
        .expect("the parser thread does not crash")
}

#[test]
fn million_deep_angle_nesting_is_an_error_on_a_small_stack() {
    const DEPTH: usize = 1_000_000;
    let parens = format!(
        "qreg q[1];\nrx({}pi{}) q[0];\n",
        "(".repeat(DEPTH),
        ")".repeat(DEPTH)
    );
    let minus = format!("qreg q[1];\nrx({}pi) q[0];\n", "-".repeat(DEPTH));
    for src in [parens, minus] {
        let e = parse_on_small_stack(src).unwrap_err();
        assert_eq!(e.line, 2);
    }
}
