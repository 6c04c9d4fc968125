//! Robustness fuzzing for the PyLite front end and interpreter: arbitrary
//! input must never panic — it either parses or reports a structured error,
//! and execution always terminates under fuel (the mined-code harness runs
//! untrusted snippets, so this is a safety property of the whole system).

use autotype_lang::{parse_source, Interp, Program, Value};
use proptest::prelude::*;

proptest! {
    /// The lexer+parser never panic on arbitrary text.
    #[test]
    fn parser_never_panics(source in "\\PC{0,200}") {
        let _ = parse_source(&source);
    }

    /// Arbitrary *indentation-shaped* text never panics either.
    #[test]
    fn parser_never_panics_on_indented_soup(
        lines in proptest::collection::vec("( {0,8})(def |if |return |x = )?[a-z0-9 +\\-*/=():\\[\\]{}'\",.]{0,30}", 0..12)
    ) {
        let source = lines.join("\n");
        let _ = parse_source(&source);
    }

    /// Any program that parses either runs to completion or reports a
    /// structured error within the fuel budget — never a panic, never a
    /// hang.
    #[test]
    fn execution_terminates_under_fuel(
        body in "[a-z0-9 +\\-*/%=<>()\\[\\]'\".]{0,60}",
        input in "\\PC{0,30}",
    ) {
        let source = format!("def f(s):\n    return {body}\n");
        if parse_source(&source).is_ok() {
            let mut program = Program::new();
            if program.add_file("m", &source).is_ok() {
                let mut interp = Interp::with_options(
                    &program,
                    Default::default(),
                    20_000,
                );
                let _ = interp.call_function(0, "f", vec![Value::str(input)]);
            }
        }
    }
}

/// Pathological nesting parses (or errors) without stack overflow.
#[test]
fn deep_nesting_is_bounded() {
    let mut source = String::from("def f(s):\n    return ");
    source.push_str(&"(".repeat(500));
    source.push('1');
    source.push_str(&")".repeat(500));
    source.push('\n');
    let _ = parse_source(&source);
}

/// A snippet that loops forever dies from fuel, not wall-clock.
#[test]
fn runaway_loops_are_killed_deterministically() {
    let mut program = Program::new();
    program
        .add_file(
            "m",
            "def f(s):\n    x = 0\n    while True:\n        x += 1\n    return x\n",
        )
        .unwrap();
    let mut a = Interp::with_options(&program, Default::default(), 50_000);
    let ea = a.call_function(0, "f", vec![Value::str("x")]).unwrap_err();
    let mut b = Interp::with_options(&program, Default::default(), 50_000);
    let eb = b.call_function(0, "f", vec![Value::str("x")]).unwrap_err();
    assert!(ea.is_timeout());
    assert_eq!(
        a.fuel_used(),
        b.fuel_used(),
        "fuel death must be deterministic"
    );
    let _ = eb;
}
