//! Robustness fuzzing for the PyLite front end and interpreter: arbitrary
//! input must never panic — it either parses or reports a structured error,
//! and execution always terminates under fuel (the mined-code harness runs
//! untrusted snippets, so this is a safety property of the whole system).

use autotype_lang::{parse_source, Interp, Program, PyError, Value};
use proptest::prelude::*;
use proptest::TestRng;

/// Names the generated bodies read and write. Besides the parameter `s`
/// they cover every way a name resolves: locals set on some paths only
/// (`x`, `y`, `n`, `c`, `e`), a module global (`g`), builtins shadowed by
/// nothing, by a module global or by a local (`abs`, `len`), the imported
/// module and a nested function (`lib`, `h`), and a name nothing defines
/// (`zz`).
const READS: &[&str] = &[
    "s", "x", "y", "n", "c", "e", "g", "len", "abs", "lib", "h", "zz",
];
const WRITES: &[&str] = &["x", "y", "n", "c", "e", "len"];

/// Generates a two-file program: `lib`, and a module `m` with globals and
/// a function `f(s)` whose body is a random mix of assignments, `+=`,
/// `if`, `for`, `while`, `try/except … as`, nested `def`, `import`,
/// `break`, `continue` and `return`.
struct Programs;

impl Strategy for Programs {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut src = String::from("import lib\ng = 5\n");
        if rng.below(3) == 0 {
            src.push_str("len = abs\n");
        }
        if rng.below(2) == 0 {
            src.push_str("x = 'module'\n");
        }
        let params = if rng.below(6) == 0 { "s, s" } else { "s" };
        src.push_str(&format!("def f({params}):\n"));
        block(rng, 1, 0, &mut src);
        src
    }
}

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len())]
}

fn expr(rng: &mut TestRng, depth: usize) -> String {
    if depth > 2 {
        return match rng.below(3) {
            0 => pick(rng, READS).to_string(),
            1 => rng.below(4).to_string(),
            _ => "'a1'".to_string(),
        };
    }
    let d = depth + 1;
    match rng.below(12) {
        0..=2 => pick(rng, READS).to_string(),
        3 => rng.below(10).to_string(),
        4 => pick(rng, &["'ab'", "''", "'7'", "'é'"]).to_string(),
        5 => format!("({} + {})", expr(rng, d), expr(rng, d)),
        6 => format!("({} < {})", expr(rng, d), expr(rng, d)),
        7 => format!(
            "{}({})",
            pick(rng, &["len", "abs", "int", "h", "str"]),
            expr(rng, d)
        ),
        8 => format!("{}[{}]", expr(rng, d), pick(rng, &["0", "-1", "1:", "'k'"])),
        9 => format!("{{'k': {}}}['k']", expr(rng, d)),
        10 => format!("lib.{}({})", pick(rng, &["count", "twice"]), expr(rng, d)),
        _ => format!("(not {})", expr(rng, d)),
    }
}

/// Append an indented block of 1–4 statements.
fn block(rng: &mut TestRng, indent: usize, loops: usize, src: &mut String) {
    for _ in 0..1 + rng.below(4) {
        stmt(rng, indent, loops, src);
    }
}

fn stmt(rng: &mut TestRng, indent: usize, loops: usize, src: &mut String) {
    let pad = "    ".repeat(indent);
    let nest = indent < 4;
    let line = |src: &mut String, text: String| {
        src.push_str(&pad);
        src.push_str(&text);
        src.push('\n');
    };
    match rng.below(14) {
        0..=2 => line(src, format!("{} = {}", pick(rng, WRITES), expr(rng, 0))),
        3..=4 => line(src, format!("{} += {}", pick(rng, WRITES), expr(rng, 0))),
        5 if nest => {
            line(src, format!("if {}:", expr(rng, 0)));
            block(rng, indent + 1, loops, src);
            if rng.below(2) == 0 {
                line(src, "else:".to_string());
                block(rng, indent + 1, loops, src);
            }
        }
        6 if nest => {
            let iter = pick(rng, &["s", "range(3)", "[1, 2]", "{'a': 1}", "x"]);
            line(src, format!("for {} in {iter}:", pick(rng, WRITES)));
            block(rng, indent + 1, loops + 1, src);
        }
        7 if nest => {
            line(src, format!("while {} < 3:", pick(rng, WRITES)));
            block(rng, indent + 1, loops + 1, src);
        }
        8 if nest => {
            line(src, "try:".to_string());
            block(rng, indent + 1, loops, src);
            match rng.below(3) {
                0 => line(src, "except:".to_string()),
                1 => line(src, format!("except ValueError as {}:", pick(rng, WRITES))),
                _ => line(src, format!("except Exception as {}:", pick(rng, WRITES))),
            }
            block(rng, indent + 1, loops, src);
        }
        9 if nest => {
            let params = pick(rng, &["u", "s", "x", "u, u"]);
            line(src, format!("def h({params}):"));
            // A nested function is its own scope: no loop to break out of.
            block(rng, indent + 1, 0, src);
        }
        10 => line(src, "import lib".to_string()),
        11 if loops > 0 => line(src, pick(rng, &["break", "continue"]).to_string()),
        12 => line(src, format!("return {}", expr(rng, 0))),
        _ => line(src, expr(rng, 0)),
    }
}

const LIB: &str = "k = 1\n\ndef count(s):\n    return len(s)\n\ndef twice(v):\n    return v + v\n";

/// Run `f` on `input`, returning the outcome and the fuel used.
fn run_program(source: &str, input: &str) -> Option<(Result<String, PyError>, u64)> {
    let mut program = Program::new();
    program.add_file("lib", LIB).unwrap();
    program.add_file("m", source).ok()?;
    let mut interp = Interp::with_options(&program, Default::default(), 20_000);
    let arity = match program.file(1).module.functions().next() {
        Some(f) => f.params.len(),
        None => return None,
    };
    let args = vec![Value::str(input); arity];
    let outcome = interp.call_function(1, "f", args).map(|v| v.repr());
    Some((outcome, interp.fuel_used()))
}

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

    /// Multi-statement bodies that bind, shadow and read names every way
    /// the resolver knows parse, run to a value or a structured error
    /// under fuel, and do so deterministically.
    #[test]
    fn resolved_bodies_terminate_under_fuel(
        source in Programs,
        input in "\\PC{0,12}",
    ) {
        let first = run_program(&source, &input);
        prop_assert!(first.is_some(), "generated program does not parse");
        prop_assert_eq!(first, run_program(&source, &input));
    }
}

/// The multi-statement generator reaches every kind of binding and every
/// way a name read resolves, and its programs end in every kind of
/// outcome: a value, a `NameError` (an unset local with no global behind
/// it, or an undefined name) and other errors.
#[test]
fn generated_bodies_reach_every_resolver_path() {
    let mut rng = TestRng::from_seed(11);
    let sources: Vec<String> = (0..400).map(|_| Programs.generate(&mut rng)).collect();
    let all = sources.join("\n");
    for construct in [
        "+= ",
        "for ",
        "while ",
        "except ValueError as ",
        "except:",
        "def h(",
        "def f(s, s)",
        "def h(u, u)",
        "    import lib",
        "break",
        "continue",
        "len = abs",
        "x = 'module'",
        "    len = ",
        "zz",
        "return g",
    ] {
        assert!(
            all.contains(construct),
            "generator never emits {construct:?}"
        );
    }
    let (mut ok, mut name_errors, mut other_errors) = (0, 0, 0);
    for src in &sources {
        match run_program(src, "42") {
            Some((Ok(_), _)) => ok += 1,
            Some((Err(e), _)) if e.kind == "NameError" => {
                assert!(e.message.starts_with("name '"), "{}", e.message);
                name_errors += 1;
            }
            Some((Err(_), _)) => other_errors += 1,
            None => panic!("generated program does not parse:\n{src}"),
        }
    }
    assert!(
        ok > 20 && name_errors > 20 && other_errors > 20,
        "outcomes: {ok} ok, {name_errors} NameError, {other_errors} other"
    );
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
