//! Invocation-variant wrappers and distractor code.
//!
//! Each wrapper rewrites a validator module so it must be invoked through a
//! different channel of Appendix D.1, giving the code-analysis stage all
//! six variants to discover.

/// Variant 4: wrap `inner` behind a `sys.argv`-reading main.
pub fn wrap_argv(module_src: &str, inner: &str) -> String {
    format!(
        "{module_src}\nimport sys\n\ndef main_from_args():\n    value = sys.argv[0]\n    return {inner}(value)\n"
    )
}

/// Variant 5: wrap `inner` behind an `input()`-reading main.
pub fn wrap_stdin(module_src: &str, inner: &str) -> String {
    format!(
        "{module_src}\n\ndef main_from_stdin():\n    value = input()\n    return {inner}(value)\n"
    )
}

/// Variant 6: wrap `inner` behind a file-reading main.
pub fn wrap_file(module_src: &str, inner: &str) -> String {
    format!(
        "{module_src}\n\ndef main_from_file():\n    fp = open('input.txt')\n    value = fp.read()\n    return {inner}(value)\n"
    )
}

/// Variant 2: class with a parameter-less constructor and a method taking
/// the value.
pub fn wrap_class_method(module_src: &str, inner: &str, class: &str) -> String {
    format!(
        "{module_src}\n\nclass {class}:\n    def __init__(self):\n        self.result = None\n    def check(self, value):\n        self.result = {inner}(value)\n        return self.result\n"
    )
}

/// Variant 3: class whose constructor takes the value, with a
/// parameter-less method.
pub fn wrap_class_ctor(module_src: &str, inner: &str, class: &str) -> String {
    format!(
        "{module_src}\n\nclass {class}:\n    def __init__(self, value):\n        self.value = value\n    def check(self):\n        return {inner}(self.value)\n"
    )
}

/// Appendix D.1 script form: a hard-coded constant the analyzer rewrites.
pub fn wrap_script(module_src: &str, inner: &str, example: &str) -> String {
    let escaped = example
        .replace('\\', "\\\\")
        .replace('\'', "\\'")
        .replace('\n', "\\n");
    format!("{module_src}\n\nsample_value = '{escaped}'\nresult = {inner}(sample_value)\n")
}

// ---------------------------------------------------------------------
// Distractors.
// ---------------------------------------------------------------------

/// A generic integer/float parsing utility — accepts anything numeric, so
/// it cannot tell mutation-based negatives from positives (§6's motivating
/// example for why random negatives fail).
pub fn int_utils() -> String {
    r#"# general purpose number parsing helpers
def to_int(s):
    return int(s.strip())

def to_float(s):
    return float(s.strip())

def is_number(s):
    t = s.strip()
    if len(t) == 0:
        return False
    body = t
    if body[0] == '-' or body[0] == '+':
        body = body[1:]
    dots = 0
    for c in body:
        if c == '.':
            dots += 1
        elif not c.isdigit():
            return False
    return len(body) > 0 and dots <= 1
"#
    .to_string()
}

/// Generic string helpers — run successfully on every input, producing
/// identical traces for P and N (never rankable).
pub fn string_utils() -> String {
    r#"# assorted string manipulation helpers
def reverse_string(s):
    out = ''
    i = len(s) - 1
    while i >= 0:
        out = out + s[i]
        i -= 1
    return out

def shout(s):
    return s.upper()

def whisper(s):
    return s.lower()

def word_count(s):
    return len(s.split())
"#
    .to_string()
}

/// The "Swift programming language" repository — dominates the ambiguous
/// "SWIFT" query (Figure 12's quality collapse) while being irrelevant to
/// SWIFT financial messages.
pub fn swift_language_repo_file() -> String {
    r#"# swift language tutorial helpers: swift syntax, swift compiler tips
def count_swift_keywords(s):
    keywords = ['func', 'var', 'let', 'class', 'struct', 'enum', 'guard']
    total = 0
    for k in keywords:
        total = total + s.count(k)
    return total

def looks_like_swift_code(s):
    if s.find('func ') >= 0:
        return True
    if s.find('let ') >= 0:
        return True
    return False
"#
    .to_string()
}

/// Keyword-bait distractor: mentions the type name everywhere but the code
/// is irrelevant (hurts the KW baseline, not DNF ranking).
pub fn keyword_bait(type_name: &str, func: &str) -> String {
    format!(
        r#"# {type_name} form field helper: renders a {type_name} input widget
# this module talks about {type_name} a lot but never validates one
def {func}(s):
    label = '{type_name}'
    html = '<label>' + label + '</label><input name="' + label + '" value="' + s + '">'
    return html
"#
    )
}

/// Multi-step invocation chain (the shape AutoType cannot invoke, §8.2.2:
/// `a = foo1(); b = foo2(a); c = foo3(b, s)`).
pub fn multi_step_chain(type_name: &str, prefix: &str) -> String {
    format!(
        r#"# {type_name} processing pipeline (requires staged setup)
def {prefix}_make_context():
    ctx = {{}}
    ctx['strict'] = True
    return ctx

def {prefix}_load_rules(ctx):
    rules = {{}}
    rules['ctx'] = ctx
    rules['max_len'] = 256
    return rules

def {prefix}_process(rules, s):
    if len(s) > rules['max_len']:
        raise ValueError('too long')
    return s
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotype_lang::parse_source;

    #[test]
    fn wrappers_emit_valid_pylite() {
        let base = "def inner(s):\n    return len(s) > 0\n";
        for src in [
            wrap_argv(base, "inner"),
            wrap_stdin(base, "inner"),
            wrap_file(base, "inner"),
            wrap_class_method(base, "inner", "Checker"),
            wrap_class_ctor(base, "inner", "Checker"),
            wrap_script(base, "inner", "it's a test"),
        ] {
            parse_source(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        }
    }

    #[test]
    fn distractors_emit_valid_pylite() {
        for src in [
            int_utils(),
            string_utils(),
            swift_language_repo_file(),
            keyword_bait("credit card", "render_field"),
            multi_step_chain("SQL statement", "sql"),
        ] {
            parse_source(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        }
    }

    #[test]
    fn script_wrapper_escapes_quotes() {
        let src = wrap_script("def f(s):\n    return s\n", "f", "o'neill");
        assert!(src.contains("o\\'neill"));
        parse_source(&src).unwrap();
    }

    #[test]
    fn multi_step_chain_has_no_single_param_candidates() {
        let src = multi_step_chain("TAF message", "taf");
        let module = parse_source(&src).unwrap();
        // foo1 takes 0 params without IO, foo2 takes 1... wait: load_rules
        // takes 1 param (ctx) so it IS single-param invocable — but running
        // it on a *string* fails immediately (it indexes a dict), and
        // process takes 2. The chain as a whole is unusable for detection.
        let funcs: Vec<_> = module.functions().collect();
        assert_eq!(funcs.len(), 3);
        assert_eq!(funcs[2].params.len(), 2, "final step needs two params");
    }
}
