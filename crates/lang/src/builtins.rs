//! Built-in functions and primitive-type methods.
//!
//! The builtin surface mirrors the subset of Python 2.7 that type-handling
//! code mined by AutoType actually uses: conversions (`int`, `float`,
//! `str`), string predicates and transforms, list/dict helpers, and the
//! console/file primitives the implicit-parameter invocation variants need
//! (`input`, `open`, `sys.argv` — the latter lives in the interpreter).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::error::PyError;
use crate::interp::{dict_key, Interp};
use crate::value::{FileHandle, Value};

/// Every builtin function; a name resolved to builtin `i` refers to
/// `NAMES[i]`.
pub const NAMES: &[&str] = &[
    "len", "int", "str", "float", "bool", "ord", "chr", "abs", "min", "max", "sum", "range",
    "print", "input", "open", "sorted", "reversed",
];

/// The builtin id of `name`, if it names a builtin. The parser asks this
/// of every identifier it reads; most are too short or too long to be one.
pub fn id(name: &str) -> Option<u8> {
    if !(3..=8).contains(&name.len()) {
        return None;
    }
    NAMES.iter().position(|n| *n == name).map(|i| i as u8)
}

/// The builtin function with id `id`.
pub fn by_id(id: u8) -> Value {
    Value::Builtin(NAMES[id as usize])
}

/// Dispatch a builtin function call.
pub fn call(
    interp: &mut Interp,
    name: &str,
    args: Vec<Value>,
    line: u32,
) -> Result<Value, PyError> {
    match name {
        "len" => {
            let [v] = expect_args::<1>(name, args, line)?;
            let n = match &v {
                Value::Str(s) => s.chars().count(),
                Value::List(l) => l.borrow().len(),
                Value::Dict(d) => d.borrow().len(),
                other => {
                    return Err(PyError::type_error(
                        format!("object of type '{}' has no len()", other.type_name()),
                        line,
                    ))
                }
            };
            Ok(Value::Int(n as i64))
        }
        "int" => match args.len() {
            1 => parse_int(&args[0], 10, line),
            2 => {
                let base = match &args[1] {
                    Value::Int(b) if (2..=36).contains(b) => *b as u32,
                    _ => return Err(PyError::value_error("int() base must be 2..36", line)),
                };
                parse_int(&args[0], base, line)
            }
            n => Err(PyError::type_error(
                format!("int() takes 1 or 2 arguments ({n} given)"),
                line,
            )),
        },
        "str" => {
            let [v] = expect_args::<1>(name, args, line)?;
            Ok(Value::str(v.display()))
        }
        "float" => {
            let [v] = expect_args::<1>(name, args, line)?;
            match &v {
                Value::Int(i) => Ok(Value::Float(*i as f64)),
                Value::Float(f) => Ok(Value::Float(*f)),
                Value::Bool(b) => Ok(Value::Float(*b as i64 as f64)),
                Value::Str(s) => s.trim().parse::<f64>().map(Value::Float).map_err(|_| {
                    PyError::value_error(format!("could not convert string to float: {s}"), line)
                }),
                other => Err(PyError::type_error(
                    format!(
                        "float() argument must be a string or number, not '{}'",
                        other.type_name()
                    ),
                    line,
                )),
            }
        }
        "bool" => {
            let [v] = expect_args::<1>(name, args, line)?;
            Ok(Value::Bool(v.truthy()))
        }
        "ord" => {
            let [v] = expect_args::<1>(name, args, line)?;
            match &v {
                Value::Str(s) if s.chars().count() == 1 => {
                    Ok(Value::Int(s.chars().next().unwrap() as i64))
                }
                _ => Err(PyError::type_error("ord() expected a character", line)),
            }
        }
        "chr" => {
            let [v] = expect_args::<1>(name, args, line)?;
            match &v {
                Value::Int(i) if (0..=0x10FFFF).contains(i) => match char::from_u32(*i as u32) {
                    Some(c) => Ok(Value::str(c.to_string())),
                    None => Err(PyError::value_error(
                        "chr() arg not a valid codepoint",
                        line,
                    )),
                },
                _ => Err(PyError::type_error("chr() expected an integer", line)),
            }
        }
        "abs" => {
            let [v] = expect_args::<1>(name, args, line)?;
            match &v {
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(PyError::type_error(
                    format!("bad operand type for abs(): '{}'", other.type_name()),
                    line,
                )),
            }
        }
        "min" | "max" => {
            let items: Vec<Value> = if args.len() == 1 {
                match &args[0] {
                    Value::List(l) => l.borrow().clone(),
                    other => {
                        return Err(PyError::type_error(
                            format!("'{}' object is not iterable", other.type_name()),
                            line,
                        ))
                    }
                }
            } else {
                args
            };
            if items.is_empty() {
                return Err(PyError::value_error(
                    format!("{name}() of empty sequence"),
                    line,
                ));
            }
            let mut best = items[0].clone();
            for item in &items[1..] {
                let replace = numeric_lt(item, &best, line)? == (name == "min");
                if replace {
                    best = item.clone();
                }
            }
            Ok(best)
        }
        "sum" => {
            let [v] = expect_args::<1>(name, args, line)?;
            match &v {
                Value::List(l) => {
                    let mut total_i = 0i64;
                    let mut total_f = 0.0f64;
                    let mut is_float = false;
                    for item in l.borrow().iter() {
                        match item {
                            Value::Int(i) => total_i = total_i.wrapping_add(*i),
                            Value::Float(f) => {
                                is_float = true;
                                total_f += f;
                            }
                            other => {
                                return Err(PyError::type_error(
                                    format!("unsupported operand in sum: '{}'", other.type_name()),
                                    line,
                                ))
                            }
                        }
                    }
                    if is_float {
                        Ok(Value::Float(total_f + total_i as f64))
                    } else {
                        Ok(Value::Int(total_i))
                    }
                }
                other => Err(PyError::type_error(
                    format!("'{}' object is not iterable", other.type_name()),
                    line,
                )),
            }
        }
        "range" => {
            let (start, stop, step) = match args.len() {
                1 => (0, as_int(&args[0], line)?, 1),
                2 => (as_int(&args[0], line)?, as_int(&args[1], line)?, 1),
                3 => (
                    as_int(&args[0], line)?,
                    as_int(&args[1], line)?,
                    as_int(&args[2], line)?,
                ),
                n => {
                    return Err(PyError::type_error(
                        format!("range() takes 1-3 arguments ({n} given)"),
                        line,
                    ))
                }
            };
            if step == 0 {
                return Err(PyError::value_error("range() arg 3 must not be zero", line));
            }
            let mut out = Vec::new();
            let mut i = start;
            while (step > 0 && i < stop) || (step < 0 && i > stop) {
                interp.charge(1)?;
                out.push(Value::Int(i));
                // Stepping past the i64 range ends it, as in Python.
                let Some(next) = i.checked_add(step) else {
                    break;
                };
                i = next;
            }
            Ok(Value::list(out))
        }
        "print" => {
            let rendered: Vec<String> = args.iter().map(|v| v.display()).collect();
            interp.stdout.push_str(&rendered.join(" "));
            interp.stdout.push('\n');
            Ok(Value::None)
        }
        "input" => match interp.io.stdin.clone() {
            Some(s) => Ok(Value::str(s)),
            None => Err(PyError::new("EOFError", "EOF when reading a line", line)),
        },
        "open" => {
            let path = match args.first() {
                Some(Value::Str(s)) => s.to_string(),
                _ => return Err(PyError::type_error("open() expects a file name", line)),
            };
            // Mode argument (args[1]) accepted and ignored; the virtual
            // filesystem is read-only from the snippet's point of view.
            match interp.io.files.get(&path) {
                Some(contents) => Ok(Value::File(Rc::new(RefCell::new(FileHandle {
                    contents: contents.clone(),
                    cursor: 0,
                })))),
                None => Err(PyError::new(
                    "IOError",
                    format!("No such file or directory: '{path}'"),
                    line,
                )),
            }
        }
        "sorted" => {
            let [v] = expect_args::<1>(name, args, line)?;
            match &v {
                Value::List(l) => {
                    let mut items = l.borrow().clone();
                    sort_values(&mut items, line)?;
                    Ok(Value::list(items))
                }
                Value::Str(s) => {
                    let mut chars: Vec<char> = s.chars().collect();
                    chars.sort_unstable();
                    Ok(Value::list(chars.into_iter().map(Value::char).collect()))
                }
                other => Err(PyError::type_error(
                    format!("'{}' object is not iterable", other.type_name()),
                    line,
                )),
            }
        }
        "reversed" => {
            let [v] = expect_args::<1>(name, args, line)?;
            match &v {
                Value::List(l) => {
                    let mut items = l.borrow().clone();
                    items.reverse();
                    Ok(Value::list(items))
                }
                Value::Str(s) => Ok(Value::list(s.chars().rev().map(Value::char).collect())),
                other => Err(PyError::type_error(
                    format!("'{}' object is not reversible", other.type_name()),
                    line,
                )),
            }
        }
        other => Err(PyError::name_error(other, line)),
    }
}

/// Dispatch a method call on a primitive receiver (`str`, `list`, `dict`,
/// file handle).
pub fn call_method(
    interp: &mut Interp,
    recv: Value,
    name: &str,
    args: Vec<Value>,
    line: u32,
) -> Result<Value, PyError> {
    match &recv {
        Value::Str(s) => str_method(interp, s, name, &args, line),
        Value::List(l) => {
            let l = l.clone();
            list_method(&l, name, args, line)
        }
        Value::Dict(d) => {
            let d = d.clone();
            dict_method(&d, name, &args, line)
        }
        Value::File(f) => {
            let f = f.clone();
            file_method(&f, name, &args, line)
        }
        other => Err(PyError::attribute_error(other.type_name(), name, line)),
    }
}

fn str_method(
    interp: &mut Interp,
    s: &str,
    name: &str,
    args: &[Value],
    line: u32,
) -> Result<Value, PyError> {
    let arg_str = |i: usize| -> Result<&str, PyError> {
        match args.get(i) {
            Some(Value::Str(v)) => Ok(v.as_ref()),
            _ => Err(PyError::type_error(
                format!("str.{name}() expects a string argument"),
                line,
            )),
        }
    };
    match name {
        "upper" => Ok(Value::str(s.to_uppercase())),
        "lower" => Ok(Value::str(s.to_lowercase())),
        "strip" => {
            if args.is_empty() {
                Ok(Value::str(s.trim()))
            } else {
                let chars: Vec<char> = arg_str(0)?.chars().collect();
                Ok(Value::str(s.trim_matches(|c| chars.contains(&c))))
            }
        }
        "lstrip" => Ok(Value::str(s.trim_start())),
        "rstrip" => Ok(Value::str(s.trim_end())),
        "split" => {
            let parts: Vec<Value> = if args.is_empty() {
                s.split_whitespace().map(Value::str).collect()
            } else {
                let sep = arg_str(0)?;
                if sep.is_empty() {
                    return Err(PyError::value_error("empty separator", line));
                }
                s.split(sep).map(Value::str).collect()
            };
            Ok(Value::list(parts))
        }
        "replace" => {
            let from = arg_str(0)?;
            let to = arg_str(1)?;
            if from.is_empty() {
                return Ok(Value::str(s));
            }
            Ok(Value::str(s.replace(from, to)))
        }
        "startswith" => Ok(Value::Bool(s.starts_with(arg_str(0)?))),
        "endswith" => Ok(Value::Bool(s.ends_with(arg_str(0)?))),
        "isdigit" => Ok(Value::Bool(
            !s.is_empty() && s.chars().all(|c| c.is_ascii_digit()),
        )),
        "isalpha" => Ok(Value::Bool(
            !s.is_empty() && s.chars().all(|c| c.is_alphabetic()),
        )),
        "isalnum" => Ok(Value::Bool(
            !s.is_empty() && s.chars().all(|c| c.is_alphanumeric()),
        )),
        "isupper" => Ok(Value::Bool(
            s.chars().any(|c| c.is_uppercase()) && !s.chars().any(|c| c.is_lowercase()),
        )),
        "islower" => Ok(Value::Bool(
            s.chars().any(|c| c.is_lowercase()) && !s.chars().any(|c| c.is_uppercase()),
        )),
        "isspace" => Ok(Value::Bool(
            !s.is_empty() && s.chars().all(|c| c.is_whitespace()),
        )),
        "find" => {
            let needle = arg_str(0)?;
            Ok(Value::Int(match s.find(needle) {
                Some(byte_pos) => s[..byte_pos].chars().count() as i64,
                None => -1,
            }))
        }
        "index" => {
            let needle = arg_str(0)?;
            match s.find(needle) {
                Some(byte_pos) => Ok(Value::Int(s[..byte_pos].chars().count() as i64)),
                None => Err(PyError::value_error("substring not found", line)),
            }
        }
        "count" => {
            let needle = arg_str(0)?;
            if needle.is_empty() {
                return Ok(Value::Int(s.chars().count() as i64 + 1));
            }
            Ok(Value::Int(s.matches(needle).count() as i64))
        }
        "join" => match args.first() {
            Some(Value::List(items)) => {
                let mut parts = Vec::new();
                for item in items.borrow().iter() {
                    match item {
                        Value::Str(p) => parts.push(p.to_string()),
                        other => {
                            return Err(PyError::type_error(
                                format!("join() expects strings, found '{}'", other.type_name()),
                                line,
                            ))
                        }
                    }
                }
                Ok(Value::str(parts.join(s)))
            }
            _ => Err(PyError::type_error("join() expects a list", line)),
        },
        "zfill" => {
            let width = match args.first() {
                Some(Value::Int(w)) => *w.max(&0) as usize,
                _ => return Err(PyError::type_error("zfill() expects an int", line)),
            };
            let len = s.chars().count();
            if len >= width {
                Ok(Value::str(s))
            } else {
                // The padding is data-proportional work, charged before it
                // is allocated, like `str * n`.
                interp.charge((width - len) as u64)?;
                let mut out = "0".repeat(width - len);
                out.push_str(s);
                Ok(Value::str(out))
            }
        }
        "title" => {
            let mut out = String::with_capacity(s.len());
            let mut at_word_start = true;
            for c in s.chars() {
                if c.is_alphabetic() {
                    if at_word_start {
                        out.extend(c.to_uppercase());
                    } else {
                        out.extend(c.to_lowercase());
                    }
                    at_word_start = false;
                } else {
                    out.push(c);
                    at_word_start = true;
                }
            }
            Ok(Value::str(out))
        }
        other => Err(PyError::attribute_error("str", other, line)),
    }
}

fn list_method(
    list: &Rc<RefCell<Vec<Value>>>,
    name: &str,
    mut args: Vec<Value>,
    line: u32,
) -> Result<Value, PyError> {
    match name {
        "append" => {
            if args.len() != 1 {
                return Err(PyError::type_error("append() takes one argument", line));
            }
            list.borrow_mut().push(args.pop().unwrap());
            Ok(Value::None)
        }
        "pop" => {
            let mut items = list.borrow_mut();
            match args.first() {
                None => items.pop().ok_or_else(|| PyError::index_error(line)),
                Some(Value::Int(i)) => {
                    let len = items.len() as i64;
                    let idx = if *i < 0 { i + len } else { *i };
                    if idx < 0 || idx >= len {
                        Err(PyError::index_error(line))
                    } else {
                        Ok(items.remove(idx as usize))
                    }
                }
                Some(_) => Err(PyError::type_error("pop() index must be int", line)),
            }
        }
        "insert" => {
            if args.len() != 2 {
                return Err(PyError::type_error("insert() takes two arguments", line));
            }
            let value = args.pop().unwrap();
            let idx = as_int(&args[0], line)?;
            let mut items = list.borrow_mut();
            let len = items.len() as i64;
            let pos = idx.clamp(0, len) as usize;
            items.insert(pos, value);
            Ok(Value::None)
        }
        "extend" => match args.first() {
            Some(Value::List(other)) => {
                let extra = other.borrow().clone();
                list.borrow_mut().extend(extra);
                Ok(Value::None)
            }
            _ => Err(PyError::type_error("extend() expects a list", line)),
        },
        "reverse" => {
            list.borrow_mut().reverse();
            Ok(Value::None)
        }
        "sort" => {
            let mut items = list.borrow_mut();
            sort_values(&mut items, line)?;
            Ok(Value::None)
        }
        "count" => {
            let needle = args
                .first()
                .ok_or_else(|| PyError::type_error("count() takes one argument", line))?;
            let n = list.borrow().iter().filter(|v| v.py_eq(needle)).count();
            Ok(Value::Int(n as i64))
        }
        "index" => {
            let needle = args
                .first()
                .ok_or_else(|| PyError::type_error("index() takes one argument", line))?;
            match list.borrow().iter().position(|v| v.py_eq(needle)) {
                Some(i) => Ok(Value::Int(i as i64)),
                None => Err(PyError::value_error("value not in list", line)),
            }
        }
        other => Err(PyError::attribute_error("list", other, line)),
    }
}

fn dict_method(
    dict: &Rc<RefCell<std::collections::BTreeMap<Arc<str>, Value>>>,
    name: &str,
    args: &[Value],
    line: u32,
) -> Result<Value, PyError> {
    match name {
        "get" => {
            let key = dict_key(
                args.first()
                    .ok_or_else(|| PyError::type_error("get() takes 1-2 arguments", line))?,
                line,
            )?;
            let default = args.get(1).cloned().unwrap_or(Value::None);
            Ok(dict.borrow().get(&key).cloned().unwrap_or(default))
        }
        "keys" => Ok(Value::list(
            dict.borrow()
                .keys()
                .map(|k| Value::Str(k.clone()))
                .collect(),
        )),
        "values" => Ok(Value::list(dict.borrow().values().cloned().collect())),
        "items" => Ok(Value::list(
            dict.borrow()
                .iter()
                .map(|(k, v)| Value::list(vec![Value::Str(k.clone()), v.clone()]))
                .collect(),
        )),
        other => Err(PyError::attribute_error("dict", other, line)),
    }
}

fn file_method(
    file: &Rc<RefCell<FileHandle>>,
    name: &str,
    _args: &[Value],
    line: u32,
) -> Result<Value, PyError> {
    match name {
        "read" => {
            let mut f = file.borrow_mut();
            let out = f.contents[f.cursor.min(f.contents.len())..].to_string();
            f.cursor = f.contents.len();
            Ok(Value::str(out))
        }
        "readline" => {
            let mut f = file.borrow_mut();
            let rest = &f.contents[f.cursor.min(f.contents.len())..];
            match rest.find('\n') {
                Some(pos) => {
                    let out = rest[..=pos].to_string();
                    f.cursor += pos + 1;
                    Ok(Value::str(out))
                }
                None => {
                    let out = rest.to_string();
                    f.cursor = f.contents.len();
                    Ok(Value::str(out))
                }
            }
        }
        "close" => Ok(Value::None),
        other => Err(PyError::attribute_error("file", other, line)),
    }
}

fn expect_args<const N: usize>(
    name: &str,
    args: Vec<Value>,
    line: u32,
) -> Result<[Value; N], PyError> {
    let count = args.len();
    args.try_into().map_err(|_| {
        PyError::type_error(
            format!("{name}() takes {N} arguments ({count} given)"),
            line,
        )
    })
}

fn as_int(v: &Value, line: u32) -> Result<i64, PyError> {
    match v {
        Value::Int(i) => Ok(*i),
        Value::Bool(b) => Ok(*b as i64),
        other => Err(PyError::type_error(
            format!("an integer is required, got '{}'", other.type_name()),
            line,
        )),
    }
}

fn numeric_lt(a: &Value, b: &Value, line: u32) -> Result<bool, PyError> {
    let to_f = |v: &Value| -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    };
    match (to_f(a), to_f(b)) {
        (Some(x), Some(y)) => Ok(x < y),
        _ => match (a, b) {
            (Value::Str(x), Value::Str(y)) => Ok(x < y),
            _ => Err(PyError::type_error("unorderable types in min/max", line)),
        },
    }
}

fn sort_values(items: &mut [Value], line: u32) -> Result<(), PyError> {
    let mut error = None;
    items.sort_by(|a, b| {
        if error.is_some() {
            return std::cmp::Ordering::Equal;
        }
        match numeric_lt(a, b, line) {
            Ok(true) => std::cmp::Ordering::Less,
            Ok(false) => match numeric_lt(b, a, line) {
                Ok(true) => std::cmp::Ordering::Greater,
                Ok(false) => std::cmp::Ordering::Equal,
                Err(e) => {
                    error = Some(e);
                    std::cmp::Ordering::Equal
                }
            },
            Err(e) => {
                error = Some(e);
                std::cmp::Ordering::Equal
            }
        }
    });
    match error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Parse a string (or coerce a number) to an integer the way Python 2 does:
/// whitespace is stripped, an optional sign allowed, then digits in `base`.
fn parse_int(v: &Value, base: u32, line: u32) -> Result<Value, PyError> {
    match v {
        Value::Int(i) => Ok(Value::Int(*i)),
        Value::Float(f) => Ok(Value::Int(*f as i64)),
        Value::Bool(b) => Ok(Value::Int(*b as i64)),
        Value::Str(s) => {
            let t = s.trim();
            let invalid = || {
                PyError::value_error(
                    format!("invalid literal for int() with base {base}: '{s}'"),
                    line,
                )
            };
            if t.is_empty() {
                return Err(invalid());
            }
            let (sign, digits) = match t.strip_prefix('-') {
                Some(rest) => (-1i64, rest),
                None => (1i64, t.strip_prefix('+').unwrap_or(t)),
            };
            if digits.is_empty() {
                return Err(invalid());
            }
            // Accept an 0x/0o/0b prefix matching the base, like Python.
            let digits = match base {
                16 => digits
                    .strip_prefix("0x")
                    .or_else(|| digits.strip_prefix("0X"))
                    .unwrap_or(digits),
                8 => digits
                    .strip_prefix("0o")
                    .or_else(|| digits.strip_prefix("0O"))
                    .unwrap_or(digits),
                2 => digits
                    .strip_prefix("0b")
                    .or_else(|| digits.strip_prefix("0B"))
                    .unwrap_or(digits),
                _ => digits,
            };
            match i64::from_str_radix(digits, base) {
                Ok(n) => Ok(Value::Int(sign * n)),
                Err(_) => Err(invalid()),
            }
        }
        other => Err(PyError::type_error(
            format!(
                "int() argument must be a string or a number, not '{}'",
                other.type_name()
            ),
            line,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, Program};

    #[test]
    fn every_builtin_resolves_to_its_id() {
        for (i, name) in NAMES.iter().enumerate() {
            assert_eq!(id(name), Some(i as u8), "{name}");
            assert!(matches!(by_id(i as u8), Value::Builtin(n) if n == *name));
        }
        for other in ["", "s", "le", "lens", "Len", "reversed_", "print2"] {
            assert_eq!(id(other), None, "{other}");
        }
    }

    fn eval(expr: &str) -> Value {
        let mut program = Program::new();
        let src = format!("def f(s):\n    return {expr}\n");
        program.add_file("m", &src).unwrap();
        let mut interp = Interp::new(&program);
        interp
            .call_function(0, "f", vec![Value::str("input")])
            .unwrap()
    }

    fn eval_err(expr: &str) -> PyError {
        let mut program = Program::new();
        let src = format!("def f(s):\n    return {expr}\n");
        program.add_file("m", &src).unwrap();
        let mut interp = Interp::new(&program);
        interp
            .call_function(0, "f", vec![Value::str("input")])
            .unwrap_err()
    }

    #[test]
    fn int_parses_with_sign_and_whitespace() {
        assert!(eval("int(' 42 ')").py_eq(&Value::Int(42)));
        assert!(eval("int('-7')").py_eq(&Value::Int(-7)));
        assert!(eval("int('+7')").py_eq(&Value::Int(7)));
    }

    #[test]
    fn int_rejects_garbage() {
        assert_eq!(eval_err("int('12a')").kind, "ValueError");
        assert_eq!(eval_err("int('')").kind, "ValueError");
        assert_eq!(eval_err("int('1.5')").kind, "ValueError");
    }

    #[test]
    fn int_with_base() {
        assert!(eval("int('ff', 16)").py_eq(&Value::Int(255)));
        assert!(eval("int('0xff', 16)").py_eq(&Value::Int(255)));
        assert!(eval("int('1010', 2)").py_eq(&Value::Int(10)));
        assert_eq!(eval_err("int('g', 16)").kind, "ValueError");
    }

    #[test]
    fn string_predicates() {
        assert!(eval("'123'.isdigit()").py_eq(&Value::Bool(true)));
        assert!(eval("'12a'.isdigit()").py_eq(&Value::Bool(false)));
        assert!(eval("''.isdigit()").py_eq(&Value::Bool(false)));
        assert!(eval("'abc'.isalpha()").py_eq(&Value::Bool(true)));
        assert!(eval("'a1'.isalnum()").py_eq(&Value::Bool(true)));
        assert!(eval("'AB'.isupper()").py_eq(&Value::Bool(true)));
    }

    #[test]
    fn string_transforms() {
        assert!(eval("'a-b-c'.split('-')").py_eq(&Value::list(vec![
            Value::str("a"),
            Value::str("b"),
            Value::str("c")
        ])));
        assert!(eval("'a b  c'.split()").py_eq(&Value::list(vec![
            Value::str("a"),
            Value::str("b"),
            Value::str("c")
        ])));
        assert!(eval("'978-4-06'.replace('-', '')").py_eq(&Value::str("978406")));
        assert!(eval("'ab'.upper()").py_eq(&Value::str("AB")));
        assert!(eval("'  x '.strip()").py_eq(&Value::str("x")));
        assert!(eval("'7'.zfill(3)").py_eq(&Value::str("007")));
        assert!(eval("'-'.join(['a', 'b'])").py_eq(&Value::str("a-b")));
    }

    #[test]
    fn find_and_count() {
        assert!(eval("'hello'.find('ll')").py_eq(&Value::Int(2)));
        assert!(eval("'hello'.find('zz')").py_eq(&Value::Int(-1)));
        assert!(eval("'1.2.3.4'.count('.')").py_eq(&Value::Int(3)));
    }

    #[test]
    fn list_methods() {
        assert!(eval("[3, 1, 2].count(1)").py_eq(&Value::Int(1)));
        let mut program = Program::new();
        program
            .add_file(
                "m",
                "def f(s):\n    l = []\n    l.append(1)\n    l.append(2)\n    return l.pop()\n",
            )
            .unwrap();
        let mut interp = Interp::new(&program);
        let v = interp.call_function(0, "f", vec![Value::str("x")]).unwrap();
        assert!(v.py_eq(&Value::Int(2)));
    }

    #[test]
    fn dict_get_with_default() {
        assert!(eval("{'a': 1}.get('a')").py_eq(&Value::Int(1)));
        assert!(eval("{'a': 1}.get('b')").py_eq(&Value::None));
        assert!(eval("{'a': 1}.get('b', 9)").py_eq(&Value::Int(9)));
    }

    #[test]
    fn range_variants() {
        assert!(eval("range(3)").py_eq(&Value::list(vec![
            Value::Int(0),
            Value::Int(1),
            Value::Int(2)
        ])));
        assert!(eval("range(1, 3)").py_eq(&Value::list(vec![Value::Int(1), Value::Int(2)])));
        assert!(eval("range(3, 0, -1)").py_eq(&Value::list(vec![
            Value::Int(3),
            Value::Int(2),
            Value::Int(1)
        ])));
    }

    #[test]
    fn range_stops_at_the_i64_extremes() {
        assert!(eval("range(9223372036854775806, 9223372036854775807, 2)")
            .py_eq(&Value::list(vec![Value::Int(i64::MAX - 1)])));
        assert!(
            eval("range(-9223372036854775807, -9223372036854775807 - 1, -2)")
                .py_eq(&Value::list(vec![Value::Int(i64::MIN + 1)]))
        );
    }

    #[test]
    fn zfill_charges_fuel_for_its_padding() {
        // 2^40 zeros would abort the process on allocation; the charge
        // ends the call first.
        assert_eq!(eval_err("'1'.zfill(1099511627776)").kind, PyError::FUEL);
    }

    #[test]
    fn sorted_and_reversed() {
        assert!(eval("sorted([3, 1, 2])").py_eq(&Value::list(vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(3)
        ])));
        assert!(eval("reversed([1, 2])").py_eq(&Value::list(vec![Value::Int(2), Value::Int(1)])));
    }

    #[test]
    fn ord_and_chr_roundtrip() {
        assert!(eval("ord('A')").py_eq(&Value::Int(65)));
        assert!(eval("chr(65)").py_eq(&Value::str("A")));
    }

    #[test]
    fn input_reads_harness_stdin() {
        let mut program = Program::new();
        program
            .add_file("m", "def f(s):\n    return input()\n")
            .unwrap();
        let io = crate::interp::Io {
            stdin: Some("fed-value".to_string()),
            ..Default::default()
        };
        let mut interp = Interp::with_options(&program, io, crate::interp::DEFAULT_FUEL);
        let v = interp.call_function(0, "f", vec![Value::str("x")]).unwrap();
        assert!(v.py_eq(&Value::str("fed-value")));
    }

    #[test]
    fn open_reads_virtual_file() {
        let mut program = Program::new();
        program
            .add_file(
                "m",
                "def f(s):\n    fp = open('f.txt')\n    return fp.read()\n",
            )
            .unwrap();
        let mut io = crate::interp::Io::default();
        io.files.insert("f.txt".to_string(), "contents".to_string());
        let mut interp = Interp::with_options(&program, io, crate::interp::DEFAULT_FUEL);
        let v = interp.call_function(0, "f", vec![Value::str("x")]).unwrap();
        assert!(v.py_eq(&Value::str("contents")));
        assert_eq!(eval_err("open('missing.txt')").kind, "IOError");
    }

    #[test]
    fn print_captures_stdout() {
        let mut program = Program::new();
        program
            .add_file("m", "def f(s):\n    print('hello', 42)\n    return None\n")
            .unwrap();
        let mut interp = Interp::new(&program);
        interp.call_function(0, "f", vec![Value::str("x")]).unwrap();
        assert_eq!(interp.stdout(), "hello 42\n");
    }
}
