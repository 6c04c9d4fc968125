//! The `figures` command line rejects what it does not know: an unknown
//! experiment or flag must fail loudly, before any work, instead of
//! running nothing (or the wrong sweep) and exiting 0.

use std::process::Command;

/// Run `figures` with `args` and assert it printed the usage to stderr,
/// nothing to stdout, and exited with status 2.
fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2), "figures {args:?}");
    assert!(out.stdout.is_empty(), "figures {args:?} wrote to stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("usage: figures") && stderr.contains("table3"),
        "figures {args:?} stderr: {stderr}"
    );
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    assert_usage_error(&["bench-json"]);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["table3", "--fulll"]);
}

#[test]
fn second_experiment_is_a_usage_error() {
    assert_usage_error(&["table2", "table3"]);
}
