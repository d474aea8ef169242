//! Command-line errors of the `figures` binary: a usage line on stderr and
//! exit status 2, never a panic.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("spawn figures")
}

fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr was\n{stderr}");
    assert!(stderr.contains(what), "stderr names the error: {stderr}");
    assert!(stderr.contains("usage: figures"), "stderr has the usage line: {stderr}");
    assert!(stderr.contains("available modes: all fig3"), "stderr lists the modes: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn out_without_directory_prints_usage() {
    assert_usage_error(&figures(&["fig5", "--bench-scale", "--out"]), "--out needs a directory");
}

#[test]
fn unknown_mode_prints_usage() {
    assert_usage_error(&figures(&["no-such-mode"]), "unknown experiment: no-such-mode");
}
