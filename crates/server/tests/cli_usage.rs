//! `lardb-cli` rejects a bad engine flag value with a usage error (exit
//! 2), in the shell and in `serve`, before it builds a database.

use std::process::{Command, Stdio};

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_lardb-cli"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("lardb-cli runs")
        .code()
}

#[test]
fn zero_workers_is_a_usage_error() {
    assert_eq!(exit_code(&["--workers", "0", "-c", "CREATE TABLE t (id INTEGER)"]), Some(2));
    assert_eq!(exit_code(&["serve", "--workers", "0", "--serve-seconds", "0"]), Some(2));
}

#[test]
fn bad_engine_values_are_usage_errors() {
    for bad in [["--batch-rows", "0"], ["--transport", "udp"], ["--morsel-rows", "x"]] {
        assert_eq!(exit_code(&[bad[0], bad[1], "-c", "SELECT 1"]), Some(2), "{bad:?}");
    }
    assert_eq!(exit_code(&["--workers", "2", "-c", "CREATE TABLE t (id INTEGER)"]), Some(0));
}
