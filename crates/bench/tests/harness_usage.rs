//! Harness binaries reject a flag they would ignore, and a bad engine flag
//! value, with a usage error (exit 2) before running anything.

use std::process::{Command, Stdio};

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("harness binary runs")
        .code()
}

#[test]
fn unused_and_bad_flags_are_usage_errors() {
    for bin in [
        env!("CARGO_BIN_EXE_fig1_gram"),
        env!("CARGO_BIN_EXE_fig2_linreg"),
        env!("CARGO_BIN_EXE_fig3_distance"),
    ] {
        assert_eq!(exit_code(bin, &["--profile-json", "unused.json"]), Some(2), "{bin}");
        assert_eq!(exit_code(bin, &["--workers", "0"]), Some(2), "{bin}");
    }
    let fig4 = env!("CARGO_BIN_EXE_fig4_breakdown");
    assert_eq!(exit_code(fig4, &["--n-dist", "100"]), Some(2));
    assert_eq!(exit_code(fig4, &["--mem-budget-mb", "lots"]), Some(2));
    let repeat = env!("CARGO_BIN_EXE_plan_cache_repeat");
    assert_eq!(exit_code(repeat, &["--dims", "10"]), Some(2));
    assert_eq!(exit_code(repeat, &["--help"]), Some(0));
}
