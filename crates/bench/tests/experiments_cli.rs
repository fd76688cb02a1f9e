//! Argument handling of the `experiments` binary: a bad option value is a
//! usage error (exit 2), never silently ignored.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
        .status
        .code()
}

#[test]
fn threads_needs_a_number() {
    assert_eq!(exit_code(&["--help"]), Some(0));
    assert_eq!(exit_code(&["--threads", "abc", "--help"]), Some(2));
    // A missing value must not swallow the next option.
    assert_eq!(
        exit_code(&["--threads", "--preset", "tiny", "--help"]),
        Some(2)
    );
    assert_eq!(exit_code(&["--threads"]), Some(2));
}
