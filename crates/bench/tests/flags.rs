//! The bench binaries parse through the shared flag parser: a malformed
//! number or a misspelled flag stops the bench before it measures
//! anything, with an error that names the flag instead of a panic or a
//! silent full-length run.

use std::process::Command;

fn assert_rejected(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn bad_numbers_and_typos_are_errors_not_panics() {
    assert_rejected(env!("CARGO_BIN_EXE_divergence"), &["--ms", "abc"], "--ms");
    assert_rejected(
        env!("CARGO_BIN_EXE_record_replay"),
        &["--ms", "abc"],
        "--ms",
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_survivability"),
        &["--seed", "abc"],
        "--seed",
    );
    assert_rejected(env!("CARGO_BIN_EXE_fig3_1"), &["--fats"], "--fats");
    assert_rejected(env!("CARGO_BIN_EXE_farm"), &["--merge"], "--merge");
    assert_rejected(env!("CARGO_BIN_EXE_ablation_io"), &["--fast"], "--fast");
}
