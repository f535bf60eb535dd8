//! The binaries' command lines, driven end to end: every flag goes through
//! the one parser, so a misspelled flag, a flag without its value and an
//! out-of-range guest are errors that name the flag instead of quietly
//! running with a default.

use lwvmm::cli::Flags;
use lwvmm::farm::GuestSpec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty scratch directory, unique to this call.
fn scratch_dir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lwvmm-cli-{}-{n}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(bin: &str, args: &[&str], cwd: &PathBuf) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn binary")
}

/// Runs `bin args` and asserts it fails with an error naming `flag`.
fn assert_rejected(bin: &str, args: &[&str], flag: &str) {
    let dir = scratch_dir(flag.trim_start_matches('-'));
    let out = run(bin, args, &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} succeeded");
    assert!(
        stderr.contains(flag),
        "{args:?}: error does not name {flag}: {stderr}"
    );
    // No run happened: nothing was written, not even a file named after the
    // flag that was taken for a value.
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "{args:?} wrote {written:?}");
    std::fs::remove_dir_all(dir).ok();
}

const DBGCTL: &str = env!("CARGO_BIN_EXE_dbgctl");
const FARM: &str = env!("CARGO_BIN_EXE_lwvmm-farm");
const RUN: &str = env!("CARGO_BIN_EXE_lwvmm-run");

#[test]
fn misspelled_flag_is_an_error() {
    assert_rejected(
        DBGCTL,
        &["run", "--platfrom", "hosted", "--ms", "1"],
        "--platfrom",
    );
    assert_rejected(
        RUN,
        &["--workload", "100", "--ms", "1", "--fualt", "all"],
        "--fualt",
    );
    assert_rejected(
        FARM,
        &["--guests", "1", "--rate", "100", "--ms", "1"],
        "--rate",
    );
}

#[test]
fn flag_without_value_is_an_error() {
    assert_rejected(DBGCTL, &["run", "--ms"], "--ms");
    assert_rejected(DBGCTL, &["metrics", "--cores"], "--cores");
    assert_rejected(DBGCTL, &["run", "--journal", "--ms", "5"], "--journal");
    assert_rejected(RUN, &["--workload", "100", "--ms"], "--ms");
    assert_rejected(FARM, &["--guests", "1", "--ms"], "--ms");
}

#[test]
fn malformed_number_is_an_error() {
    assert_rejected(DBGCTL, &["flow", "--ms", "abc"], "--ms");
    assert_rejected(RUN, &["--workload", "fast"], "--workload");
    assert_rejected(FARM, &["--guests", "many"], "--guests");
}

#[test]
fn out_of_range_cores_are_refused_not_clamped() {
    assert_rejected(
        FARM,
        &["--guests", "1", "--cores", "99", "--ms", "1"],
        "--cores",
    );
    assert_rejected(
        FARM,
        &["--guests", "1", "--cores", "0", "--ms", "1"],
        "--cores",
    );
    assert_rejected(DBGCTL, &["run", "--cores", "9", "--ms", "1"], "--cores");
    assert_rejected(RUN, &["--workload", "100", "--cores", "0"], "--cores");
}

#[test]
fn misaligned_logpoint_is_an_error() {
    assert_rejected(
        RUN,
        &["--workload", "100", "--ms", "1", "--logpoint", "0x15ae"],
        "--logpoint",
    );
}

#[test]
fn source_guest_runs_and_profiles_by_its_labels() {
    let dir = scratch_dir("source");
    std::fs::write(
        dir.join("guest.s"),
        ".org 0x1000\nstart:\n  li r1, 5\nloop:\n  addi r1, r1, -1\n  bnez r1, loop\nspin:\n  j spin\n",
    )
    .unwrap();
    let args = [
        "guest.s",
        "--platform",
        "raw",
        "--ms",
        "1",
        "--profile",
        "g.folded",
    ];
    let out = run(RUN, &args, &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.starts_with("running guest.s (20 bytes at 0x1000) on real-hw for 1 simulated ms"),
        "{stdout}"
    );
    // The image enters at `start` and its own labels are the profile's
    // symbols; the guest ends up spinning.
    let folded = std::fs::read_to_string(dir.join("g.folded")).unwrap();
    assert!(folded.contains("guest;start "), "{folded}");
    assert!(folded.contains("guest;spin "), "{folded}");
    assert!(
        !stdout.contains("guest: "),
        "no workload stats for a source image"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// The scripted debug session prints the committed golden transcript byte
/// for byte: stops, registers, memory, stats and the live `flow` sample
/// all go through the wire codec and the JSON printer, so a change to
/// either that moves one output byte fails here.
#[test]
fn scripted_session_matches_the_golden_transcript() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out = run(DBGCTL, &["session", "ci/query_session.dbg"], &root);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = std::fs::read_to_string(root.join("ci/query_session.golden.jsonl")).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary argv — flag names, near-misses, numbers, garbage — parses
    /// to a spec or to an error, never a panic.
    #[test]
    fn arbitrary_argv_never_panics(
        argv in proptest::collection::vec(
            prop_oneof![
                proptest::sample::select(&[
                    "--platform", "--cores", "--workload", "--fault", "--fault-seed",
                    "--ms", "--seek", "--", "-", "-h", "0x", "0x0x10", "99", "lvmm",
                ][..])
                .prop_map(str::to_string),
                "[-a-z0-9x]{0,12}",
                "\\PC{0,8}",
            ],
            0..10,
        )
    ) {
        let mut values = GuestSpec::FLAGS.to_vec();
        values.push("--ms");
        if let Ok(f) = Flags::parse(argv, &values, &["--seek"], 1) {
            let _ = GuestSpec::from_flags(&f);
            let _ = f.num::<u8>("--ms");
            prop_assert!(f.positional.len() <= 1);
        }
    }
}
