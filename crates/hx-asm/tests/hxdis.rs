//! Drives the built `hxdis` binary: `--base` parsing and the top of the
//! 32-bit address space.

use std::path::PathBuf;
use std::process::{Command, Output};

const HXDIS: &str = env!("CARGO_BIN_EXE_hxdis");

/// Writes `words` as a little-endian image to a per-test file.
fn image(name: &str, words: &[u32]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hxdis-{}-{name}.bin", std::process::id()));
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    std::fs::write(&path, bytes).expect("write image");
    path
}

fn hxdis(path: &PathBuf, base: &str) -> Output {
    let out = Command::new(HXDIS)
        .arg(path)
        .args(["--base", base])
        .output()
        .expect("hxdis runs");
    let _ = std::fs::remove_file(path);
    out
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn base_whose_image_runs_past_the_address_space_is_rejected() {
    let out = hxdis(&image("past-top", &[0, 0]), "0xfffffffc");
    assert!(
        !out.status.success(),
        "an 8-byte image cannot start at 0xfffffffc"
    );
    let err = stderr(&out);
    assert!(err.contains("--base"), "the error names the flag: {err}");
    assert!(!err.contains("panicked"), "rejected, not a panic: {err}");
}

#[test]
fn image_may_end_exactly_at_the_top_of_the_address_space() {
    let out = hxdis(&image("at-top", &[0]), "0xfffffffc");
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0xfffffffc:"), "{text}");
}

#[test]
fn base_takes_one_hex_prefix_only() {
    let out = hxdis(&image("repeated-prefix", &[0]), "0x0x0x10");
    assert!(!out.status.success(), "repeated `0x` prefixes are not hex");
    assert!(stderr(&out).contains("--base"), "{}", stderr(&out));

    for base in ["0x10", "10"] {
        let out = hxdis(&image("one-prefix", &[0]), base);
        assert!(out.status.success(), "{base}: {}", stderr(&out));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("0x00000010:"), "{base}: {text}");
    }
}
