//! `hxdis` — command-line disassembler for HX32 flat images.
//!
//! ```console
//! $ hxdis kernel.bin --base 0x1000 [--symbols kernel.sym]
//! ```

use hx_asm::SymbolTable;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut input = None;
    let mut base = 0u32;
    let mut symbols = SymbolTable::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--base" => {
                let Some(v) = args.next() else {
                    return usage("missing argument to --base");
                };
                base = match parse_hex(&v) {
                    Some(b) => b,
                    None => return usage("--base expects a hex address"),
                };
            }
            "--symbols" => {
                let Some(path) = args.next() else {
                    return usage("missing argument to --symbols");
                };
                match std::fs::read_to_string(&path) {
                    Ok(text) => {
                        for line in text.lines() {
                            // Format written by hxas: "0x00001000 name"
                            if let Some((addr, name)) = line.trim().split_once(' ') {
                                if let Some(a) = parse_hex(addr) {
                                    symbols.define(name.trim(), a);
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("hxdis: cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "-h" | "--help" => return usage(""),
            other if input.is_none() => input = Some(other.to_string()),
            other => return usage(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(input) = input else {
        return usage("no input file");
    };
    let bytes = match std::fs::read(&input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("hxdis: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The last word must still have an address: the image may end at the
    // top of the 32-bit space but not run past it.
    if u64::from(base) + bytes.len().div_ceil(4) as u64 * 4 > 1 << 32 {
        return usage(&format!(
            "--base {base:#x}: a {}-byte image would run past 0xffffffff",
            bytes.len()
        ));
    }
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let mut word = [0u8; 4];
        word[..chunk.len()].copy_from_slice(chunk);
        let w = u32::from_le_bytes(word);
        let addr = base + (i as u32) * 4;
        if let Some((name, 0)) = symbols.resolve(addr) {
            println!("{name}:");
        }
        println!("  {addr:#010x}: {:08x}  {}", w, hx_asm::disasm(w, addr));
    }
    ExitCode::SUCCESS
}

/// A hex number with at most one `0x` prefix.
fn parse_hex(s: &str) -> Option<u32> {
    u32::from_str_radix(s.strip_prefix("0x").unwrap_or(s), 16).ok()
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("hxdis: {err}");
    }
    eprintln!("usage: hxdis <image.bin> [--base 0x1000] [--symbols file.sym]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
