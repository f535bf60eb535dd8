//! Shared command-line helpers for the `lwvmm-*` binaries.
//!
//! The flag parser ([`Flags`](crate::cli::Flags)) and the strict number and address grammars
//! live in `hx_farm`, next to the boot recipe and its shared guest flags
//! (`GuestSpec::from_flags`), so the benches parse through the same code;
//! this module re-exports them for the binaries and adds the `--dump`
//! grammar that `lwvmm-run` and `lwvmm-farm` share.
//!
//! Addresses parse through [`parse_hex32`](crate::cli::parse_hex32) everywhere, so malformed input
//! fails loudly and identically. The historical bug it guards against:
//! parsing via `trim_start_matches("0x")` strips *repeated* prefixes, so
//! `0x0xff` silently parsed as `0xff`, while the equally-valid uppercase
//! `0X` prefix was rejected.

pub use hx_farm::{parse_hex32, parse_num64, Flags};

/// Parses a `--dump` value, `0xADDR:LEN` (length in decimal).
pub fn parse_dump(spec: &str) -> Result<(u32, u32), String> {
    let (addr, len) = spec.split_once(':').ok_or("--dump expects addr:len")?;
    let len = len.parse().map_err(|_| "--dump length must be decimal")?;
    Ok((parse_hex32(addr)?, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_both_prefix_cases_and_bare_digits() {
        assert_eq!(parse_hex32("0xff"), Ok(0xff));
        assert_eq!(parse_hex32("0XFF"), Ok(0xff));
        assert_eq!(parse_hex32("ff"), Ok(0xff));
        assert_eq!(parse_hex32("0xDeadBeef"), Ok(0xdead_beef));
        assert_eq!(parse_hex32("0"), Ok(0));
    }

    #[test]
    fn rejects_repeated_prefixes_and_garbage() {
        // The regression: exactly one prefix strip, so a doubled prefix is
        // an error instead of silently parsing as `ff`.
        assert!(parse_hex32("0x0xff").is_err());
        assert!(parse_hex32("0X0xff").is_err());
        assert!(parse_hex32("0x").is_err());
        assert!(parse_hex32("").is_err());
        assert!(parse_hex32("0xgg").is_err());
        assert!(parse_hex32("-0x10").is_err());
        assert!(parse_hex32("0x 10").is_err());
        // Out of 32-bit range.
        assert!(parse_hex32("0x100000000").is_err());
    }

    #[test]
    fn num64_hex_needs_prefix_decimal_does_not() {
        assert_eq!(parse_num64("0x10"), Ok(16));
        assert_eq!(parse_num64("0X10"), Ok(16));
        assert_eq!(parse_num64("10"), Ok(10));
        assert!(parse_num64("0x0x10").is_err());
        assert!(parse_num64("ff").is_err()); // bare hex digits are not decimal
        assert!(parse_num64("").is_err());
    }
}
