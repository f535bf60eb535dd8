//! The one command-line parser: every `lwvmm-*` binary and every bench
//! declares the flags it takes and reads them back through [`Flags`].
//!
//! A misspelled flag, a flag without its value and a malformed number are
//! all errors that name the flag, so a typo can never quietly fall back to
//! a default. Numbers share one grammar ([`parse_num64`]), and guest
//! addresses another ([`parse_hex32`]).

/// Parsed command-line flags: the values and switches a binary declared,
/// plus its positional arguments.
#[derive(Debug, Default)]
pub struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    /// Arguments that are not flags, in order.
    pub positional: Vec<String>,
}

impl Flags {
    /// Parses `argv` against the declared value flags (`--ms 50`) and
    /// switches (`--fast`), accepting at most `max_positional` other
    /// arguments. A declared flag may repeat; [`get`](Self::get) reads the
    /// last value and [`all`](Self::all) every one. A value may not start
    /// with `--`, so `--journal --ms 5` is a missing `--journal` value, not
    /// a journal named `--ms`.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        values: &[&'static str],
        switches: &[&'static str],
        max_positional: usize,
    ) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if let Some(&flag) = values.iter().find(|&&f| f == arg) {
                let value = argv
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                flags.values.push((flag, value));
            } else if let Some(&flag) = switches.iter().find(|&&f| f == arg) {
                flags.switches.push(flag);
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag `{arg}`"));
            } else if flags.positional.len() == max_positional {
                return Err(format!("unexpected argument `{arg}`"));
            } else {
                flags.positional.push(arg);
            }
        }
        Ok(flags)
    }

    /// [`parse`](Self::parse) over this process's arguments.
    pub fn from_env(
        values: &[&'static str],
        switches: &[&'static str],
        max_positional: usize,
    ) -> Result<Flags, String> {
        Flags::parse(std::env::args().skip(1), values, switches, max_positional)
    }

    /// The last value given for `flag`.
    pub fn get(&self, flag: &str) -> Option<&str> {
        let last = self.values.iter().rev().find(|(f, _)| *f == flag);
        last.map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable `flag`, in order.
    pub fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.values
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The last value of `flag` as a number ([`parse_num64`]'s grammar) that
    /// fits `T`.
    pub fn num<T: TryFrom<u64>>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| {
                parse_num64(v)
                    .ok()
                    .and_then(|n| T::try_from(n).ok())
                    .ok_or_else(|| format!("{flag} expects a number, got `{v}`"))
            })
            .transpose()
    }
}

/// Parses a 32-bit address written in hex, with an optional single `0x` /
/// `0X` prefix. Exactly one prefix is stripped — `0x0xff` is malformed,
/// not `0xff` — and the digits themselves may be upper- or lowercase.
pub fn parse_hex32(s: &str) -> Result<u32, String> {
    let digits = strip_hex_prefix(s);
    if digits.is_empty() {
        return Err(format!("bad hex address `{s}`: no digits"));
    }
    u32::from_str_radix(digits, 16).map_err(|_| format!("bad hex address `{s}`"))
}

/// Parses a 64-bit number: hex with a single `0x`/`0X` prefix, decimal
/// without one.
pub fn parse_num64(s: &str) -> Result<u64, String> {
    let digits = strip_hex_prefix(s);
    let r = if digits.len() != s.len() {
        u64::from_str_radix(digits, 16)
    } else {
        s.parse()
    };
    r.map_err(|_| format!("bad number `{s}`"))
}

/// Strips at most one hex prefix, accepting both `0x` and `0X`.
fn strip_hex_prefix(s: &str) -> &str {
    s.strip_prefix("0x")
        .or_else(|| s.strip_prefix("0X"))
        .unwrap_or(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Flags, String> {
        let argv = argv.iter().map(|s| s.to_string());
        Flags::parse(argv, &["--ms", "--log"], &["--fast"], 1)
    }

    #[test]
    fn reads_values_switches_and_positionals() {
        let f = parse(&["a.s", "--ms", "0x10", "--log", "x", "--fast", "--log", "y"]).unwrap();
        assert_eq!(f.num::<u64>("--ms"), Ok(Some(16)));
        assert_eq!(f.all("--log").collect::<Vec<_>>(), ["x", "y"]);
        assert_eq!(f.get("--log"), Some("y"));
        assert!(f.has("--fast"));
        assert_eq!(f.positional, ["a.s"]);
        let f = parse(&[]).unwrap();
        assert_eq!(f.num::<u64>("--ms"), Ok(None));
        assert!(!f.has("--fast"));
    }

    #[test]
    fn every_mistake_names_the_flag() {
        let err = |argv: &[&str]| parse(argv).unwrap_err();
        assert!(err(&["--fats"]).contains("--fats"));
        assert!(err(&["--ms"]).contains("--ms"));
        assert!(err(&["--log", "--ms", "5"]).contains("--log"));
        assert!(err(&["a.s", "b.s"]).contains("b.s"));
        let f = parse(&["--ms", "abc"]).unwrap();
        assert!(f.num::<u64>("--ms").unwrap_err().contains("--ms"));
        let f = parse(&["--ms", "300"]).unwrap();
        assert!(f.num::<u8>("--ms").unwrap_err().contains("--ms"));
    }
}
