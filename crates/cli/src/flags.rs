//! The one flag parser of `slpm`, `serve_bench` and `pipeline_scale`.
//!
//! Every command declares one table of [`Flag`] rows: the flag's name,
//! the [`Kind`] of value it takes (with its default), and a setter that
//! converts the value into the command's own configuration. [`parse`]
//! applies the defaults through the same setters, reads the arguments in
//! one loop and raises the typed [`ParseError`]s; [`usage`] prints the
//! table. A flag and its default are therefore written down once.

use std::fmt;
use std::str::FromStr;

/// Parse failures, with a message suitable for direct printing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// What a flag takes; the text is what [`usage`] prints after the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No value: giving the flag is the setting.
    Switch,
    /// A value that must be given; the text is an example.
    Required(&'static str),
    /// A value set before the arguments are read; the text is the default.
    Preset(&'static str),
    /// A value that may be left out; the text names it.
    Optional(&'static str),
}

/// Moves one flag's value into the command's configuration `C`.
pub type Setter<C> = fn(&mut C, Arg) -> Result<(), ParseError>;

/// One row of a flag table: name, kind of value, setter.
pub type Flag<C> = (&'static str, Kind, Setter<C>);

/// A flag's value as given (empty for a [`Kind::Switch`]).
#[derive(Debug, Clone, Copy)]
pub struct Arg<'a> {
    /// The flag, for error messages.
    pub flag: &'static str,
    /// The value.
    pub text: &'a str,
}

impl Arg<'_> {
    /// An integer of at least `min`.
    pub fn int<T: FromStr + PartialOrd + From<u8> + fmt::Display>(
        self,
        min: T,
    ) -> Result<T, ParseError> {
        match self.text.parse::<T>() {
            Ok(n) if n >= min => Ok(n),
            _ if min == T::from(1) => Err(self.invalid("a positive integer")),
            _ => Err(self.invalid(&format!("an integer >= {min}"))),
        }
    }

    fn invalid(self, expected: &str) -> ParseError {
        ParseError(format!(
            "invalid {} '{}': expected {expected}",
            self.flag, self.text
        ))
    }

    /// An integer of at least `min`, as a float (a rate or a duration).
    pub fn float(self, min: u64) -> Result<f64, ParseError> {
        self.int(min).map(|n| n as f64)
    }

    /// One of the names `parse` knows; the error calls the value an
    /// unknown `what` and lists `names`.
    pub fn name<T>(
        self,
        what: &str,
        names: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, ParseError> {
        parse(self.text)
            .ok_or_else(|| ParseError(format!("unknown {what} '{}' ({names})", self.text)))
    }

    /// A value whose own parser says what is wrong with it.
    pub fn with<T, E: fmt::Display>(
        self,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, ParseError> {
        parse(self.text).map_err(|e| ParseError(format!("invalid {}: {e}", self.flag)))
    }

    /// The value as an owned string.
    pub fn string(self) -> Result<String, ParseError> {
        Ok(self.text.to_string())
    }
}

/// Parse `args` (the flags after the command name `cmd`) against
/// `table`: presets first, then each flag in order (a repeated flag's
/// last value wins), then a check that every required flag was given.
///
/// # Errors
/// An unknown flag, a value-taking flag at the end of `args`, a value
/// its setter rejects, or a missing required flag.
pub fn parse<C: Default>(cmd: &str, table: &[Flag<C>], args: &[String]) -> Result<C, ParseError> {
    let mut config = C::default();
    for &(flag, kind, set) in table {
        if let Kind::Preset(text) = kind {
            set(&mut config, Arg { flag, text })?;
        }
    }
    let mut given = vec![false; table.len()];
    let mut args = args.iter();
    while let Some(name) = args.next() {
        let row = table
            .iter()
            .position(|row| row.0 == name)
            .ok_or_else(|| ParseError(format!("unknown flag '{name}'")))?;
        let (flag, kind, set) = table[row];
        let text = match kind {
            Kind::Switch => "",
            _ => args
                .next()
                .ok_or_else(|| ParseError(format!("{flag} requires a value")))?,
        };
        set(&mut config, Arg { flag, text })?;
        given[row] = true;
    }
    match table
        .iter()
        .zip(given)
        .find(|((_, kind, _), given)| matches!(kind, Kind::Required(_)) && !given)
    {
        Some(((flag, ..), _)) => Err(ParseError(format!("{cmd} requires {flag}"))),
        None => Ok(config),
    }
}

/// `head` followed by every flag of `table`, wrapped before 80 columns
/// with continuation lines indented to `head`'s width.
pub fn usage<C>(head: &str, table: &[Flag<C>]) -> String {
    let indent = head.len();
    let (mut out, mut width) = (head.to_string(), indent);
    for &(flag, kind, _) in table {
        let item = match kind {
            Kind::Switch => format!("[{flag}]"),
            Kind::Required(text) => format!("{flag} {text}"),
            Kind::Preset(text) | Kind::Optional(text) => format!("[{flag} {text}]"),
        };
        if width > indent && width + 1 + item.len() > 80 {
            out.push_str(&format!("\n{:indent$}", ""));
            width = indent;
        } else if width > indent {
            out.push(' ');
            width += 1;
        }
        out.push_str(&item);
        width += item.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use Kind::*;

    #[derive(Debug, Default, PartialEq)]
    struct Demo {
        size: usize,
        name: String,
        level: Option<u32>,
        verbose: bool,
    }

    const DEMO: &[Flag<Demo>] = &[
        ("--size", Required("8"), |c, a| a.int(1).map(|n| c.size = n)),
        ("--name", Preset("x"), |c, a| a.string().map(|s| c.name = s)),
        ("--level", Optional("N"), |c, a| {
            a.int(0).map(|n| c.level = Some(n))
        }),
        ("--verbose", Switch, |c, _| {
            c.verbose = true;
            Ok(())
        }),
    ];

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn presets_then_flags_then_required() {
        let got = parse("demo", DEMO, &argv(&["--size", "3", "--verbose"])).unwrap();
        let want = Demo {
            size: 3,
            name: "x".into(),
            level: None,
            verbose: true,
        };
        assert_eq!(got, want);
        let got = parse(
            "demo",
            DEMO,
            &argv(&["--level", "0", "--size", "1", "--size", "2"]),
        );
        assert_eq!(got.unwrap().size, 2, "the last value wins");
        assert_eq!(
            parse("demo", DEMO, &argv(&["--verbose"])),
            Err(ParseError("demo requires --size".into()))
        );
    }

    #[test]
    fn errors_name_the_flag() {
        let err = |parts: &[&str]| parse("demo", DEMO, &argv(parts)).unwrap_err().0;
        assert_eq!(err(&["--size"]), "--size requires a value");
        assert_eq!(err(&["--bogus"]), "unknown flag '--bogus'");
        assert_eq!(
            err(&["--size", "0"]),
            "invalid --size '0': expected a positive integer"
        );
        assert_eq!(
            err(&["--level", "-1"]),
            "invalid --level '-1': expected an integer >= 0"
        );
    }

    #[test]
    fn usage_wraps_under_the_head() {
        assert_eq!(
            usage("  demo ", DEMO),
            "  demo --size 8 [--name x] [--level N] [--verbose]"
        );
        let long: Vec<Flag<Demo>> = (0..12).map(|_| DEMO[1]).collect();
        let text = usage("  demo ", &long);
        assert!(text.lines().all(|l| l.len() < 80), "{text}");
        assert!(text.lines().skip(1).all(|l| l.starts_with("       [")));
    }
}
