//! The one command-line reader: `sweep`, `experiments` and `clusterd`
//! each hand [`CommandLine::parse`] their arguments and a table of
//! `(flag, takes_value)`, then read values through its typed getters.
//!
//! The rules are the same for every binary. A command line is refused,
//! before anything runs or binds, for:
//!
//! - a token that starts with `-` and is not in the table:
//!   `unknown flag "<token>"`. Any other token is an operand, which only
//!   `experiments` takes (its ids); the others refuse one as an unknown
//!   flag ([`CommandLine::no_operands`]);
//! - a value flag with nothing after it, or followed by another flag of
//!   the table: `<flag> needs a value`. So `--trace --lan` never writes a
//!   file named `--lan`; a value that merely starts with `-`, such as
//!   `-0.5`, is still a value;
//! - any flag given twice: `<flag> given twice`;
//! - a number that does not parse as its type, a size of zero, or a span
//!   whose milliseconds do not fit in a `u64`: `<flag> out of range`.
//!
//! A flag is `--name value`, or `--name` alone for a switch. Every
//! refusal is a [`GridError::InvalidConfig`]; [`refuse`] prints it as
//! `<binary>: <why>` and exits with status 2, the one way any of the
//! three binaries turns down its command line. The command line is each
//! binary's only source of settings: there is no config file.

use crate::GridError::{self, InvalidConfig};
use crate::{GridResult, SimDuration};
use std::str::FromStr;

/// A parsed command line: the flags given, in order, with their values
/// (none for a switch), and the operands.
#[derive(Debug)]
pub struct CommandLine {
    given: Vec<(String, Option<String>)>,
    operands: Vec<String>,
}

fn out_of_range(flag: &str, value: &str) -> GridError {
    InvalidConfig(format!("{flag} out of range: {value:?}"))
}

impl CommandLine {
    /// Reads `argv` (without the program name) against `flags`, a table
    /// of `(flag, takes_value)`, refusing what the module docs list.
    pub fn parse<S: AsRef<str>>(
        argv: impl IntoIterator<Item = String>,
        flags: &[(S, bool)],
    ) -> GridResult<CommandLine> {
        let lookup = |token: &str| flags.iter().find(|(f, _)| f.as_ref() == token);
        let mut line = CommandLine {
            given: Vec::new(),
            operands: Vec::new(),
        };
        let mut argv = argv.into_iter().peekable();
        while let Some(token) = argv.next() {
            let Some((_, takes_value)) = lookup(&token) else {
                if token.starts_with('-') {
                    return Err(InvalidConfig(format!("unknown flag {token:?}")));
                }
                line.operands.push(token);
                continue;
            };
            if line.given.iter().any(|(f, _)| *f == token) {
                return Err(InvalidConfig(format!("{token} given twice")));
            }
            let value = match takes_value {
                false => None,
                true => match argv.next_if(|v| lookup(v).is_none()) {
                    Some(v) => Some(v),
                    None => return Err(InvalidConfig(format!("{token} needs a value"))),
                },
            };
            line.given.push((token, value));
        }
        Ok(line)
    }

    /// Refuses the first operand as an unknown flag: for a binary that
    /// takes none.
    pub fn no_operands(self) -> GridResult<CommandLine> {
        match self.operands.first() {
            Some(word) => Err(InvalidConfig(format!("unknown flag {word:?}"))),
            None => Ok(self),
        }
    }

    /// The operands, in the order given.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Whether `flag` was given (a switch set, or a value flag present).
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// `flag`'s value, if given.
    pub fn str(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(f, _)| f == flag)?;
        value.as_deref()
    }

    /// `flag`'s value parsed as a `T`, if given.
    pub fn num<T: FromStr>(&self, flag: &str) -> GridResult<Option<T>> {
        let parse = |v: &str| v.parse().map_err(|_| out_of_range(flag, v));
        self.str(flag).map(parse).transpose()
    }

    /// `flag`'s value as a count of at least one, if given: a mesh of no
    /// points or a pool of no workers has nothing to run.
    pub fn size<T: FromStr + PartialEq + From<u8>>(&self, flag: &str) -> GridResult<Option<T>> {
        match self.num(flag)? {
            Some(n) if n == T::from(0) => Err(out_of_range(flag, "0")),
            n => Ok(n),
        }
    }

    /// `flag`'s whole-unit count as a span of `unit_ms` milliseconds each,
    /// if given. A count whose milliseconds do not fit in a `u64` is out
    /// of range, not a wrapped time.
    pub fn span(&self, flag: &str, unit_ms: u64) -> GridResult<Option<SimDuration>> {
        let Some(n) = self.num::<u64>(flag)? else {
            return Ok(None);
        };
        match n.checked_mul(unit_ms) {
            Some(ms) => Ok(Some(SimDuration::from_millis(ms))),
            None => Err(out_of_range(flag, &n.to_string())),
        }
    }
}

/// Prints `<binary>: <why>` to stderr and exits with status 2: the one
/// way a binary refuses its command line.
pub fn refuse(binary: &str, e: &GridError) -> ! {
    match e {
        InvalidConfig(why) => eprintln!("{binary}: {why}"),
        other => eprintln!("{binary}: {other}"),
    }
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[(&str, bool)] = &[("--trace", true), ("--jobs", true), ("--lan", false)];

    fn parse(line: &str) -> GridResult<CommandLine> {
        CommandLine::parse(line.split_whitespace().map(String::from), FLAGS)
    }

    fn refused(line: &str) -> String {
        match parse(line) {
            Err(InvalidConfig(why)) => why,
            other => panic!("{line:?} was not refused: {other:?}"),
        }
    }

    #[test]
    fn values_switches_and_operands_are_read_in_place() {
        let line = parse("fig1 --jobs 4 --lan --trace -x.jsonl table1").unwrap();
        assert_eq!(line.operands(), ["fig1", "table1"]);
        assert!(line.switch("--lan") && line.switch("--jobs") && !line.switch("--bogus"));
        assert_eq!(line.str("--trace"), Some("-x.jsonl"));
        assert_eq!(line.num::<u32>("--jobs"), Ok(Some(4)));
        assert_eq!(line.size::<usize>("--jobs"), Ok(Some(4)));
        assert_eq!(
            line.span("--jobs", 60_000),
            Ok(Some(SimDuration::from_mins(4)))
        );
        assert_eq!(line.num::<u32>("--absent"), Ok(None));
        assert_eq!(line.span("--absent", 1000), Ok(None));
        assert!(parse("--lan").unwrap().no_operands().is_ok());
    }

    #[test]
    fn each_refusal_names_its_flag() {
        assert_eq!(refused("--bogus 1"), "unknown flag \"--bogus\"");
        assert_eq!(refused("-h"), "unknown flag \"-h\"");
        assert_eq!(refused("--jobs"), "--jobs needs a value");
        assert_eq!(refused("--jobs 1 --jobs 2"), "--jobs given twice");
        assert_eq!(refused("--lan --lan"), "--lan given twice");
        let stray = parse("--lan fig1").unwrap().no_operands().unwrap_err();
        assert_eq!(stray, InvalidConfig("unknown flag \"fig1\"".into()));
    }

    #[test]
    fn a_flag_is_never_taken_as_a_value() {
        // `--trace --lan` used to trace into a file named `--lan`.
        assert_eq!(refused("--trace --lan"), "--trace needs a value");
        assert_eq!(refused("--trace --jobs 2"), "--trace needs a value");
        assert_eq!(refused("--lan --trace"), "--trace needs a value");
    }

    #[test]
    fn malformed_zero_and_overflowing_values_are_out_of_range() {
        let line = parse("--jobs x").unwrap();
        assert_eq!(
            line.num::<u32>("--jobs"),
            Err(InvalidConfig("--jobs out of range: \"x\"".into()))
        );
        let line = parse("--jobs 0").unwrap();
        assert_eq!(line.num::<u32>("--jobs"), Ok(Some(0)));
        assert_eq!(
            line.size::<u32>("--jobs"),
            Err(InvalidConfig("--jobs out of range: \"0\"".into()))
        );
        let line = parse("--jobs 4294967296").unwrap();
        assert!(line.num::<u32>("--jobs").is_err() && line.num::<u64>("--jobs").is_ok());
        // u64::MAX / 60_000 + 1 minutes: the milliseconds would wrap.
        let line = parse("--jobs 307445734561826").unwrap();
        let why = "--jobs out of range: \"307445734561826\"";
        assert_eq!(line.span("--jobs", 60_000), Err(InvalidConfig(why.into())));
        assert!(line.span("--jobs", 1000).is_ok());
    }
}
