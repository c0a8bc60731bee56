//! The workspace's command-line grammar, and the experiment flags.
//!
//! `asm`, `all_experiments`, `loadgen` and `asm-orchestrator` parse
//! their arguments with [`Args::parse`], so one set of rules holds for
//! all of them:
//!
//! * a flag is `--name`, and may have a one-dash alias (`-q`); a switch
//!   takes no value, and a value flag takes the next argument verbatim,
//!   even one that starts with `-` (`--eps -1`);
//! * an unknown flag, a flag given twice, a value flag with no value, a
//!   value that does not parse, and a positional argument where the
//!   command takes none are errors, each one line naming the flag:
//!   `unknown flag --x`, `flag --x given twice`, `flag --x requires a
//!   value`, `flag --x: cannot parse `v``;
//! * `--help` or `-h` ends the parse and asks for the usage.
//!
//! A front end prints an error as `error: …` followed by its usage on
//! stderr and exits 2, and prints the usage on stdout and exits 0 for
//! `--help`; [`from_env`] does both. [`from_env`] and
//! [`subcommand_from_env`] are the only readers of the process's
//! arguments outside `asm-node`, which keeps a loop of its own because
//! `asm-distributed` does not depend on this crate; a CI lint step holds
//! that line.

use std::process::ExitCode;
use std::str::FromStr;

/// A command's flags, written like a getopt option string: entries
/// separated by whitespace, where `--name` is a switch, `--name=` takes
/// a value, and `--name|-n` (or `--name|-n=`) adds a one-dash alias.
/// The experiment runs' grammar, for example, is
/// `"--quick|-q --par= --csv --markdown --stable-output"`.
pub type Grammar = &'static str;

/// The flag `arg` names in `grammar`, if any: its `--name` and whether it
/// takes a value. `arg` may be the flag's alias.
fn lookup(grammar: Grammar, arg: &str) -> Option<(&'static str, bool)> {
    grammar.split_whitespace().find_map(|entry| {
        let mut names = entry.trim_end_matches('=').split('|');
        let name = names.next()?;
        (arg == name || names.next() == Some(arg)).then_some((name, entry.ends_with('=')))
    })
}

/// A command line that parsed: the flags it gave, with their values, and
/// its positional arguments in order. Flags are looked up by their
/// `--name`; looking up a name outside the command's grammar is a bug
/// and panics.
#[derive(Debug)]
pub struct Args {
    grammar: Grammar,
    given: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
    help: bool,
}

impl Args {
    /// Parses `args` (no program name) against `grammar`; positional
    /// arguments are accepted only when `positionals` is set.
    ///
    /// # Errors
    ///
    /// The one-line message, naming the flag, for an unknown flag, a flag
    /// given twice, a value flag with no value, or a positional argument
    /// the command does not take.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        grammar: Grammar,
        positionals: bool,
    ) -> Result<Args, String> {
        let mut parsed = Args {
            grammar,
            given: Vec::new(),
            positionals: Vec::new(),
            help: false,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                parsed.help = true;
                break;
            }
            let Some((name, takes_value)) = lookup(grammar, &arg) else {
                if arg.starts_with('-') {
                    return Err(format!("unknown flag {arg}"));
                }
                if !positionals {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                parsed.positionals.push(arg);
                continue;
            };
            if parsed.given.iter().any(|(given, _)| *given == name) {
                return Err(format!("flag {name} given twice"));
            }
            let value = if takes_value {
                Some(
                    args.next()
                        .ok_or_else(|| format!("flag {name} requires a value"))?,
                )
            } else {
                None
            };
            parsed.given.push((name, value));
        }
        Ok(parsed)
    }

    /// Whether the command line asked for the usage (`--help` or `-h`);
    /// the parse stopped there.
    pub fn help(&self) -> bool {
        self.help
    }

    fn given(&self, name: &str) -> Option<&Option<String>> {
        assert!(
            lookup(self.grammar, name).is_some_and(|(n, _)| n == name),
            "flag {name} is not in this command's grammar"
        );
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether switch `name` was given (or value flag `name`, with any
    /// value).
    pub fn switch(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The value of flag `name`, as given.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.given(name).and_then(Option::as_deref)
    }

    /// The value of flag `name`, when it is given.
    ///
    /// # Errors
    ///
    /// `flag NAME: cannot parse `VALUE`` when the value is not a `T`.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.text(name)
            .map(|text| parse_value(name, text))
            .transpose()
    }

    /// The value of flag `name`, or `default` when it is not given.
    ///
    /// # Errors
    ///
    /// As for [`Args::get`].
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// The value of flag `name` as a comma-separated list, when it is
    /// given; items are trimmed and empty items skipped.
    ///
    /// # Errors
    ///
    /// `flag NAME: cannot parse `ITEM`` for the first item that is not a
    /// `T`.
    pub fn list<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, String> {
        self.text(name)
            .map(|text| {
                text.split(',')
                    .map(str::trim)
                    .filter(|item| !item.is_empty())
                    .map(|item| parse_value(name, item))
                    .collect()
            })
            .transpose()
    }

    /// The value of flag `name`, which the command needs.
    ///
    /// # Errors
    ///
    /// `flag NAME is required` when it is not given.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.text(name)
            .ok_or_else(|| format!("flag {name} is required"))
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

fn parse_value<T: FromStr>(name: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("flag {name}: cannot parse `{text}`"))
}

/// Parses the process's arguments (after the program name) against
/// `grammar` and turns them into a binary's settings with `settings`.
///
/// # Errors
///
/// The exit code the binary ends with instead: 0 after printing `usage`
/// on stdout for `--help`; 2 after printing `error: …` and `usage` on
/// stderr when the arguments do not parse or `settings` refuses them.
pub fn from_env<T>(
    grammar: Grammar,
    positionals: bool,
    usage: &str,
    settings: impl FnOnce(&Args) -> Result<T, String>,
) -> Result<T, ExitCode> {
    let parsed = Args::parse(std::env::args().skip(1), grammar, positionals);
    if parsed.as_ref().is_ok_and(Args::help) {
        println!("{usage}");
        return Err(ExitCode::SUCCESS);
    }
    parsed.and_then(|args| settings(&args)).map_err(|message| {
        eprintln!("error: {message}\n{usage}");
        ExitCode::from(2)
    })
}

/// Parses the process's arguments for a command whose first argument
/// names a subcommand: each entry of `subcommands` pairs a name with the
/// grammar of the arguments after it and what the caller runs for it.
/// Returns `None` when the first argument is `help`, `--help` or `-h`.
///
/// # Errors
///
/// `missing subcommand`, `unknown subcommand "NAME"`, or the
/// subcommand's [`Args::parse`] error.
pub fn subcommand_from_env<T: Copy>(
    subcommands: &[(&str, Grammar, T)],
) -> Result<Option<(T, Args)>, String> {
    let mut args = std::env::args().skip(1);
    let name = args.next().ok_or("missing subcommand")?;
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(None);
    }
    let &(_, grammar, run) = subcommands
        .iter()
        .find(|(n, _, _)| *n == name)
        .ok_or_else(|| format!("unknown subcommand {name:?}"))?;
    Ok(Some((run, Args::parse(args, grammar, false)?)))
}

/// The flags every experiment run understands.
///
/// * `--quick` / `-q` — smoke-test sweep sizes;
/// * `--par N` — worker count (`0` = all hardware threads; default 1);
/// * `--csv` / `--markdown` — output format (plain tables otherwise; at
///   most one of the two);
/// * `--stable-output` — replace wall-clock table cells with `-` so two
///   runs can be byte-diffed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunFlags {
    /// Quick (smoke) sweep sizes.
    pub quick: bool,
    /// Worker count (already resolved; ≥ 1).
    pub par: usize,
    /// Emit CSV instead of aligned tables.
    pub csv: bool,
    /// Emit Markdown instead of aligned tables.
    pub markdown: bool,
    /// Deterministic table output (timings rendered as `-`).
    pub stable_output: bool,
}

impl Default for RunFlags {
    fn default() -> Self {
        RunFlags {
            quick: false,
            par: 1,
            csv: false,
            markdown: false,
            stable_output: false,
        }
    }
}

impl RunFlags {
    /// The grammar of the run flags.
    pub const GRAMMAR: Grammar = "--quick|-q --par= --csv --markdown --stable-output";

    /// Reads the run flags from a command line parsed with a grammar that
    /// includes [`RunFlags::GRAMMAR`].
    ///
    /// # Errors
    ///
    /// A message naming the flag, when the value of `--par` is not a
    /// non-negative integer, or when both `--csv` and `--markdown` are
    /// given.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let flags = RunFlags {
            quick: args.switch("--quick"),
            par: match args.get_or("--par", 1)? {
                0 => crate::Executor::available(),
                n => n,
            },
            csv: args.switch("--csv"),
            markdown: args.switch("--markdown"),
            stable_output: args.switch("--stable-output"),
        };
        if flags.csv && flags.markdown {
            return Err("flags --csv and --markdown exclude each other".to_string());
        }
        Ok(flags)
    }

    /// Builds the executor this run asked for.
    pub fn executor(&self) -> crate::Executor {
        crate::Executor::new(self.par)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> RunFlags {
        try_parse(args).expect("flags parse")
    }

    fn try_parse(args: &[&str]) -> Result<RunFlags, String> {
        let args = Args::parse(args.iter().map(|s| s.to_string()), RunFlags::GRAMMAR, false)?;
        RunFlags::from_args(&args)
    }

    #[test]
    fn defaults_are_serial_full_sweep() {
        let f = parse(&[]);
        assert!(!f.quick);
        assert_eq!(f.par, 1);
    }

    #[test]
    fn parses_the_full_set() {
        let f = parse(&["--quick", "--par", "8", "--csv", "--stable-output"]);
        assert!(f.quick && f.csv && f.stable_output && !f.markdown);
        assert_eq!(f.par, 8);
        assert!(parse(&["-q", "--markdown"]).markdown);
    }

    #[test]
    fn par_zero_means_machine_sized() {
        assert!(parse(&["--par", "0"]).par >= 1);
    }

    #[test]
    fn malformed_or_missing_values_are_errors() {
        assert_eq!(
            try_parse(&["--par", "lots"]).unwrap_err(),
            "flag --par: cannot parse `lots`"
        );
        assert_eq!(
            try_parse(&["--par"]).unwrap_err(),
            "flag --par requires a value"
        );
    }

    #[test]
    fn csv_and_markdown_together_are_an_error() {
        for args in [["--csv", "--markdown"], ["--markdown", "--csv"]] {
            assert_eq!(
                try_parse(&args).unwrap_err(),
                "flags --csv and --markdown exclude each other"
            );
        }
    }

    #[test]
    fn unknown_flags_are_errors() {
        assert_eq!(
            try_parse(&["-q", "--frobnicate"]).unwrap_err(),
            "unknown flag --frobnicate"
        );
    }

    const GRAMMAR: Grammar = "--quick|-q --eps= --procs=";

    fn args(args: &[&str], positionals: bool) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()), GRAMMAR, positionals)
    }

    #[test]
    fn the_grammar_names_what_it_refuses() {
        for (line, positionals, error) in [
            (&["-q", "--quick"][..], true, "flag --quick given twice"),
            (
                &["--eps", "1", "--eps", "2"][..],
                true,
                "flag --eps given twice",
            ),
            (&["t1", "--eps"][..], true, "flag --eps requires a value"),
            (&["t1"][..], false, "unexpected argument `t1`"),
            (&["--eps", "1", "-x"][..], true, "unknown flag -x"),
        ] {
            assert_eq!(args(line, positionals).unwrap_err(), error, "{line:?}");
        }
    }

    #[test]
    fn values_are_taken_verbatim_and_help_ends_the_parse() {
        let parsed = args(&["b", "--eps", "-1", "a", "--procs", " 1,,2 "], true).unwrap();
        assert_eq!(parsed.get::<f64>("--eps"), Ok(Some(-1.0)));
        assert_eq!(parsed.list::<usize>("--procs"), Ok(Some(vec![1, 2])));
        assert_eq!(parsed.positionals(), ["b", "a"]);
        assert!(!parsed.switch("--quick") && !parsed.help());

        let parsed = args(&["--eps", "--help", "-h", "--bogus"], false).unwrap();
        assert_eq!(parsed.text("--eps"), Some("--help"));
        assert!(parsed.help());
        assert_eq!(
            args(&["--procs", "1,x"], false)
                .unwrap()
                .list::<usize>("--procs"),
            Err("flag --procs: cannot parse `x`".to_string())
        );
    }
}
