//! Shared flag parsing for the bench binaries.

/// The flags every experiment binary understands.
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
    /// Parses the process arguments ([`std::env::args`], program name
    /// included).
    ///
    /// # Errors
    ///
    /// As for [`RunFlags::parse`].
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (no program name).
    ///
    /// # Errors
    ///
    /// A message naming the flag, when a flag is unknown, when `--par` has
    /// no value or its value is not a non-negative integer, or when both
    /// `--csv` and `--markdown` are given.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut flags = RunFlags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" | "-q" => flags.quick = true,
                "--csv" => flags.csv = true,
                "--markdown" => flags.markdown = true,
                "--stable-output" => flags.stable_output = true,
                "--par" => {
                    let value = args.next().ok_or("flag --par requires a value")?;
                    flags.par = match value.parse::<usize>() {
                        Ok(0) => crate::Executor::available(),
                        Ok(n) => n,
                        Err(_) => return Err(format!("flag --par: cannot parse `{value}`")),
                    };
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
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
        RunFlags::parse(args.iter().map(|s| s.to_string()))
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
}
