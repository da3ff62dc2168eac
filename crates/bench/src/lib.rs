//! Shared helpers for the experiment harness binaries.
//!
//! Each figure/table binary regenerates one table or figure of the paper (see `DESIGN.md`
//! for the per-experiment index) and prints it as a text table/heatmap so the shape can be
//! compared directly with the published results. The figure/table binaries accept two
//! scale flags, read with [`cli::ParsedArgs::scale`]:
//!
//! * `--quick` (default): reduced problem sizes so the whole harness runs in minutes on a
//!   laptop;
//! * `--full`: the paper-scale parameters (56/112 simulated cores, full sweeps).
//!
//! The tool binaries (`sched_fuzz`, `sched_chaos`, `usf_trace`) take their own flags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
pub mod perfetto;
pub mod scenario_json;

/// Harness scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sweep for quick runs (default).
    Quick,
    /// Paper-scale sweep.
    Full,
}

/// Minimal shared command-line parsing for the harness binaries.
///
/// Every binary declares the flags it accepts as a slice of [`cli::FlagSpec`] and calls
/// [`cli::parse_or_exit`]; unknown flags, missing values and stray positionals error out
/// with usage text instead of being silently ignored (which used to make
/// `fig3_matmul --ful` quietly run the quick sweep).
pub mod cli {
    use super::Scale;
    use std::fmt::Write as _;
    use std::str::FromStr;

    /// One accepted `--flag` (optionally taking a value).
    #[derive(Debug, Clone, Copy)]
    pub struct FlagSpec {
        /// Flag name including the leading dashes, e.g. `"--full"`.
        pub name: &'static str,
        /// `Some(placeholder)` if the flag takes a value (`--flag V` or `--flag=V`).
        pub value_name: Option<&'static str>,
        /// One-line description for the usage text.
        pub help: &'static str,
    }

    /// The two scale flags every figure/table binary accepts.
    pub const SCALE_FLAGS: &[FlagSpec] = &[
        FlagSpec {
            name: "--quick",
            value_name: None,
            help: "reduced sweep, minutes on a laptop (default)",
        },
        FlagSpec {
            name: "--full",
            value_name: None,
            help: "paper-scale parameters (56/112 simulated cores, full grids)",
        },
    ];

    /// Parsed flag occurrences.
    #[derive(Debug, Default)]
    pub struct ParsedArgs {
        values: Vec<(&'static str, Option<String>)>,
    }

    impl ParsedArgs {
        /// Whether `name` was passed.
        pub fn has(&self, name: &str) -> bool {
            self.values.iter().any(|(n, _)| *n == name)
        }

        /// Last value passed for `name`, if any.
        pub fn get(&self, name: &str) -> Option<&str> {
            self.values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .and_then(|(_, v)| v.as_deref())
        }

        /// Parse the value of `name`, falling back to `default` when absent.
        ///
        /// # Errors
        /// Returns an error string when the value does not parse as `T`.
        pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
            match self.get(name) {
                None => Ok(default),
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("invalid value `{v}` for `{name}`")),
            }
        }

        /// The sweep scale (`--full` selects [`Scale::Full`]).
        pub fn scale(&self) -> Scale {
            if self.has("--full") {
                Scale::Full
            } else {
                Scale::Quick
            }
        }
    }

    /// Render the usage text for a binary.
    pub fn usage(binary: &str, about: &str, specs: &[FlagSpec]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{about}");
        let _ = writeln!(out, "\nUsage: {binary} [OPTIONS]\n\nOptions:");
        for s in specs {
            let left = match s.value_name {
                Some(v) => format!("{} <{v}>", s.name),
                None => s.name.to_string(),
            };
            let _ = writeln!(out, "  {left:<24} {}", s.help);
        }
        let _ = writeln!(out, "  {:<24} print this help", "--help");
        out
    }

    /// Parse an argument list against the accepted flags.
    ///
    /// # Errors
    /// Returns a message for unknown flags, positional arguments, and flags missing their
    /// value. `--help` is reported as the special message `"help"` so callers can print
    /// usage and exit zero.
    pub fn try_parse<I>(specs: &[FlagSpec], args: I) -> Result<ParsedArgs, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = ParsedArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err("help".to_string());
            }
            let (name, inline) = match arg.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            let spec = match specs.iter().find(|s| s.name == name) {
                Some(s) => s,
                None => return Err(format!("unknown argument `{arg}`")),
            };
            let value = match (spec.value_name, inline) {
                (None, None) => None,
                (None, Some(_)) => {
                    return Err(format!("flag `{name}` does not take a value"));
                }
                (Some(_), Some(v)) => Some(v),
                (Some(placeholder), None) => match it.next() {
                    Some(v) => Some(v),
                    None => {
                        return Err(format!("flag `{name}` expects a value <{placeholder}>"));
                    }
                },
            };
            parsed.values.push((spec.name, value));
        }
        Ok(parsed)
    }

    /// Parse `std::env::args()` (exiting with usage text on `--help` or any error).
    pub fn parse_or_exit(binary: &str, about: &str, specs: &[FlagSpec]) -> ParsedArgs {
        match try_parse(specs, std::env::args().skip(1)) {
            Ok(p) => p,
            Err(e) if e == "help" => {
                print!("{}", usage(binary, about, specs));
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{binary}: {e}\n");
                eprint!("{}", usage(binary, about, specs));
                std::process::exit(2);
            }
        }
    }
}

/// Print a section header.
pub fn header(title: &str) {
    println!();
    println!("{}", "=".repeat(title.len().max(20)));
    println!("{title}");
    println!("{}", "=".repeat(title.len().max(20)));
}

/// Print a machine-description line (Table 1 context for every experiment).
pub fn machine_line(machine: &usf_simsched::Machine) {
    println!(
        "simulated machine: {} cores / {} sockets, {:.0} GB/s memory bandwidth, quantum {}",
        machine.cores(),
        machine.sockets(),
        machine.memory_bw_gbps,
        machine.preemption_quantum
    );
}

/// Render a labelled table: one row per entry of `rows`, one column per entry of `cols`,
/// cell values provided by `value`. Values are printed with `width` characters.
pub fn print_table(
    row_header: &str,
    rows: &[String],
    cols: &[String],
    width: usize,
    mut value: impl FnMut(usize, usize) -> String,
) {
    print!("{row_header:>20} ");
    for c in cols {
        print!("{c:>width$} ");
    }
    println!();
    for (ri, r) in rows.iter().enumerate() {
        print!("{r:>20} ");
        for ci in 0..cols.len() {
            print!("{:>width$} ", value(ri, ci));
        }
        println!();
    }
}

/// Format a throughput in MFLOP/s with a compact width.
pub fn fmt_mflops(v: f64) -> String {
    if v <= 0.0 {
        "-".to_string()
    } else if v >= 10_000.0 {
        format!("{:.0}", v)
    } else {
        format!("{:.1}", v)
    }
}

/// Format a speedup (`×` suffix), or `-` when the baseline is missing.
pub fn fmt_speedup(v: f64) -> String {
    if v <= 0.0 || !v.is_finite() {
        "-".to_string()
    } else {
        format!("{v:.2}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_mflops(0.0), "-");
        assert_eq!(fmt_mflops(123.456), "123.5");
        assert_eq!(fmt_mflops(20000.0), "20000");
        assert_eq!(fmt_speedup(2.0), "2.00x");
        assert_eq!(fmt_speedup(f64::NAN), "-");
    }

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_accepts_known_flags_and_values() {
        const SPECS: &[cli::FlagSpec] = &[
            cli::FlagSpec {
                name: "--full",
                value_name: None,
                help: "",
            },
            cli::FlagSpec {
                name: "--producers",
                value_name: Some("N"),
                help: "",
            },
        ];
        let p = cli::try_parse(SPECS, strs(&["--full", "--producers", "8"])).unwrap();
        assert!(p.has("--full"));
        assert_eq!(p.get_or("--producers", 1usize).unwrap(), 8);
        assert_eq!(p.scale(), Scale::Full);
        let p = cli::try_parse(SPECS, strs(&["--producers=12"])).unwrap();
        assert_eq!(p.get_or("--producers", 1usize).unwrap(), 12);
        assert_eq!(p.scale(), Scale::Quick);
        assert_eq!(p.get_or("--missing", 7usize).unwrap(), 7);
    }

    #[test]
    fn cli_rejects_unknown_flags_and_bad_values() {
        let err = cli::try_parse(cli::SCALE_FLAGS, strs(&["--ful"])).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        let err = cli::try_parse(cli::SCALE_FLAGS, strs(&["positional"])).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        let err = cli::try_parse(cli::SCALE_FLAGS, strs(&["--full=yes"])).unwrap_err();
        assert!(err.contains("does not take a value"), "{err}");
        const SPECS: &[cli::FlagSpec] = &[cli::FlagSpec {
            name: "--n",
            value_name: Some("N"),
            help: "",
        }];
        let err = cli::try_parse(SPECS, strs(&["--n"])).unwrap_err();
        assert!(err.contains("expects a value"), "{err}");
        let p = cli::try_parse(SPECS, strs(&["--n", "abc"])).unwrap();
        assert!(p.get_or("--n", 0usize).is_err());
        assert_eq!(
            cli::try_parse(SPECS, strs(&["--help"])).unwrap_err(),
            "help"
        );
    }

    #[test]
    fn cli_usage_lists_flags() {
        let u = cli::usage("fig3_matmul", "Regenerates Figure 3.", cli::SCALE_FLAGS);
        assert!(u.contains("--quick"));
        assert!(u.contains("--full"));
        assert!(u.contains("--help"));
        assert!(u.contains("Usage: fig3_matmul"));
    }

    #[test]
    fn print_table_runs() {
        print_table(
            "rows",
            &["a".to_string(), "b".to_string()],
            &["x".to_string()],
            8,
            |r, c| format!("{r}{c}"),
        );
        header("test");
        machine_line(&usf_simsched::Machine::small(2));
    }
}
