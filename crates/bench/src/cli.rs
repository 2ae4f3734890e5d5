//! The `stsl-exp` command line.
//!
//! ```text
//! stsl-exp list
//! stsl-exp <id>... [--quick | --full] [--seed N]
//! stsl-exp all     [--quick | --full] [--seed N]
//! ```
//!
//! Anything else is a [`UsageError`] naming the offending token; the
//! binary reports it and exits with status 2.

use crate::{find, Experiment, Preset, EXPERIMENTS};

/// The synopsis printed with every usage error.
pub const USAGE: &str = "usage: stsl-exp list
       stsl-exp <id>... [--quick | --full] [--seed N]
       stsl-exp all [--quick | --full] [--seed N]";

/// A parsed command line.
#[derive(Debug)]
pub enum Command {
    /// Print the registry.
    List,
    /// Run `experiments` in order.
    Run {
        /// Registry entries to run.
        experiments: Vec<&'static Experiment>,
        /// The preset every run uses.
        preset: Preset,
        /// Overrides each entry's default seed.
        seed: Option<u64>,
    },
}

/// A command line `stsl-exp` cannot run, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "usage error: {}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a [`UsageError`] for an unknown id or flag, a stray argument
/// after `list` or `all`, a malformed `--seed`, both presets at once, or
/// `--full` on an experiment without a full preset.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, UsageError> {
    let mut words = Vec::new();
    let mut preset = None;
    let mut seed = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "--full" => {
                let p = if arg == "--quick" {
                    Preset::Quick
                } else {
                    Preset::Full
                };
                if preset.is_some_and(|q| q != p) {
                    return Err(UsageError("--quick and --full exclude each other".into()));
                }
                preset = Some(p);
            }
            "--seed" => {
                let value = args.next().unwrap_or_default();
                let n = value.parse().map_err(|_| {
                    UsageError(format!("--seed expects an integer, got {:?}", value))
                })?;
                seed = Some(n);
            }
            flag if flag.starts_with('-') => {
                return Err(UsageError(format!("unknown flag {:?}", flag)));
            }
            _ => words.push(arg),
        }
    }

    let experiments: Vec<&'static Experiment> = match words.split_first() {
        None => {
            return Err(UsageError(
                "expected `list`, `all` or an experiment id".into(),
            ))
        }
        Some((first, rest)) if first == "list" || first == "all" => {
            if let Some(stray) = rest.first() {
                return Err(UsageError(format!(
                    "stray argument {:?} after `{}`",
                    stray, first
                )));
            }
            if first == "list" {
                if preset.is_some() || seed.is_some() {
                    return Err(UsageError("`list` takes no flags".into()));
                }
                return Ok(Command::List);
            }
            EXPERIMENTS.iter().collect()
        }
        Some(_) => words
            .iter()
            .map(|w| {
                find(w).ok_or_else(|| {
                    UsageError(format!("unknown experiment {:?} (see `stsl-exp list`)", w))
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let preset = preset.unwrap_or(Preset::Standard);
    if preset == Preset::Full {
        if let Some(exp) = experiments.iter().find(|e| !e.full) {
            return Err(UsageError(format!("--full: {} has no full preset", exp.id)));
        }
    }
    Ok(Command::Run {
        experiments,
        preset,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, UsageError> {
        parse(line.split_whitespace().map(String::from))
    }

    fn error(line: &str) -> String {
        parse_str(line).unwrap_err().to_string()
    }

    #[test]
    fn ids_presets_and_seed_parse() {
        let Ok(Command::Run {
            experiments,
            preset,
            seed,
        }) = parse_str("fig4 --quick comm_cost --seed 5")
        else {
            panic!("expected a run");
        };
        let ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["fig4", "comm_cost"]);
        assert_eq!(preset, Preset::Quick);
        assert_eq!(seed, Some(5));

        let Ok(Command::Run {
            experiments,
            preset,
            seed,
        }) = parse_str("all")
        else {
            panic!("expected a run");
        };
        assert_eq!(experiments.len(), EXPERIMENTS.len());
        assert_eq!(preset, Preset::Standard);
        assert_eq!(seed, None);
        assert!(matches!(parse_str("list"), Ok(Command::List)));
        assert!(parse_str("table1 fleet_sweep --full").is_ok());
    }

    #[test]
    fn conflicting_presets_and_flagged_list_are_rejected() {
        assert!(error("table1 --quick --full").contains("exclude each other"));
        assert!(error("list --quick").contains("takes no flags"));
        assert!(error("").contains("expected `list`"));
    }
}
