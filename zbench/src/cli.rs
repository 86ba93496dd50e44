//! Command-line parsing. Every argument is checked before any work runs,
//! so a typo fails at once with a usage message instead of after a run.

use crate::jobs::Workload;

pub const USAGE: &str = "\
usage: zbench [--workload paper|sweep|wide] [--seed N] [--seconds N] [--trace 0|1]
       zbench reference --workload paper|sweep|wide

  --workload W   which job list to run (default paper)
  --seed N       polarity seed passed to VerifyOptions::seed, decimal or 0x-hex
                 (default 0xC0FFEE); seeds 2k and 2k+1 give the same run
  --seconds N    measurement budget: passes over the job list repeat while
                 another pass still fits (at least one pass; default 30)
  --trace 0|1    0 = end-to-end metrics, 1 = traced per-layer run (default 0)

`reference` recomputes the checked-in reference verdicts of a workload and
prints them as `reference.tsv` rows.";

/// A fully checked measurement configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    Run(RunConfig),
    Reference(Workload),
    Help,
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--seed: not an unsigned integer: {s:?}"))
}

/// Parses the arguments after the program name.
pub fn parse<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Command, String> {
    let mut it = args.into_iter().peekable();
    let reference = it.next_if_eq(&"reference").is_some();
    let mut cfg = RunConfig {
        workload: Workload::Paper,
        seed: crate::DEFAULT_SEED,
        seconds: 30,
        trace: false,
    };
    let mut run_only = None;
    while let Some(flag) = it.next() {
        match flag {
            "-h" | "--help" => return Ok(Command::Help),
            "--workload" => {
                let w = value(flag, &mut it)?;
                cfg.workload = Workload::parse(w).ok_or_else(|| {
                    format!("unknown workload {w:?} (expected paper, sweep or wide)")
                })?;
            }
            "--seed" => {
                cfg.seed = parse_seed(value(flag, &mut it)?)?;
                run_only = Some(flag);
            }
            "--seconds" => {
                let s = value(flag, &mut it)?;
                cfg.seconds = s
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--seconds: not a whole number >= 1: {s:?}"))?;
                run_only = Some(flag);
            }
            "--trace" => {
                cfg.trace = match value(flag, &mut it)? {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace: expected 0 or 1, got {t:?}")),
                };
                run_only = Some(flag);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (reference, run_only) {
        (true, Some(flag)) => Err(format!("{flag} does not apply to `reference`")),
        (true, None) => Ok(Command::Reference(cfg.workload)),
        (false, _) => Ok(Command::Run(cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &str) -> Result<Command, String> {
        parse(args.split_whitespace())
    }

    #[test]
    fn accepts_the_full_contract_form() {
        let cmd = run("--workload sweep --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunConfig {
                workload: Workload::Sweep,
                seed: 7,
                seconds: 12,
                trace: true,
            })
        );
    }

    #[test]
    fn defaults_match_the_harness_seed() {
        let Command::Run(cfg) = run("").unwrap() else {
            panic!("expected a run");
        };
        assert_eq!(cfg.seed, 0xC0FFEE);
        assert_eq!(cfg.workload, Workload::Paper);
        assert!(!cfg.trace);
        assert_eq!(run("--seed 0xC0FFEE").unwrap(), run("").unwrap());
    }

    #[test]
    fn rejects_bad_arguments_before_running() {
        for bad in [
            "--workload nope",
            "--workload",
            "--frobnicate",
            "--seed -1",
            "--seed 0xZZ",
            "--seconds 0",
            "--seconds 2.5",
            "--trace 2",
            "paper",
            "reference --seed 3",
            "--workload wide reference",
        ] {
            assert!(run(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn help_and_reference_modes() {
        assert_eq!(run("--help").unwrap(), Command::Help);
        assert_eq!(run("--workload wide -h").unwrap(), Command::Help);
        assert_eq!(
            run("reference --workload wide").unwrap(),
            Command::Reference(Workload::Wide)
        );
    }
}
