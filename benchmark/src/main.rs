//! The repo benchmark: five named workloads, five end-to-end metrics,
//! a per-layer traced profile.  See `README.md` beside `Cargo.toml`.
//!
//! One binary plays three roles, told apart by `--role`:
//!
//! * no role — the **runner**: starts one process per workload and pass,
//!   prints every metric by name, writes results under `out/`;
//! * `workload` — runs one pass of one workload and prints a
//!   [`report::Report`];
//! * `rep` — runs one batch rep in a process of its own (every
//!   `batch-sharded` rep, and the in-process reference other workloads
//!   are compared with); `smr_distrib` workers re-execute this role.

mod batch;
mod json;
mod lanes;
mod proc;
mod report;
mod runner;
mod serve;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's own directory: `expected.json` is read from it and
/// `out/` is written under it.
fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[derive(Debug, Default)]
pub struct Cli {
    pub role: Option<String>,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub traced_only: bool,
    pub selfcheck: bool,
    pub list: bool,
    pub threads: usize,
    pub index: u64,
}

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
                     [--traced-only] [--selfcheck] [--list]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        threads: 1,
        ..Cli::default()
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: '{text}' is not a number\n{USAGE}"))
        }
        match flag.as_str() {
            "--role" => cli.role = Some(value()?.clone()),
            "--workload" => {
                let name = value()?;
                if !spec::is_workload(name) {
                    return Err(format!("unknown workload '{name}' (see --list)"));
                }
                cli.workload = Some(name.clone());
            }
            "--seed" => cli.seed = number(flag, value()?)?,
            "--seconds" => {
                cli.seconds = number(flag, value()?)?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in 1..=60".to_string());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--threads" => cli.threads = number(flag, value()?)?,
            "--index" => cli.index = number(flag, value()?)?,
            "--traced-only" => cli.traced_only = true,
            "--selfcheck" => cli.selfcheck = true,
            "--list" => cli.list = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if cli.trace.is_some() && cli.workload.is_none() {
        return Err(format!("--trace needs --workload\n{USAGE}"));
    }
    Ok(cli)
}

/// One pass of one workload, in this process.
fn workload_process(cli: &Cli) -> Result<(), String> {
    let name = cli
        .workload
        .as_deref()
        .ok_or("--role workload needs --workload")?;
    let traced = cli.trace.ok_or("--role workload needs --trace")?;
    let tmp = std::env::temp_dir();
    let report = match (batch::spec(name), traced) {
        (Some(spec), false) => batch::run_untraced(&spec, cli.seed, cli.seconds, &home(), &tmp),
        (Some(spec), true) => batch::run_traced(&spec, cli.seed, cli.seconds, &tmp),
        (None, false) => serve::run_untraced(cli.seed, cli.seconds, &home()),
        (None, true) => serve::run_traced(cli.seed, cli.seconds, &home()),
    };
    print!("{}", report.render());
    Ok(())
}

fn rep_process(cli: &Cli) -> Result<(), String> {
    let name = cli
        .workload
        .as_deref()
        .ok_or("--role rep needs --workload")?;
    let spec = batch::spec(name).ok_or_else(|| format!("{name} has no reps"))?;
    let traced = cli.trace.ok_or("--role rep needs --trace")?;
    batch::rep_process(&spec, cli.seed, traced, cli.threads, cli.index);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Before anything else: the spawn lane measures this path, and a
    // worker replaying `--role rep` must do nothing the coordinator did
    // not do.
    if args.iter().any(|a| a == "--noop") {
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("smr-benchmark: this is a debug build; timings would mean nothing (use run.sh)");
        return ExitCode::from(2);
    }
    let outcome = parse_cli(&args).and_then(|cli| match cli.role.as_deref() {
        Some("workload") => workload_process(&cli).map(|()| true),
        Some("rep") => rep_process(&cli).map(|()| true),
        Some(other) => Err(format!("unknown role '{other}'")),
        None => runner::run(&cli, &home()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("smr-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = cli(&[
            "--workload",
            "batch-spill",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(cli.workload.as_deref(), Some("batch-spill"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (9, 12.0, Some(true)));
    }

    #[test]
    fn defaults_and_rejections() {
        let defaults = cli(&[]).expect("no arguments is the full run");
        assert_eq!(defaults.seed, spec::DEFAULT_SEED);
        assert_eq!(defaults.seconds, spec::RUN_SECONDS as f64);
        assert!(cli(&["--workload", "batch-nope"]).is_err());
        assert!(cli(&["--trace", "1"]).is_err());
        assert!(cli(&["--trace", "2", "--workload", "batch-greedy"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }
}
