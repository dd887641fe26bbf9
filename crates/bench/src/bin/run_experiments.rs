//! Command-line driver that regenerates the paper's tables and figures.
//!
//! ```text
//! run-experiments [EXPERIMENT ...] [--scale smoke|full] [--threads N] [--seed S]
//!
//! EXPERIMENT: table1 | fig1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | all
//! ```
//!
//! The names are the rows of [`smr_bench::experiments::EXPERIMENTS`]; `all`
//! runs every row in the table's order.  Engine, spill, join, round,
//! serving and shard costs are measured by the repo benchmark
//! (`benchmark/run.sh`), not here.

use std::process::ExitCode;

use smr_bench::experiments::{Experiment, ExperimentScale, ExperimentSet, EXPERIMENTS};

/// A row of [`EXPERIMENTS`].
type Entry = (&'static str, Experiment);

#[derive(Debug, Clone)]
struct CliOptions {
    experiments: Vec<String>,
    scale: ExperimentScale,
    threads: usize,
    seed: u64,
}

fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut options = CliOptions {
        experiments: Vec::new(),
        scale: ExperimentScale::Full,
        threads: 0,
        seed: 2011,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--scale" => {
                options.scale = match value("--scale")?.as_str() {
                    "smoke" => ExperimentScale::Smoke,
                    "full" => ExperimentScale::Full,
                    other => return Err(format!("unknown scale '{other}'\n{}", usage())),
                }
            }
            "--threads" => {
                options.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs an integer")?
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?
            }
            "--help" | "-h" => return Err(usage()),
            name => options.experiments.push(name.to_string()),
        }
    }
    if options.experiments.is_empty() {
        options.experiments.push("all".to_string());
    }
    Ok(options)
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: run-experiments [{}|all ...] [--scale smoke|full] [--threads N] [--seed S]",
        names.join("|")
    )
}

/// The entries to run, in order; `all` expands to the whole table.  Every
/// name is checked before anything runs.
fn plan(names: &[String]) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for name in names {
        if name == "all" {
            entries.extend_from_slice(EXPERIMENTS);
        } else {
            let entry = EXPERIMENTS
                .iter()
                .find(|(known, _)| known == name)
                .ok_or_else(|| format!("unknown experiment '{name}'\n{}", usage()))?;
            entries.push(*entry);
        }
    }
    Ok(entries)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (options, entries) = match parse_args(&args)
        .and_then(|options| plan(&options.experiments).map(|entries| (options, entries)))
    {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let mut set = ExperimentSet::new(options.scale, options.threads, options.seed);
    for (name, run) in entries {
        let started = std::time::Instant::now();
        for table in run(&mut set) {
            println!("{table}");
        }
        eprintln!("[{name} finished in {:.1?}]", started.elapsed());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_run_everything_at_full_scale() {
        let options = parse_args(&[]).unwrap();
        assert_eq!(options.experiments, vec!["all".to_string()]);
        assert_eq!(options.scale, ExperimentScale::Full);
        assert_eq!(options.seed, 2011);
    }

    #[test]
    fn flags_are_parsed() {
        let options = parse_args(&strings(&[
            "fig1",
            "fig4",
            "--scale",
            "smoke",
            "--threads",
            "3",
            "--seed",
            "99",
        ]))
        .unwrap();
        assert_eq!(options.experiments, vec!["fig1", "fig4"]);
        assert_eq!(options.scale, ExperimentScale::Smoke);
        assert_eq!(options.threads, 3);
        assert_eq!(options.seed, 99);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse_args(&strings(&["--scale", "planetary"])).is_err());
        assert!(parse_args(&strings(&["--threads", "many"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn unknown_experiments_are_rejected_before_anything_runs() {
        let error = plan(&strings(&["table1", "fig99"])).unwrap_err();
        assert!(
            error.contains("fig99") && error.contains(&usage()),
            "{error}"
        );
    }

    #[test]
    fn all_expands_to_the_whole_table_in_order() {
        let names: Vec<&str> = plan(&strings(&["all"]))
            .unwrap()
            .iter()
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(
            names,
            ["table1", "fig6", "fig7", "fig1", "fig2", "fig3", "fig4", "fig5"]
        );
    }
}
