//! Command-line driver that regenerates the paper's tables and figures.
//!
//! ```text
//! run-experiments [EXPERIMENT ...] [--scale smoke|full] [--threads N] [--seed S]
//!
//! EXPERIMENT: table1 | fig1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7
//!           | shuffle | spill | join | sketch | rounds | serving | distrib
//!           | all
//! ```
//!
//! `shuffle`, `spill`, `join`, `sketch`, `rounds`, `serving` and `distrib`
//! are not paper artefacts: `shuffle` profiles the engine's streaming
//! shuffle (sorted runs + k-way merge, combine-while-partitioning),
//! `spill` A/Bs memory budgets on the disk-spilling out-of-core path
//! (output checked byte-identical to the in-memory run), `rounds` A/Bs
//! memory budgets on the out-of-core matching rounds (final matching
//! checked byte-identical to the unlimited-budget run), `join` profiles
//! the streaming similarity join (candidates generated vs pruned cheap vs
//! verified exact, per preset and σ), `sketch` sweeps the pluggable
//! candidate generators (exact prefix join, DISCO sampling, MinHash/LSH
//! banding) and prints their recall-vs-shuffle-cost frontier (exact
//! asserted at recall 1.0, DISCO asserted to shuffle strictly fewer
//! records than exact somewhere), `serving` measures the standing serving index
//! (point-query latency/throughput, recall vs the batch join — asserted
//! to be exactly 1.0 — and the incremental assignment's value against
//! batch GreedyMR), and `distrib` A/Bs the full pipeline across 1/2/4
//! worker *processes* against the in-process baseline (output asserted
//! byte-identical at every shard count).
//!
//! `distrib` is deliberately excluded from `all`: its workers re-invoke
//! this binary with the same arguments and replay everything that runs
//! before the sharded sessions, so bundling it after the other
//! experiments would re-run the entire suite once per worker.  Run it as
//! its own invocation: `run-experiments distrib [--scale smoke|full]`.

use std::process::ExitCode;

use smr_bench::experiments::{self, ExperimentScale, ExperimentSet};
use smr_datagen::DatasetPreset;

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
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let value = args.get(i).ok_or("--scale needs a value")?;
                options.scale = match value.as_str() {
                    "smoke" => ExperimentScale::Smoke,
                    "full" => ExperimentScale::Full,
                    other => return Err(format!("unknown scale '{other}'")),
                };
            }
            "--threads" => {
                i += 1;
                options.threads = args
                    .get(i)
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?;
            }
            "--seed" => {
                i += 1;
                options.seed = args
                    .get(i)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--help" | "-h" => return Err(usage()),
            name => options.experiments.push(name.to_string()),
        }
        i += 1;
    }
    if options.experiments.is_empty() {
        options.experiments.push("all".to_string());
    }
    Ok(options)
}

fn usage() -> String {
    "usage: run-experiments \
     [table1|fig1|fig2|fig3|fig4|fig5|fig6|fig7|shuffle|spill|join|sketch|rounds|serving|distrib\
     |all ...] [--scale smoke|full] [--threads N] [--seed S]"
        .to_string()
}

fn run_experiment(name: &str, set: &mut ExperimentSet) -> Result<(), String> {
    match name {
        "table1" => println!("{}", experiments::table1(set)),
        "fig1" => println!(
            "{}",
            experiments::quality_and_iterations(set, DatasetPreset::FlickrSmall)
        ),
        "fig2" => println!(
            "{}",
            experiments::quality_and_iterations(set, DatasetPreset::FlickrLarge)
        ),
        "fig3" => println!(
            "{}",
            experiments::quality_and_iterations(set, DatasetPreset::YahooAnswers)
        ),
        "fig4" => println!("{}", experiments::violations(set)),
        "fig5" => println!("{}", experiments::anytime(set)),
        "fig6" => {
            for table in experiments::similarity_distribution(set) {
                println!("{table}");
            }
        }
        "fig7" => {
            for table in experiments::capacity_distribution(set) {
                println!("{table}");
            }
        }
        "shuffle" => println!("{}", experiments::shuffle_ablation(set)),
        "spill" => println!("{}", experiments::spill_ablation(set)),
        "join" => println!("{}", experiments::join_ablation(set)),
        "rounds" => println!("{}", experiments::rounds_ablation(set)),
        "serving" => {
            let rows = experiments::serving_rows(set);
            // The serving index shares the batch probe's pruning math and
            // verifies survivors exactly; anything below perfect recall is
            // a correctness bug, not a tuning knob — fail the run.
            if let Some(row) = rows.iter().find(|row| row.recall < 1.0) {
                return Err(format!(
                    "serving recall degraded below 1.0 against the batch join: {row:?}"
                ));
            }
            println!("{}", experiments::serving_table(&rows));
        }
        "sketch" => {
            let rows = experiments::sketch_rows(set);
            // The exact prefix join IS the reference; its recall is 1.0 by
            // construction, and a sketch generator that keeps no edges at
            // all produced an empty frontier point — both are bugs, not
            // tuning artefacts.
            if let Some(row) = rows.iter().find(|row| row.is_exact && row.recall != 1.0) {
                return Err(format!(
                    "exact generator must have recall 1.0 in the sketch frontier: {row:?}"
                ));
            }
            if let Some(row) = rows.iter().find(|row| !row.is_exact && row.edges == 0) {
                return Err(format!(
                    "sketch generator recovered no edges (unpopulated frontier point): {row:?}"
                ));
            }
            // DISCO's whole point is trading recall for shuffle volume; if
            // no DISCO row shuffles strictly fewer records than its
            // preset's exact join, the sampler is not sampling.
            let disco_saves = rows.iter().any(|row| {
                row.generator.starts_with("disco")
                    && rows.iter().any(|exact| {
                        exact.is_exact
                            && exact.preset == row.preset
                            && row.records_shuffled < exact.records_shuffled
                    })
            });
            if !disco_saves {
                return Err(
                    "no DISCO row shuffled strictly fewer records than the exact join".to_string(),
                );
            }
            println!("{}", experiments::sketch_frontier(&rows));
        }
        "distrib" => {
            let rows = experiments::distrib_rows(set, None);
            // The sharded engine is byte-identical to the in-process one
            // by construction; any divergence is a correctness bug, not a
            // measurement — fail the run.
            if let Some(row) = rows.iter().find(|row| !row.matches_local) {
                return Err(format!(
                    "sharded run diverged from the in-process baseline: {row:?}"
                ));
            }
            println!("{}", experiments::distrib_table(&rows));
        }
        "all" => {
            let all = [
                "table1", "fig6", "fig7", "fig1", "fig2", "fig3", "fig4", "fig5", "shuffle",
                "spill", "join", "sketch", "rounds", "serving",
            ];
            for exp in all {
                run_experiment(exp, set)?;
            }
        }
        other => return Err(format!("unknown experiment '{other}'\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let experiment_names = options.experiments.clone();
    let mut set = ExperimentSet::new(options.scale, options.threads, options.seed);
    for name in &experiment_names {
        let started = std::time::Instant::now();
        if let Err(message) = run_experiment(name, &mut set) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
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
    fn unknown_experiments_are_rejected_at_run_time() {
        let mut set = ExperimentSet::new(ExperimentScale::Smoke, 1, 1);
        assert!(run_experiment("fig99", &mut set).is_err());
    }

    #[test]
    fn shuffle_experiment_runs_at_smoke_scale() {
        let mut set = ExperimentSet::new(ExperimentScale::Smoke, 2, 1);
        assert!(run_experiment("shuffle", &mut set).is_ok());
    }

    #[test]
    fn spill_experiment_runs_at_smoke_scale() {
        let mut set = ExperimentSet::new(ExperimentScale::Smoke, 2, 1);
        assert!(run_experiment("spill", &mut set).is_ok());
    }

    #[test]
    fn rounds_experiment_runs_at_smoke_scale() {
        let mut set = ExperimentSet::new(ExperimentScale::Smoke, 2, 1);
        assert!(run_experiment("rounds", &mut set).is_ok());
    }

    #[test]
    fn join_experiment_runs_at_smoke_scale() {
        let mut set = ExperimentSet::new(ExperimentScale::Smoke, 2, 1);
        assert!(run_experiment("join", &mut set).is_ok());
    }

    #[test]
    fn sketch_experiment_runs_and_enforces_its_frontier_invariants() {
        let mut set = ExperimentSet::new(ExperimentScale::Smoke, 2, 1);
        assert!(run_experiment("sketch", &mut set).is_ok());
    }

    #[test]
    fn serving_experiment_runs_and_enforces_perfect_recall() {
        let mut set = ExperimentSet::new(ExperimentScale::Smoke, 2, 1);
        assert!(run_experiment("serving", &mut set).is_ok());
    }
}
