//! The experiments of Section 6, one function per table / figure, and
//! [`EXPERIMENTS`], the table `run-experiments` dispatches on.

use std::collections::HashMap;

use smr_datagen::DatasetPreset::{self, FlickrLarge, FlickrSmall, FlickrXl, YahooAnswers};
use smr_graph::stats::{capacity_histograms, similarity_histogram};
use smr_graph::{BipartiteGraph, Capacities};
use smr_mapreduce::{FlowContext, JobConfig};
use smr_matching::{AlgorithmKind, GreedyMrConfig, MatchingRun, StackMrConfig};

use crate::pipeline::DatasetInstance;
use crate::report::{fmt_f, fmt_pct, Table};

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Tiny runs for tests and Criterion benches: only `flickr-small`,
    /// two σ points, a single α.
    Smoke,
    /// The full sweep over all three presets (what `EXPERIMENTS.md`
    /// records).
    Full,
}

impl ExperimentScale {
    /// The presets included at this scale.
    pub fn presets(self) -> Vec<DatasetPreset> {
        match self {
            ExperimentScale::Smoke => vec![FlickrSmall],
            ExperimentScale::Full => DatasetPreset::all().to_vec(),
        }
    }

    /// The σ sweep for a preset at this scale.
    pub fn sigma_sweep(self, preset: DatasetPreset) -> Vec<f64> {
        let sweep = preset.sigma_sweep();
        match self {
            ExperimentScale::Smoke => vec![sweep[0], *sweep.last().unwrap()],
            ExperimentScale::Full => sweep,
        }
    }

    /// The α values used for the capacity-violation sweep (Figure 4).
    pub fn alpha_sweep(self) -> Vec<f64> {
        match self {
            ExperimentScale::Smoke => vec![1.0],
            ExperimentScale::Full => vec![0.5, 1.0, 2.0],
        }
    }
}

/// Shared state of an experiment run: scale, MapReduce configuration and a
/// cache of generated dataset instances (the similarity join runs once per
/// preset).
#[derive(Debug)]
pub struct ExperimentSet {
    /// Run scale.
    pub scale: ExperimentScale,
    /// Worker threads for every MapReduce job (0 = all cores).
    pub threads: usize,
    /// Random seed for the stack algorithms.
    pub seed: u64,
    instances: HashMap<DatasetPreset, DatasetInstance>,
}

impl ExperimentSet {
    /// Creates an experiment set.
    pub fn new(scale: ExperimentScale, threads: usize, seed: u64) -> Self {
        ExperimentSet {
            scale,
            threads,
            seed,
            instances: HashMap::new(),
        }
    }

    /// The MapReduce job configuration used by every experiment.
    pub fn job(&self) -> JobConfig {
        JobConfig::named("experiment").with_threads(self.threads)
    }

    /// The (cached) dataset instance for a preset.
    pub fn instance(&mut self, preset: DatasetPreset) -> &DatasetInstance {
        let job = self.job();
        self.instances
            .entry(preset)
            .or_insert_with(|| DatasetInstance::generate(preset, job))
    }

    /// Runs one of the three MapReduce algorithms of the evaluation, with
    /// the stack algorithms at their default ε = 1 (as in the paper).
    pub fn run(
        &self,
        algorithm: AlgorithmKind,
        graph: &BipartiteGraph,
        caps: &Capacities,
    ) -> MatchingRun {
        let config = smr_matching::runner::RunnerConfig {
            greedy_mr: GreedyMrConfig::default(),
            stack_mr: StackMrConfig::default().with_seed(self.seed),
        };
        let flow = FlowContext::new(self.job());
        smr_matching::run_algorithm(algorithm, graph, caps, &config, &flow)
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Table 1: dataset characteristics — |T|, |C| and the number of candidate
/// edges produced by the similarity join at the loosest σ of the sweep.
pub fn table1(set: &mut ExperimentSet) -> Table {
    let mut table = Table::new(
        "Table 1: dataset characteristics (|E| at the loosest sigma of the sweep)",
        &["dataset", "|T|", "|C|", "sigma", "|E|"],
    );
    for preset in set.scale.presets() {
        let instance = set.instance(preset);
        table.push_row(vec![
            preset.name().to_string(),
            instance.dataset.num_items().to_string(),
            instance.dataset.num_consumers().to_string(),
            fmt_f(instance.base_sigma, 2),
            instance.base_graph.num_edges().to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figures 1–3
// ---------------------------------------------------------------------------

/// Figures 1–3: b-matching value and number of MapReduce iterations as a
/// function of the number of candidate edges (σ sweep), for GreedyMR,
/// StackMR and StackGreedyMR on one dataset.
pub fn quality_and_iterations(set: &mut ExperimentSet, preset: DatasetPreset) -> Table {
    let alpha = 1.0;
    let figure = match preset {
        FlickrSmall => "Figure 1 (flickr-small)",
        FlickrLarge => "Figure 2 (flickr-large)",
        YahooAnswers => "Figure 3 (yahoo-answers)",
        FlickrXl => "Scale tier (flickr-xl)",
    };
    let mut table = Table::new(
        format!("{figure}: matching value and MapReduce iterations vs edges (alpha=1, eps=1)"),
        &[
            "sigma",
            "edges",
            "algorithm",
            "value",
            "mr-jobs",
            "rounds",
            "shuffled",
        ],
    );
    let caps = set.instance(preset).capacities(alpha);
    for sigma in set.scale.sigma_sweep(preset) {
        let graph = set.instance(preset).graph_at(sigma);
        for algorithm in [
            AlgorithmKind::GreedyMr,
            AlgorithmKind::StackMr,
            AlgorithmKind::StackGreedyMr,
        ] {
            let run = set.run(algorithm, &graph, &caps);
            table.push_row(vec![
                fmt_f(sigma, 2),
                graph.num_edges().to_string(),
                algorithm.name().to_string(),
                fmt_f(run.value(&graph), 2),
                run.mr_jobs.to_string(),
                run.rounds.to_string(),
                run.total_shuffled_records().to_string(),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// Figure 4: average capacity violation ε′ of StackMR as a function of the
/// number of edges, for several α (ε = 1, as in the paper).
pub fn violations(set: &mut ExperimentSet) -> Table {
    let mut table = Table::new(
        "Figure 4: StackMR capacity violations (eps=1)",
        &[
            "dataset",
            "alpha",
            "sigma",
            "edges",
            "avg violation",
            "max violation",
        ],
    );
    for preset in set.scale.presets() {
        let sweep = set.scale.sigma_sweep(preset);
        for alpha in set.scale.alpha_sweep() {
            let caps = set.instance(preset).capacities(alpha);
            for &sigma in &sweep {
                let graph = set.instance(preset).graph_at(sigma);
                let run = set.run(AlgorithmKind::StackMr, &graph, &caps);
                table.push_row(vec![
                    preset.name().to_string(),
                    fmt_f(alpha, 1),
                    fmt_f(sigma, 2),
                    graph.num_edges().to_string(),
                    fmt_pct(run.average_violation(&graph, &caps)),
                    fmt_pct(run.matching.max_violation(&graph, &caps)),
                ]);
            }
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// Figure 5: any-time behaviour of GreedyMR — the fraction of the final
/// b-matching value reached after each fraction of the iterations, plus the
/// point where 95% of the final value is reached.
pub fn anytime(set: &mut ExperimentSet) -> Table {
    let alpha = 1.0;
    let mut table = Table::new(
        "Figure 5: GreedyMR any-time convergence (alpha=1)",
        &[
            "dataset",
            "edges",
            "rounds",
            "25% rounds",
            "50% rounds",
            "75% rounds",
            "rounds to 95% value",
            "fraction of rounds",
        ],
    );
    for preset in set.scale.presets() {
        let sigma = preset.default_sigma();
        let caps = set.instance(preset).capacities(alpha);
        let graph = set.instance(preset).graph_at(sigma);
        let run = set.run(AlgorithmKind::GreedyMr, &graph, &caps);
        let total_rounds = run.value_per_round.len().max(1);
        let final_value = run.value_per_round.last().copied().unwrap_or(0.0);
        let frac_at = |fraction: f64| -> String {
            let idx = ((total_rounds as f64 * fraction).ceil() as usize).clamp(1, total_rounds) - 1;
            if final_value > 0.0 {
                fmt_pct(run.value_per_round[idx] / final_value)
            } else {
                "n/a".to_string()
            }
        };
        let (rounds95, fraction95) = run
            .rounds_to_reach_fraction(0.95)
            .unwrap_or((total_rounds, 1.0));
        table.push_row(vec![
            preset.name().to_string(),
            graph.num_edges().to_string(),
            total_rounds.to_string(),
            frac_at(0.25),
            frac_at(0.50),
            frac_at(0.75),
            rounds95.to_string(),
            fmt_pct(fraction95),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figures 6 and 7
// ---------------------------------------------------------------------------

/// Figure 6: the distribution of edge similarities of each dataset.
pub fn similarity_distribution(set: &mut ExperimentSet) -> Vec<Table> {
    let mut tables = Vec::new();
    for preset in set.scale.presets() {
        let instance = set.instance(preset);
        let histogram = similarity_histogram(&instance.base_graph, 10);
        let mut table = Table::new(
            format!("Figure 6: edge-similarity distribution ({})", preset.name()),
            &["similarity >=", "edges", "fraction"],
        );
        for (i, lower) in histogram.bucket_lower_bounds.iter().enumerate() {
            table.push_row(vec![
                fmt_f(*lower, 3),
                histogram.counts[i].to_string(),
                fmt_f(histogram.fraction(i), 4),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// Figure 7: the distribution of node capacities of each dataset
/// (items and consumers separately, α = 1).
pub fn capacity_distribution(set: &mut ExperimentSet) -> Vec<Table> {
    let mut tables = Vec::new();
    for preset in set.scale.presets() {
        let caps = set.instance(preset).capacities(1.0);
        let (items, consumers) = capacity_histograms(&caps, 12);
        let mut table = Table::new(
            format!(
                "Figure 7: capacity distribution ({}, alpha=1)",
                preset.name()
            ),
            &["capacity >=", "items", "consumers"],
        );
        for (i, lower) in items.bucket_lower_bounds.iter().enumerate() {
            table.push_row(vec![
                fmt_f(*lower, 0),
                items.counts[i].to_string(),
                consumers.counts[i].to_string(),
            ]);
        }
        tables.push(table);
    }
    tables
}

// ---------------------------------------------------------------------------
// The runner's table
// ---------------------------------------------------------------------------

/// An experiment: the tables it prints.
pub type Experiment = fn(&mut ExperimentSet) -> Vec<Table>;

/// Every experiment `run-experiments` knows: its command-line name and the
/// experiment, in the order `all` runs them.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", |set| vec![table1(set)]),
    ("fig6", similarity_distribution),
    ("fig7", capacity_distribution),
    ("fig1", |set| vec![quality_and_iterations(set, FlickrSmall)]),
    ("fig2", |set| vec![quality_and_iterations(set, FlickrLarge)]),
    ("fig3", |set| {
        vec![quality_and_iterations(set, YahooAnswers)]
    }),
    ("fig4", |set| vec![violations(set)]),
    ("fig5", |set| vec![anytime(set)]),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_set() -> ExperimentSet {
        ExperimentSet::new(ExperimentScale::Smoke, 2, 7)
    }

    #[test]
    fn scale_controls_the_sweeps() {
        assert_eq!(ExperimentScale::Smoke.presets().len(), 1);
        assert_eq!(ExperimentScale::Full.presets().len(), 3);
        assert_eq!(ExperimentScale::Smoke.sigma_sweep(FlickrSmall).len(), 2);
        assert_eq!(ExperimentScale::Smoke.alpha_sweep(), vec![1.0]);
        assert_eq!(ExperimentScale::Full.alpha_sweep().len(), 3);
    }

    #[test]
    fn table1_reports_one_row_per_preset() {
        let mut set = smoke_set();
        let table = table1(&mut set);
        assert_eq!(table.num_rows(), 1);
        let rendered = table.render();
        assert!(rendered.contains("flickr-small"));
    }

    #[test]
    fn quality_experiment_produces_rows_for_every_algorithm_and_sigma() {
        let mut set = smoke_set();
        let table = quality_and_iterations(&mut set, FlickrSmall);
        // 2 sigma points x 3 algorithms.
        assert_eq!(table.num_rows(), 6);
        let rendered = table.render();
        assert!(rendered.contains("GreedyMR"));
        assert!(rendered.contains("StackMR"));
        assert!(rendered.contains("StackGreedyMR"));
    }

    #[test]
    fn violations_experiment_reports_bounded_violations() {
        let mut set = smoke_set();
        let table = violations(&mut set);
        assert_eq!(table.num_rows(), 2); // 1 preset x 1 alpha x 2 sigmas

        // Every reported violation is a percentage between 0 and 100%
        // (ε = 1 bounds the per-node violation by 100%).
        for line in table.render().lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let avg: f64 = cells[cells.len() - 2]
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!((0.0..=100.0).contains(&avg), "violation {avg} out of range");
        }
    }

    #[test]
    fn anytime_experiment_reports_monotone_fractions() {
        let mut set = smoke_set();
        let table = anytime(&mut set);
        assert_eq!(table.num_rows(), 1);
        assert!(table.render().contains('%'));
    }

    #[test]
    fn distribution_experiments_cover_every_preset() {
        let mut set = smoke_set();
        assert_eq!(similarity_distribution(&mut set).len(), 1);
        assert_eq!(capacity_distribution(&mut set).len(), 1);
    }
}
