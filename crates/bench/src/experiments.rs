//! The experiments of Section 6, one function per table / figure.

use std::collections::HashMap;
use std::time::Duration;

use smr_datagen::DatasetPreset;
use smr_graph::stats::{capacity_histograms, similarity_histogram};
use smr_graph::{BipartiteGraph, Capacities};
use smr_mapreduce::{Combiner, Emitter, FlowContext, Job, JobConfig, Mapper, Reducer};
use smr_matching::{AlgorithmKind, GreedyMr, GreedyMrConfig, MatchingRun, StackMr, StackMrConfig};

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
            ExperimentScale::Smoke => vec![DatasetPreset::FlickrSmall],
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

    fn greedy_config(&self) -> GreedyMrConfig {
        GreedyMrConfig::default().with_job(self.job().with_name("greedy-mr"))
    }

    fn stack_config(&self, epsilon: f64) -> StackMrConfig {
        StackMrConfig::default()
            .with_epsilon(epsilon)
            .with_seed(self.seed)
            .with_job(self.job().with_name("stack-mr"))
    }

    /// Runs one of the three MapReduce algorithms of the evaluation.
    pub fn run(
        &self,
        algorithm: AlgorithmKind,
        graph: &BipartiteGraph,
        caps: &Capacities,
        epsilon: f64,
    ) -> MatchingRun {
        let config = smr_matching::runner::RunnerConfig {
            greedy_mr: self.greedy_config(),
            stack_mr: self.stack_config(epsilon),
        };
        let job = match algorithm {
            AlgorithmKind::GreedyMr => config.greedy_mr.job.clone(),
            _ => config.stack_mr.job.clone(),
        };
        smr_matching::run_algorithm(algorithm, graph, caps, &config, &FlowContext::new(job))
    }
}

/// The three MapReduce algorithms compared throughout the evaluation.
pub fn evaluated_algorithms() -> [AlgorithmKind; 3] {
    [
        AlgorithmKind::GreedyMr,
        AlgorithmKind::StackMr,
        AlgorithmKind::StackGreedyMr,
    ]
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
    let epsilon = 1.0;
    let figure = match preset {
        DatasetPreset::FlickrSmall => "Figure 1 (flickr-small)",
        DatasetPreset::FlickrLarge => "Figure 2 (flickr-large)",
        DatasetPreset::YahooAnswers => "Figure 3 (yahoo-answers)",
        DatasetPreset::FlickrXl => "Scale tier (flickr-xl)",
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
    let sweep = set.scale.sigma_sweep(preset);
    let caps = {
        let instance = set.instance(preset);
        instance.capacities(alpha)
    };
    for sigma in sweep {
        let graph = set.instance(preset).graph_at(sigma);
        for algorithm in evaluated_algorithms() {
            let run = set.run(algorithm, &graph, &caps, epsilon);
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
    let epsilon = 1.0;
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
                let run = set.run(AlgorithmKind::StackMr, &graph, &caps, epsilon);
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
        let run = set.run(AlgorithmKind::GreedyMr, &graph, &caps, 1.0);
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
// Shuffle-engine ablation
// ---------------------------------------------------------------------------

/// Mapper of the combiner-enabled ablation workload: tag-count over the
/// dataset's documents (the same aggregation shape as the tf-idf
/// vocabulary pass, with a heavy-hitter key distribution).
struct TagCountMapper;

impl Mapper for TagCountMapper {
    type InKey = usize;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, _doc: &usize, text: &String, out: &mut Emitter<String, u64>) {
        for tag in text.split_whitespace() {
            out.emit(tag.to_string(), 1);
        }
    }
}

struct TagCountCombiner;

impl Combiner for TagCountCombiner {
    type Key = String;
    type Value = u64;
    fn combine(&self, _tag: &String, counts: &[u64]) -> Vec<u64> {
        vec![counts.iter().sum()]
    }
}

struct TagCountReducer;

impl Reducer for TagCountReducer {
    type Key = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, tag: &String, counts: &[u64], out: &mut Emitter<String, u64>) {
        out.emit(tag.clone(), counts.iter().sum());
    }
}

/// One measured configuration of the streaming-shuffle profile.
#[derive(Debug, Clone)]
pub struct ShuffleAblationRow {
    /// Dataset preset the workload ran on.
    pub preset: DatasetPreset,
    /// Workload name (`tag-count` is combiner-enabled, `greedy-rounds`
    /// exercises the iterative no-combiner path).
    pub workload: &'static str,
    /// MapReduce rounds (jobs) the workload executed.
    pub rounds: usize,
    /// Records emitted by map tasks, before any combining.
    pub map_output_records: u64,
    /// Total records that crossed the shuffle into reduce partitions.
    pub records_shuffled: u64,
    /// Sorted runs merged by the streaming shuffle.
    pub merge_runs: u64,
    /// Wall-clock time spent in the shuffle phase, per round.
    pub shuffle_per_round: Duration,
    /// Total wall-clock time across all phases.
    pub total: Duration,
}

/// Profiles the streaming shuffle and returns the raw rows: for every
/// preset, a combiner-enabled tag-count job and a full GreedyMR run.
/// (The legacy concat+sort A/B baseline lives in `EXPERIMENTS.md`; the
/// legacy path itself has been removed.)
pub fn shuffle_rows(set: &mut ExperimentSet) -> Vec<ShuffleAblationRow> {
    let mut rows = Vec::new();
    for preset in set.scale.presets() {
        // Combiner-enabled aggregation over the dataset's documents.
        let documents: Vec<(usize, String)> = {
            let instance = set.instance(preset);
            instance
                .dataset
                .items
                .iter()
                .chain(instance.dataset.consumers.iter())
                .map(|doc| doc.text.clone())
                .enumerate()
                .collect()
        };
        // A graph instance for the iterative no-combiner workload.
        let caps = set.instance(preset).capacities(1.0);
        let graph = set.instance(preset).graph_at(preset.default_sigma());

        let job = Job::new(
            set.job()
                .with_name("shuffle-ablation-tagcount")
                .with_map_tasks(8)
                .with_reduce_tasks(4),
        );
        let result = job.run_with_combiner(
            &TagCountMapper,
            &TagCountCombiner,
            &TagCountReducer,
            documents,
        );
        rows.push(ShuffleAblationRow {
            preset,
            workload: "tag-count",
            rounds: 1,
            map_output_records: result.metrics.map_output_records,
            records_shuffled: result.metrics.shuffle_records,
            merge_runs: result.metrics.merge_runs,
            shuffle_per_round: result.metrics.timings.shuffle,
            total: result.metrics.timings.total(),
        });

        let job = set.job().with_name("shuffle-ablation-greedy");
        let run = GreedyMr::new(GreedyMrConfig::default().with_job(job.clone())).run(
            &graph,
            &caps,
            &FlowContext::new(job),
        );
        let rounds = run.rounds.max(1);
        let shuffle_total: Duration = run.job_metrics.iter().map(|m| m.timings.shuffle).sum();
        let wall_total: Duration = run.job_metrics.iter().map(|m| m.timings.total()).sum();
        rows.push(ShuffleAblationRow {
            preset,
            workload: "greedy-rounds",
            rounds: run.rounds,
            map_output_records: run.job_metrics.iter().map(|m| m.map_output_records).sum(),
            records_shuffled: run.total_shuffled_records(),
            merge_runs: run.job_metrics.iter().map(|m| m.merge_runs).sum(),
            shuffle_per_round: shuffle_total / rounds as u32,
            total: wall_total,
        });
    }
    rows
}

/// Streaming-shuffle profile: per-round shuffle wall time, records
/// shuffled vs map output (the combiner's shrink factor) and runs merged,
/// on a combiner-enabled aggregation and on GreedyMR rounds.
pub fn shuffle_ablation(set: &mut ExperimentSet) -> Table {
    let mut table = Table::new(
        "Shuffle profile: combine-while-partitioning + k-way merge",
        &[
            "dataset",
            "workload",
            "rounds",
            "map-out",
            "shuffled",
            "merge-runs",
            "shuffle/round",
            "total",
        ],
    );
    for row in shuffle_rows(set) {
        table.push_row(vec![
            row.preset.name().to_string(),
            row.workload.to_string(),
            row.rounds.to_string(),
            row.map_output_records.to_string(),
            row.records_shuffled.to_string(),
            row.merge_runs.to_string(),
            format!("{:.2?}", row.shuffle_per_round),
            format!("{:.2?}", row.total),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Similarity-join ablation (streaming join with suffix-bound pruning)
// ---------------------------------------------------------------------------

/// One measured configuration of the streaming similarity join.
#[derive(Debug, Clone)]
pub struct JoinAblationRow {
    /// Dataset preset the join ran on.
    pub preset: DatasetPreset,
    /// Similarity threshold σ.
    pub sigma: f64,
    /// Candidate pairs generated by probing (what a dedup-only probe —
    /// the pre-streaming join — would have shuffled).
    pub candidates: u64,
    /// Candidates pruned on `partial score + remainder bound < σ` without
    /// a shuffle record or a vector fetch.
    pub pruned_cheap: u64,
    /// Candidates verified with an exact dot product (the survivors).
    pub verified_exact: u64,
    /// Records the probe job actually shuffled.
    pub records_shuffled: u64,
    /// Bytes the probe job shuffled.
    pub shuffle_bytes: u64,
    /// Term-range partitions the inverted index was persisted into.
    pub index_partitions: u64,
    /// Candidate edges in the verified graph.
    pub edges: usize,
}

/// Runs the streaming similarity join over every preset × σ of the scale's
/// sweep (fresh join per σ, through the facade's `MatchingPipeline`) and
/// reports the candidate accounting: generated vs pruned-cheap vs
/// verified-exact, plus the probe job's shuffle volume.  `candidates`
/// doubles as the A/B baseline — it is exactly what the pre-streaming
/// dedup probe shuffled.
pub fn join_rows(set: &mut ExperimentSet) -> Vec<JoinAblationRow> {
    use smr_text::TokenizerConfig;
    let mut rows = Vec::new();
    for preset in set.scale.presets() {
        let dataset = preset.generate();
        for sigma in set.scale.sigma_sweep(preset) {
            let candidate = social_content_matching::MatchingPipeline::new(dataset.clone())
                .tokenizer(TokenizerConfig::tags_only())
                .sigma(sigma)
                .job(set.job().with_name(format!("join-{}", preset.name())))
                .build_graph();
            let probe = candidate
                .report
                .jobs
                .last()
                .expect("the join always runs a probe job");
            rows.push(JoinAblationRow {
                preset,
                sigma,
                candidates: candidate.candidate_pairs as u64,
                pruned_cheap: candidate.candidates_pruned as u64,
                verified_exact: candidate.verify_exact as u64,
                records_shuffled: probe.shuffle_records,
                shuffle_bytes: probe.shuffle_bytes,
                index_partitions: probe
                    .user_counters
                    .get(smr_simjoin::join::counter::INDEX_PARTITIONS)
                    .copied()
                    .unwrap_or(0),
                edges: candidate.graph.num_edges(),
            });
        }
    }
    rows
}

/// Streaming-join profile: candidates generated / pruned cheap / verified
/// exact per preset × σ, with the probe shuffle volume.  The `candidates`
/// column is the pre-streaming baseline (dedup probe shuffled one record
/// per candidate), so `shuffled` vs `candidates` is the communication A/B.
pub fn join_ablation(set: &mut ExperimentSet) -> Table {
    let mut table = Table::new(
        "Join profile: partial products + suffix-bound pruning \
         (candidates = dedup-probe baseline shuffle)",
        &[
            "dataset",
            "sigma",
            "candidates",
            "pruned-cheap",
            "verified-exact",
            "shuffled",
            "shuffle-bytes",
            "index-parts",
            "edges",
        ],
    );
    for row in join_rows(set) {
        table.push_row(vec![
            row.preset.name().to_string(),
            fmt_f(row.sigma, 2),
            row.candidates.to_string(),
            row.pruned_cheap.to_string(),
            row.verified_exact.to_string(),
            row.records_shuffled.to_string(),
            row.shuffle_bytes.to_string(),
            row.index_partitions.to_string(),
            row.edges.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Sketch candidate-generation frontier (recall vs shuffle cost)
// ---------------------------------------------------------------------------

/// One generator × preset point of the sketch recall/cost frontier.
#[derive(Debug, Clone)]
pub struct SketchFrontierRow {
    /// Dataset preset the generator ran on.
    pub preset: DatasetPreset,
    /// Similarity threshold σ (the preset's default).
    pub sigma: f64,
    /// The generator's tag (`exact`, `disco-λ`, `lsh-BxR`).
    pub generator: String,
    /// Whether this is the exact reference row of its preset.
    pub is_exact: bool,
    /// Edges the generator kept (every one exactly verified at σ).
    pub edges: usize,
    /// Fraction of the exact join's edges recovered.
    pub recall: f64,
    /// Candidate pairs generated before pruning/verification.
    pub candidates: u64,
    /// Candidates that cost an exact dot product.
    pub verified_exact: u64,
    /// Records shuffled across the generator's two jobs.
    pub records_shuffled: u64,
    /// Bytes shuffled across the generator's two jobs.
    pub shuffle_bytes: u64,
}

/// Sweeps the candidate generators — the exact prefix-filter join
/// (recall = 1 reference), DISCO sampling at λ ∈ {4, 16} and MinHash/LSH
/// banding at (bands × rows) ∈ {16×2, 8×4} — over the flickr presets at
/// their default σ, with each preset's well-known sketch seed.  Every
/// generator ends in exact verification, so a sketch's edge set is a
/// subset of the exact join's with bit-identical weights and recall is
/// simply the edge-count ratio.
pub fn sketch_rows(set: &mut ExperimentSet) -> Vec<SketchFrontierRow> {
    use smr_sketch::{CandidateGenerator, DiscoSampler, ExactPrefixJoin, LshBander};
    use smr_text::{Corpus, TokenizerConfig};

    let presets = match set.scale {
        ExperimentScale::Smoke => vec![DatasetPreset::FlickrSmall],
        // The frontier is the paper's small/large flickr contrast (what
        // EXPERIMENTS.md records); yahoo-answers adds runtime, not signal.
        ExperimentScale::Full => vec![DatasetPreset::FlickrSmall, DatasetPreset::FlickrLarge],
    };
    let mut rows = Vec::new();
    for preset in presets {
        let sigma = preset.default_sigma();
        let seed = preset.sketch_seed();
        let dataset = preset.generate();
        let tokenizer = TokenizerConfig::tags_only();
        let items = Corpus::build(dataset.items, &tokenizer);
        let consumers = Corpus::build(dataset.consumers, &tokenizer);
        let generators: Vec<Box<dyn CandidateGenerator>> = vec![
            Box::new(ExactPrefixJoin::new()),
            Box::new(DiscoSampler::new(seed, 4.0)),
            Box::new(DiscoSampler::new(seed, 16.0)),
            Box::new(LshBander::new(seed, 16, 2)),
            Box::new(LshBander::new(seed, 8, 4)),
        ];
        let mut exact_edges: Option<usize> = None;
        for generator in &generators {
            let flow = FlowContext::new(set.job().with_name(format!(
                "sketch-{}-{}",
                preset.name(),
                generator.name()
            )));
            let result = generator.generate(&items, &consumers, sigma, &flow);
            let edges = result.graph.num_edges();
            let is_exact = exact_edges.is_none();
            let reference = *exact_edges.get_or_insert(edges);
            rows.push(SketchFrontierRow {
                preset,
                sigma,
                generator: result.generator,
                is_exact,
                edges,
                recall: if reference == 0 {
                    1.0
                } else {
                    edges as f64 / reference as f64
                },
                candidates: result.candidate_pairs as u64,
                verified_exact: result.verify_exact as u64,
                records_shuffled: result.shuffled_records,
                shuffle_bytes: result.shuffled_bytes,
            });
        }
    }
    rows
}

/// The recall-vs-shuffle-cost frontier: one row per generator × preset,
/// exact first as the recall = 1 reference.
pub fn sketch_frontier(rows: &[SketchFrontierRow]) -> Table {
    let mut table = Table::new(
        "Sketch frontier: recall vs shuffle cost per candidate generator \
         (every kept edge exactly verified at σ)",
        &[
            "dataset",
            "sigma",
            "generator",
            "edges",
            "recall",
            "candidates",
            "verified-exact",
            "shuffled",
            "shuffle-bytes",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.preset.name().to_string(),
            fmt_f(row.sigma, 2),
            row.generator.clone(),
            row.edges.to_string(),
            fmt_f(row.recall, 3),
            row.candidates.to_string(),
            row.verified_exact.to_string(),
            row.records_shuffled.to_string(),
            row.shuffle_bytes.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Spill (out-of-core) ablation
// ---------------------------------------------------------------------------

/// One measured memory-budget configuration of the spill experiment.
#[derive(Debug, Clone)]
pub struct SpillAblationRow {
    /// Name of the dataset the workload ran on.
    pub dataset: String,
    /// Memory budget in bytes (`None` = unlimited).
    pub budget: Option<u64>,
    /// Records that crossed the shuffle.
    pub records_shuffled: u64,
    /// Sorted runs spilled to disk and merged back.
    pub disk_runs: u64,
    /// Encoded bytes written to spill files.
    pub spill_bytes: u64,
    /// Wall-clock map phase (includes spilling).
    pub map: Duration,
    /// Wall-clock shuffle phase (includes streaming disk runs).
    pub shuffle: Duration,
    /// Total wall-clock time.
    pub total: Duration,
    /// Whether this run's output was byte-identical to the
    /// unlimited-budget run (always checked, never assumed).
    pub output_matches_unlimited: bool,
}

fn budget_name(budget: Option<u64>) -> String {
    match budget {
        None => "unlimited".to_string(),
        Some(bytes) if bytes % 1024 == 0 => format!("{}KiB", bytes / 1024),
        Some(bytes) => format!("{bytes}B"),
    }
}

/// The budgets the spill experiment sweeps at each scale.
fn spill_budgets(scale: ExperimentScale) -> Vec<Option<u64>> {
    match scale {
        ExperimentScale::Smoke => vec![None, Some(4 * 1024)],
        ExperimentScale::Full => vec![None, Some(32 * 1024), Some(4 * 1024)],
    }
}

/// Runs the out-of-core ablation: the combiner-enabled tag-count workload
/// over the spill-scale dataset (`flickr-xl` at full scale, the preset
/// sweep's dataset at smoke scale), A/B-ing memory budgets.  Every
/// budgeted run's output is compared byte-for-byte against the
/// unlimited-budget reference.
pub fn spill_rows(set: &mut ExperimentSet) -> Vec<SpillAblationRow> {
    let dataset = match set.scale {
        ExperimentScale::Smoke => DatasetPreset::FlickrSmall.generate(),
        // The spill tier: big enough that a small budget forces heavy
        // spilling, generated directly (no similarity join needed here).
        ExperimentScale::Full => DatasetPreset::FlickrXl.generate(),
    };
    let documents: Vec<(usize, String)> = dataset
        .items
        .iter()
        .chain(dataset.consumers.iter())
        .map(|doc| doc.text.clone())
        .enumerate()
        .collect();

    let run = |budget: Option<u64>| {
        Job::new(
            set.job()
                .with_name("spill-ablation-tagcount")
                .with_map_tasks(8)
                .with_reduce_tasks(4)
                .with_memory_budget(budget),
        )
        .run_with_combiner(
            &TagCountMapper,
            &TagCountCombiner,
            &TagCountReducer,
            documents.clone(),
        )
    };

    let reference = run(None);
    let mut rows = Vec::new();
    for budget in spill_budgets(set.scale) {
        let result = if budget.is_none() {
            reference.clone()
        } else {
            run(budget)
        };
        rows.push(SpillAblationRow {
            dataset: dataset.name.clone(),
            budget,
            records_shuffled: result.metrics.shuffle_records,
            disk_runs: result.metrics.disk_runs,
            spill_bytes: result.metrics.spill_bytes,
            map: result.metrics.timings.map,
            shuffle: result.metrics.timings.shuffle,
            total: result.metrics.timings.total(),
            output_matches_unlimited: result.output == reference.output,
        });
    }
    rows
}

/// Out-of-core ablation: disk runs, spilled bytes and wall time as a
/// function of the memory budget, with a byte-identity check against the
/// unlimited-budget run.
pub fn spill_ablation(set: &mut ExperimentSet) -> Table {
    let mut table = Table::new(
        "Spill ablation: memory budget vs disk runs (output checked byte-identical)",
        &[
            "dataset",
            "budget",
            "shuffled",
            "disk-runs",
            "spill-bytes",
            "map",
            "shuffle",
            "total",
            "identical",
        ],
    );
    for row in spill_rows(set) {
        table.push_row(vec![
            row.dataset.clone(),
            budget_name(row.budget),
            row.records_shuffled.to_string(),
            row.disk_runs.to_string(),
            row.spill_bytes.to_string(),
            format!("{:.2?}", row.map),
            format!("{:.2?}", row.shuffle),
            format!("{:.2?}", row.total),
            if row.output_matches_unlimited {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Matching-rounds (out-of-core round state) ablation
// ---------------------------------------------------------------------------

/// One measured (algorithm × memory budget) configuration of the rounds
/// experiment.
#[derive(Debug, Clone)]
pub struct RoundsAblationRow {
    /// Name of the dataset the matchers ran on.
    pub dataset: String,
    /// Which matcher ran.
    pub algorithm: AlgorithmKind,
    /// Engine memory budget in bytes (`None` = unlimited).
    pub budget: Option<u64>,
    /// σ the candidate graph was thresholded at.
    pub sigma: f64,
    /// Candidate edges of the thresholded graph.
    pub edges: usize,
    /// Algorithm-level rounds to convergence.
    pub rounds: usize,
    /// Records shuffled across every MapReduce job of the run.
    pub records_shuffled: u64,
    /// Sorted runs the engine spilled to disk and merged back.
    pub disk_runs: u64,
    /// Largest on-disk inter-round state the run held at any point — the
    /// peak-resident proxy for what the in-memory round path would have
    /// kept in RAM between rounds.
    pub max_round_state_bytes: u64,
    /// Whether the final matching was byte-identical to the
    /// unlimited-budget run of the same algorithm (always checked, never
    /// assumed).
    pub matches_unlimited: bool,
}

/// Runs the matching-rounds ablation: GreedyMR and StackMR on the rounds
/// tier (`flickr-large` at full scale, `flickr-small` at smoke scale) at
/// the preset's default σ, A/B-ing an unlimited engine budget against
/// 4 KiB.  Round state is disk-backed in both configurations (the
/// default); the budget controls the *shuffle* spill path, so `disk_runs`
/// measures the engine going out-of-core while `max_round_state_bytes`
/// measures the inter-round state that no longer lives in RAM.  Every
/// budgeted run's final matching is compared against the
/// unlimited-budget reference.
pub fn rounds_rows(set: &mut ExperimentSet) -> Vec<RoundsAblationRow> {
    let preset = match set.scale {
        ExperimentScale::Smoke => DatasetPreset::FlickrSmall,
        ExperimentScale::Full => DatasetPreset::FlickrLarge,
    };
    let sigma = preset.default_sigma();
    let (dataset_name, graph, caps) = {
        let instance = set.instance(preset);
        (
            instance.dataset.name.clone(),
            instance.graph_at(sigma),
            instance.capacities(1.0),
        )
    };
    let seed = set.seed;
    let base_job = set.job();
    let mut rows = Vec::new();
    for algorithm in [AlgorithmKind::GreedyMr, AlgorithmKind::StackMr] {
        let run_at = |budget: Option<u64>| -> MatchingRun {
            let job = base_job
                .clone()
                .with_name(format!("rounds-{}", algorithm.name()))
                .with_memory_budget(budget);
            let flow = FlowContext::new(job.clone());
            match algorithm {
                AlgorithmKind::GreedyMr => {
                    GreedyMr::new(GreedyMrConfig::default().with_job(job)).run(&graph, &caps, &flow)
                }
                _ => StackMr::new(StackMrConfig::default().with_seed(seed).with_job(job))
                    .run(&graph, &caps, &flow),
            }
        };
        let reference = run_at(None);
        for budget in [None, Some(4 * 1024)] {
            let run = if budget.is_none() {
                reference.clone()
            } else {
                run_at(budget)
            };
            rows.push(RoundsAblationRow {
                dataset: dataset_name.clone(),
                algorithm,
                budget,
                sigma,
                edges: graph.num_edges(),
                rounds: run.rounds,
                records_shuffled: run.total_shuffled_records(),
                disk_runs: run.job_metrics.iter().map(|m| m.disk_runs).sum(),
                max_round_state_bytes: run.max_round_state_bytes,
                matches_unlimited: run.matching == reference.matching,
            });
        }
    }
    rows
}

/// Matching-rounds ablation: rounds, shuffle volume, engine disk runs and
/// peak round state as a function of the memory budget, with a
/// byte-identity check of the final matching against the unlimited-budget
/// run.
pub fn rounds_ablation(set: &mut ExperimentSet) -> Table {
    let mut table = Table::new(
        "Rounds ablation: out-of-core matching rounds (final matching checked byte-identical)",
        &[
            "dataset",
            "algorithm",
            "budget",
            "sigma",
            "edges",
            "rounds",
            "shuffled",
            "disk-runs",
            "round-state-bytes",
            "identical",
        ],
    );
    for row in rounds_rows(set) {
        table.push_row(vec![
            row.dataset.clone(),
            row.algorithm.name().to_string(),
            budget_name(row.budget),
            fmt_f(row.sigma, 2),
            row.edges.to_string(),
            row.rounds.to_string(),
            row.records_shuffled.to_string(),
            row.disk_runs.to_string(),
            row.max_round_state_bytes.to_string(),
            if row.matches_unlimited {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Serving (standing index) experiment
// ---------------------------------------------------------------------------

/// One measured (preset × batch budget) configuration of the serving
/// experiment.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Name of the dataset served.
    pub dataset: String,
    /// Memory budget of the *batch* reference join (`None` = unlimited);
    /// the serving side runs no MapReduce job, so the budget only varies
    /// the reference the recall is checked against.
    pub budget: Option<u64>,
    /// Point queries issued (one per item, in arrival order).
    pub queries: usize,
    /// Median `match_one` latency.
    pub p50: Duration,
    /// 99th-percentile `match_one` latency.
    pub p99: Duration,
    /// Point queries per second over the whole stream.
    pub queries_per_sec: f64,
    /// Fraction of the batch join's candidate edges the point queries
    /// recovered (must be 1.0 — the serving index is exact).
    pub recall: f64,
    /// Value of the incremental assignment after replaying every arrival.
    pub online_value: f64,
    /// Value of the batch GreedyMR matching on the same instance.
    pub batch_value: f64,
    /// Disk reads the serving index performed for the whole query stream
    /// (cache hits excluded).
    pub disk_reads: u64,
}

/// The presets the serving experiment measures at each scale.
fn serving_presets(scale: ExperimentScale) -> Vec<DatasetPreset> {
    match scale {
        ExperimentScale::Smoke => vec![DatasetPreset::FlickrSmall],
        ExperimentScale::Full => vec![DatasetPreset::FlickrSmall, DatasetPreset::FlickrLarge],
    }
}

/// Runs the serving experiment: builds the standing index once per preset,
/// replays every item as a point query in a seeded arrival order (p50/p99
/// latency, queries/sec), checks recall against the batch join at the same
/// σ under each batch budget, and replays the arrivals through the
/// incremental matcher against batch GreedyMR's value.
pub fn serving_rows(set: &mut ExperimentSet) -> Vec<ServingRow> {
    use smr_datagen::ArrivalStream;
    use smr_matching::IncrementalMatcher;
    use social_content_matching::MatchingPipeline;

    let alpha = 1.0;
    let mut rows = Vec::new();
    for preset in serving_presets(set.scale) {
        let dataset = preset.generate();
        let sigma = preset.default_sigma();
        let serving = MatchingPipeline::new(dataset.clone()).sigma(sigma).serve();
        let stream = ArrivalStream::new(&dataset, alpha, set.seed);

        // Query phase: one timed point query per arrival.  Vectorization
        // happens outside the timed section — the index lookup is what the
        // experiment characterizes.
        let queries: Vec<_> = stream
            .arrivals
            .iter()
            .map(|a| (a.item, serving.vectorize(&dataset.items[a.item].text)))
            .collect();
        let reads_before = serving.index().disk_reads();
        let mut latencies = Vec::with_capacity(queries.len());
        let mut served_edges: Vec<(usize, usize)> = Vec::new();
        let stream_started = std::time::Instant::now();
        for (item, query) in &queries {
            let started = std::time::Instant::now();
            let matches = serving.match_vector(query, usize::MAX);
            latencies.push(started.elapsed());
            served_edges.extend(matches.iter().map(|m| (*item, m.consumer)));
        }
        let elapsed = stream_started.elapsed();
        let disk_reads = serving.index().disk_reads() - reads_before;
        latencies.sort_unstable();
        let p50 = latencies[latencies.len() / 2];
        let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
        let queries_per_sec = queries.len() as f64 / elapsed.as_secs_f64().max(1e-9);
        served_edges.sort_unstable();

        // Assignment phase: replay the arrivals through the incremental
        // matcher (same candidates the queries returned).
        let caps = dataset.capacities(alpha);
        let mut matcher = IncrementalMatcher::from_capacities(&caps);
        for (item, query) in &queries {
            let candidates: Vec<(usize, f64)> = serving
                .match_vector(query, usize::MAX)
                .into_iter()
                .map(|m| (m.consumer, m.score))
                .collect();
            matcher.arrive(*item, &candidates);
        }
        let online_value = matcher.total_weight();

        for budget in [None, Some(4 * 1024u64)] {
            let batch = MatchingPipeline::new(dataset.clone())
                .sigma(sigma)
                .job(
                    set.job()
                        .with_name(format!("serving-ref-{}", preset.name()))
                        .with_memory_budget(budget),
                )
                .build_graph();
            let mut batch_edges: Vec<(usize, usize)> = batch
                .graph
                .edges()
                .iter()
                .map(|e| (e.item.index(), e.consumer.index()))
                .collect();
            batch_edges.sort_unstable();
            let recovered = batch_edges
                .iter()
                .filter(|e| served_edges.binary_search(e).is_ok())
                .count();
            let recall = if batch_edges.is_empty() {
                1.0
            } else {
                recovered as f64 / batch_edges.len() as f64
            };
            let batch_run = set.run(AlgorithmKind::GreedyMr, &batch.graph, &caps, 1.0);
            rows.push(ServingRow {
                dataset: preset.name().to_string(),
                budget,
                queries: queries.len(),
                p50,
                p99,
                queries_per_sec,
                recall,
                online_value,
                batch_value: batch_run.value(&batch.graph),
                disk_reads,
            });
        }
    }
    rows
}

/// Serving experiment: point-query latency and throughput of the standing
/// index, recall against the batch join, and the incremental assignment's
/// value against batch GreedyMR.
pub fn serving_ablation(set: &mut ExperimentSet) -> Table {
    serving_table(&serving_rows(set))
}

/// Renders pre-computed serving rows (lets drivers inspect the rows — the
/// CLI fails the run on recall < 1.0 — before printing).
pub fn serving_table(rows: &[ServingRow]) -> Table {
    let mut table = Table::new(
        "Serving: standing-index point queries + incremental assignment \
         (recall vs the batch join at the same sigma)",
        &[
            "dataset",
            "batch-budget",
            "queries",
            "p50",
            "p99",
            "queries/s",
            "recall",
            "online-value",
            "greedy-mr-value",
            "disk-reads",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.dataset.clone(),
            budget_name(row.budget),
            row.queries.to_string(),
            format!("{:.2?}", row.p50),
            format!("{:.2?}", row.p99),
            format!("{:.0}", row.queries_per_sec),
            fmt_f(row.recall, 3),
            fmt_f(row.online_value, 2),
            fmt_f(row.batch_value, 2),
            row.disk_reads.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Distrib (multi-process shards) experiment
// ---------------------------------------------------------------------------

/// One measured configuration of the distrib experiment (`shards == 0` is
/// the in-process baseline).
#[derive(Debug, Clone)]
pub struct DistribRow {
    /// Name of the dataset the pipeline ran on.
    pub dataset: String,
    /// Which matcher ran.
    pub algorithm: AlgorithmKind,
    /// Worker processes (`0` = in-process baseline, no session).
    pub shards: usize,
    /// End-to-end wall clock of the whole pipeline run.
    pub wall: Duration,
    /// Records shuffled across every MapReduce job of the run.
    pub records_shuffled: u64,
    /// Shuffle bytes across every job — the cross-process exchange volume
    /// a sharded run moves through run files.
    pub shuffle_bytes: u64,
    /// Workers killed and respawned (0 on a fault-free run; only the
    /// coordinator observes this, workers report 0).
    pub respawns: u64,
    /// Whether this run reproduced the baseline byte-for-byte: same
    /// similarity-join edges, same final matching, same per-job
    /// shuffled-record profile (always checked, never assumed).
    pub matches_local: bool,
}

/// Runs the distrib experiment: the full pipeline in-process, then across
/// 1, 2 and 4 worker processes, comparing each sharded run byte-for-byte
/// against the in-process baseline (similarity-join edges, final matching,
/// per-job shuffle profile).
///
/// `worker_args` overrides the argv workers are re-invoked with; the CLI
/// passes `None` (workers replay the same `run-experiments` invocation),
/// while a `#[test]` must pass `["--exact", "<test name>", "--nocapture"]`
/// so the re-invoked test binary replays only the calling test.
pub fn distrib_rows(set: &mut ExperimentSet, worker_args: Option<Vec<String>>) -> Vec<DistribRow> {
    use smr_distrib::{is_worker_process, last_session_stats, ShardOptions};
    use social_content_matching::{MatchingPipeline, PipelineRun};

    let preset = match set.scale {
        ExperimentScale::Smoke => DatasetPreset::FlickrSmall,
        ExperimentScale::Full => DatasetPreset::FlickrLarge,
    };
    let dataset = preset.generate();
    let sigma = preset.default_sigma();
    let algorithm = AlgorithmKind::GreedyMr;
    let job = set.job().with_name("distrib");
    let pipeline = || {
        MatchingPipeline::new(dataset.clone())
            .sigma(sigma)
            .algorithm(algorithm)
            .job(job.clone())
    };
    let profile = |run: &PipelineRun| -> Vec<(String, u64)> {
        run.report
            .jobs
            .iter()
            .map(|j| (j.job_name.clone(), j.shuffle_records))
            .collect()
    };

    let started = std::time::Instant::now();
    let local = pipeline().run();
    let local_wall = started.elapsed();
    let row = |run: &PipelineRun, shards: usize, wall: Duration, respawns: u64| DistribRow {
        dataset: preset.name().to_string(),
        algorithm,
        shards,
        wall,
        records_shuffled: run.report.total_shuffled_records(),
        shuffle_bytes: run.report.totals.shuffle_bytes,
        respawns,
        matches_local: run.graph.edges() == local.graph.edges()
            && run.matching.matching == local.matching.matching
            && profile(run) == profile(&local),
    };

    let mut rows = vec![row(&local, 0, local_wall, 0)];
    for shards in [1, 2, 4] {
        let mut opts = ShardOptions::new(shards).with_session_key(format!("distrib-{shards}"));
        if let Some(args) = worker_args.clone() {
            opts = opts.with_worker_args(args);
        }
        let started = std::time::Instant::now();
        let sharded = pipeline().shard_options(opts).run();
        let wall = started.elapsed();
        // Session stats exist only in the coordinator; a worker spawned
        // for a later session replays this code without any.
        let respawns = if is_worker_process() {
            0
        } else {
            last_session_stats().map(|s| s.respawns).unwrap_or(0)
        };
        rows.push(row(&sharded, shards, wall, respawns));
    }
    rows
}

/// Distrib experiment: in-process baseline vs 1/2/4 worker processes, with
/// a byte-identity check of every sharded run against the baseline.
pub fn distrib_ablation(set: &mut ExperimentSet) -> Table {
    distrib_table(&distrib_rows(set, None))
}

/// Renders pre-computed distrib rows (lets drivers fail the run on a
/// byte-identity miss before printing).
pub fn distrib_table(rows: &[DistribRow]) -> Table {
    let mut table = Table::new(
        "Distrib: multi-process shards vs in-process (output checked byte-identical)",
        &[
            "dataset",
            "algorithm",
            "shards",
            "wall",
            "shuffled",
            "shuffle-bytes",
            "respawns",
            "identical",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.dataset.clone(),
            row.algorithm.name().to_string(),
            if row.shards == 0 {
                "local".to_string()
            } else {
                row.shards.to_string()
            },
            format!("{:.2?}", row.wall),
            row.records_shuffled.to_string(),
            row.shuffle_bytes.to_string(),
            row.respawns.to_string(),
            if row.matches_local {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    table
}

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
        assert_eq!(
            ExperimentScale::Smoke
                .sigma_sweep(DatasetPreset::FlickrSmall)
                .len(),
            2
        );
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
        let table = quality_and_iterations(&mut set, DatasetPreset::FlickrSmall);
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

    #[test]
    fn shuffle_profile_reports_both_workloads() {
        let mut set = smoke_set();
        let table = shuffle_ablation(&mut set);
        // 1 preset x 2 workloads.
        assert_eq!(table.num_rows(), 2);
        let rendered = table.render();
        assert!(rendered.contains("tag-count"));
        assert!(rendered.contains("greedy-rounds"));
    }

    #[test]
    fn combining_shuffles_strictly_fewer_records_than_the_map_emits() {
        let mut set = smoke_set();
        let rows = shuffle_rows(&mut set);
        let tag_count = rows
            .iter()
            .find(|r| r.workload == "tag-count")
            .expect("row present");
        // Combiner-enabled: combining while partitioning plus the
        // merge-side combine collapses per-task partial counts.
        assert!(
            tag_count.records_shuffled < tag_count.map_output_records,
            "{tag_count:?}"
        );
        // Every workload merges sorted runs.
        for row in &rows {
            assert!(row.merge_runs > 0, "{row:?}");
        }
    }

    #[test]
    fn join_profile_closes_its_candidate_accounting() {
        let mut set = smoke_set();
        let rows = join_rows(&mut set);
        // 1 preset × 2 σ points at smoke scale.
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(
                row.candidates,
                row.pruned_cheap + row.records_shuffled,
                "{row:?}"
            );
            assert_eq!(row.verified_exact, row.records_shuffled, "{row:?}");
            assert!(row.edges as u64 <= row.verified_exact, "{row:?}");
            assert!(row.index_partitions >= 1, "{row:?}");
        }
        // The probe shuffles strictly fewer records than the dedup-probe
        // baseline (= candidates) on every smoke configuration.
        assert!(rows.iter().all(|r| r.records_shuffled < r.candidates));
        let rendered = join_ablation(&mut smoke_set()).render();
        assert!(rendered.contains("pruned-cheap"));
    }

    /// CI regression guard: the streaming join's candidate accounting for
    /// `flickr-small` at σ = 0.16 is deterministic (map-side pruning runs
    /// on complete per-item scores, independent of threads and budgets).
    /// These exact counts gate against silent regressions in the prefix
    /// filter, the suffix bound or the partial-product accumulation.
    #[test]
    fn join_counts_regression_guard_flickr_small_sigma_016() {
        use smr_text::TokenizerConfig;
        let candidate =
            social_content_matching::MatchingPipeline::new(DatasetPreset::FlickrSmall.generate())
                .tokenizer(TokenizerConfig::tags_only())
                .sigma(0.16)
                .job(JobConfig::named("join-guard").with_threads(2))
                .build_graph();
        // 12 654 candidates is also what the pre-streaming dedup probe
        // shuffled (and exactly verified) at this σ; the suffix bound now
        // prunes 2 025 of them before the shuffle.  3 502 edges matches
        // the seed baseline in EXPERIMENTS.md, byte for byte.
        assert_eq!(candidate.candidate_pairs, 12_654);
        assert_eq!(candidate.candidates_pruned, 2_025);
        assert_eq!(candidate.verify_exact, 10_629);
        assert_eq!(candidate.graph.num_edges(), 3_502);
    }

    #[test]
    fn rounds_regression_guard_flickr_large_sigma_009() {
        // The densest point of the flickr-large sweep at the grown preset
        // size (4 200 photos / 640 users).  Rounds-to-convergence and the
        // total shuffle volume are exact-deterministic for GreedyMR (no
        // combiner on the round jobs, so threads and memory budgets move
        // bytes around without changing what crosses the shuffle); any
        // drift here means the round semantics changed, not just the
        // schedule.
        let mut set = ExperimentSet::new(ExperimentScale::Full, 2, 2011);
        let (graph, caps) = {
            let instance = set.instance(DatasetPreset::FlickrLarge);
            (instance.graph_at(0.09), instance.capacities(1.0))
        };
        assert_eq!(graph.num_edges(), 372_730);
        let run = set.run(AlgorithmKind::GreedyMr, &graph, &caps, 1.0);
        assert_eq!(run.rounds, 32);
        // A round shuffles one note per live adjacency entry plus one
        // own-record message per live node.  Summed over the 32 rounds
        // the live adjacency entries are 2 674 959 (the first round alone
        // lists every edge from both ends, 2 × 372 730; the retired
        // two-views-per-entry protocol shuffled exactly twice this sum,
        // 5 349 918) and the live nodes 33 027.
        assert_eq!(run.total_shuffled_records(), 2_674_959 + 33_027);
        assert!(run.matching.is_feasible(&graph, &caps));
    }

    #[test]
    fn rounds_ablation_spills_under_a_tiny_budget_and_keeps_matchings_identical() {
        let mut set = smoke_set();
        let rows = rounds_rows(&mut set);
        assert_eq!(rows.len(), 4, "2 algorithms x 2 budgets");
        for row in &rows {
            assert!(row.matches_unlimited, "{row:?}");
            assert!(row.rounds > 0, "{row:?}");
            // Round state is disk-backed at every budget: the peak is the
            // size of the largest inter-round run file, never zero.
            assert!(row.max_round_state_bytes > 0, "{row:?}");
            match row.budget {
                None => assert_eq!(row.disk_runs, 0, "{row:?}"),
                Some(_) => assert!(row.disk_runs > 0, "{row:?}"),
            }
        }
        // The budget changes where the shuffle lives, not what it moves:
        // each algorithm shuffles the same records at both budgets.
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].algorithm, pair[1].algorithm);
            assert_eq!(
                pair[0].records_shuffled, pair[1].records_shuffled,
                "{pair:?}"
            );
            assert_eq!(pair[0].rounds, pair[1].rounds, "{pair:?}");
        }
    }

    #[test]
    fn distrib_experiment_is_byte_identical_at_every_shard_count() {
        let mut set = smoke_set();
        // The worker replays this test binary; without `--exact` it would
        // replay the whole suite instead of just this test.
        let rows = distrib_rows(
            &mut set,
            Some(
                [
                    "--exact",
                    "experiments::tests::distrib_experiment_is_byte_identical_at_every_shard_count",
                    "--nocapture",
                ]
                .map(String::from)
                .to_vec(),
            ),
        );
        assert_eq!(rows.len(), 4, "local baseline + shards 1, 2, 4");
        assert_eq!(rows[0].shards, 0);
        for row in &rows {
            assert!(row.matches_local, "{row:?}");
            assert!(row.records_shuffled > 0, "{row:?}");
        }
        // All shard counts shuffle the same records as the baseline.
        assert!(rows
            .windows(2)
            .all(|w| w[0].records_shuffled == w[1].records_shuffled));
        if !smr_distrib::is_worker_process() {
            let stats = smr_distrib::last_session_stats().expect("a session just completed");
            assert_eq!(stats.shards, 4);
            assert_eq!(stats.respawns, 0, "fault-free run must not respawn");
        }
    }

    #[test]
    fn spill_ablation_spills_under_a_tiny_budget_and_stays_byte_identical() {
        let mut set = smoke_set();
        let rows = spill_rows(&mut set);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.output_matches_unlimited, "{row:?}");
            match row.budget {
                None => {
                    assert_eq!(row.disk_runs, 0, "{row:?}");
                    assert_eq!(row.spill_bytes, 0, "{row:?}");
                }
                Some(_) => {
                    assert!(row.disk_runs > 0, "{row:?}");
                    assert!(row.spill_bytes > 0, "{row:?}");
                }
            }
        }
        // All budgets shuffle the same records: spilling moves bytes, not
        // semantics.
        assert!(rows
            .windows(2)
            .all(|w| w[0].records_shuffled == w[1].records_shuffled));
    }

    #[test]
    fn serving_recall_is_perfect_and_the_online_value_stays_in_the_envelope() {
        let mut set = smoke_set();
        let rows = serving_rows(&mut set);
        assert_eq!(rows.len(), 2, "1 preset x 2 batch budgets");
        for row in &rows {
            // The serving index is exact: every batch candidate edge is
            // recovered by the point queries under every batch budget.
            assert_eq!(row.recall, 1.0, "{row:?}");
            assert!(row.queries > 0 && row.queries_per_sec > 0.0, "{row:?}");
            assert!(row.p50 <= row.p99, "{row:?}");
            assert!(row.disk_reads > 0, "the index is disk-backed: {row:?}");
            // The shared 1/2 guarantee envelope of greedy matching.
            assert!(row.online_value >= 0.5 * row.batch_value - 1e-9, "{row:?}");
            assert!(row.batch_value > 0.0, "{row:?}");
        }
        let table = serving_ablation(&mut set).render();
        assert!(table.contains("flickr-small"));
        assert!(table.contains("recall"));
    }
}
