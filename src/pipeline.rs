//! The end-to-end pipeline of the paper, as one builder.
//!
//! The paper's system (its pipeline figure) is: documents → vector-space
//! representation → similarity join at threshold σ → capacities from the
//! activity/favourite signals (scaled by α) → a MapReduce b-matching
//! algorithm.  [`MatchingPipeline`] packages exactly that chain, running
//! every MapReduce job — the similarity join's probe job and every
//! matching round — through one [`FlowContext`], so a single [`FlowReport`]
//! accounts for the whole run:
//!
//! ```no_run
//! use social_content_matching::datagen::FlickrGenerator;
//! use social_content_matching::matching::AlgorithmKind;
//! use social_content_matching::text::TokenizerConfig;
//! use social_content_matching::MatchingPipeline;
//!
//! let dataset = FlickrGenerator::default().generate();
//! let run = MatchingPipeline::new(dataset)
//!     .tokenizer(TokenizerConfig::tags_only())
//!     .sigma(0.15)
//!     .alpha(1.0)
//!     .algorithm(AlgorithmKind::GreedyMr)
//!     .run();
//! println!(
//!     "{} edges matched, {} MapReduce jobs ({} simjoin + {} matching), {} records shuffled",
//!     run.matching.matching.len(),
//!     run.report.num_jobs(),
//!     run.simjoin_jobs,
//!     run.matching.mr_jobs,
//!     run.report.total_shuffled_records(),
//! );
//! ```

use smr_datagen::SocialDataset;
use smr_distrib::{run_sharded, ShardOptions};
use smr_graph::{BipartiteGraph, Capacities};
use smr_mapreduce::flow::{FlowContext, FlowReport};
use smr_mapreduce::JobConfig;
use smr_matching::runner::RunnerConfig;
use smr_matching::{run_algorithm, AlgorithmKind, GreedyMrConfig, MatchingRun, StackMrConfig};
use smr_simjoin::{mapreduce_similarity_join_vectors_flow, AlignedCorpora, SimJoinResult};
use smr_text::TokenizerConfig;

/// Builder for the paper's end-to-end pipeline: tokenize → similarity
/// join → capacities → matching, all through one [`FlowContext`].
#[derive(Debug, Clone)]
pub struct MatchingPipeline {
    dataset: SocialDataset,
    tokenizer: TokenizerConfig,
    sigma: f64,
    alpha: f64,
    algorithm: AlgorithmKind,
    job: JobConfig,
    seed: u64,
    epsilon: f64,
    max_rounds: Option<usize>,
    shard: Option<ShardOptions>,
}

/// The candidate-edge stage of a pipeline run: everything up to (and
/// including) the similarity join and the capacity assignment.
///
/// Node `i` of the join's graph is document `i` of its side of
/// `dataset` (`dataset.items[i]` or `dataset.consumers[i]`).
#[derive(Debug, Clone)]
pub struct CandidateGraph {
    /// The dataset the pipeline ran on (returned to the caller unchanged).
    pub dataset: SocialDataset,
    /// Capacities derived from the dataset's signals at the pipeline's α.
    pub capacities: Capacities,
    /// The similarity join's result: the candidate edges at threshold σ
    /// (weights are exact similarities), its candidate accounting and
    /// the metrics of its one job.
    pub join: SimJoinResult,
    /// Metrics of every job executed so far.
    pub report: FlowReport,
}

/// A complete pipeline run: the candidate stage plus the matching.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The dataset the pipeline ran on.
    pub dataset: SocialDataset,
    /// Candidate edges at threshold σ.
    pub graph: BipartiteGraph,
    /// Capacities at the pipeline's α.
    pub capacities: Capacities,
    /// Candidate pairs generated before verification.
    pub candidate_pairs: usize,
    /// Candidates the join pruned without touching the vectors.
    pub candidates_pruned: usize,
    /// Candidates that reached exact verification.
    pub verify_exact: usize,
    /// Verified candidates that took a product beyond their partial score.
    pub verify_dot: usize,
    /// `(term, document)` entries indexed after prefix pruning.
    pub indexed_entries: usize,
    /// Records the join's probe job shuffled.
    pub shuffled_records: u64,
    /// Bytes the join's probe job shuffled.
    pub shuffled_bytes: u64,
    /// MapReduce jobs the similarity join ran (always 1).
    pub simjoin_jobs: usize,
    /// The matching algorithm's result (matching, rounds, per-round trace).
    pub matching: MatchingRun,
    /// Every MapReduce job of the whole run — similarity join and matching
    /// rounds — in execution order, with accumulated totals.
    pub report: FlowReport,
}

impl MatchingPipeline {
    /// Starts a pipeline over `dataset` with the paper's defaults:
    /// tags-only tokenization, σ = 0.1, α = 1, GreedyMR, seed 42.
    pub fn new(dataset: SocialDataset) -> Self {
        MatchingPipeline {
            job: JobConfig::named(format!("pipeline-{}", dataset.name)),
            dataset,
            tokenizer: TokenizerConfig::tags_only(),
            sigma: 0.1,
            alpha: 1.0,
            algorithm: AlgorithmKind::GreedyMr,
            seed: 42,
            epsilon: 1.0,
            max_rounds: None,
            shard: None,
        }
    }

    /// Sets the tokenizer items, consumers and (in serving mode) arriving
    /// texts are vectorized with.
    pub fn tokenizer(mut self, tokenizer: TokenizerConfig) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// Sets the similarity threshold σ.
    ///
    /// # Panics
    /// Panics if `sigma` is not strictly positive.
    pub fn sigma(mut self, sigma: f64) -> Self {
        assert!(sigma > 0.0, "threshold must be positive");
        self.sigma = sigma;
        self
    }

    /// Sets the capacity scale α (`b(u) = α·n(u)` for consumers).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Selects the matching algorithm.
    pub fn algorithm(mut self, algorithm: AlgorithmKind) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the MapReduce job configuration every job runs under (threads,
    /// task counts, memory budget); the config's name prefixes every job
    /// name in the [`FlowReport`].
    pub fn job(mut self, job: JobConfig) -> Self {
        self.job = job;
        self
    }

    /// Runs the similarity join's job across `n` worker OS processes
    /// (0 = stay in process): [`MatchingPipeline::run`] and
    /// [`MatchingPipeline::build_graph`] wrap the candidate-graph stage in
    /// a `smr_distrib` sharded session, so the join job's map phase is
    /// split across the workers and the output stays **byte-identical**
    /// to the in-process run.  The job's workers exit at their manifest
    /// commit; the matching rounds, which have no map phase, run in this process.
    /// The session key defaults to the job config's name — give
    /// concurrent pipelines distinct names.  For full control of the
    /// session (worker arguments inside a test harness, fault injection)
    /// use [`MatchingPipeline::shard_options`].
    pub fn process_shards(self, n: usize) -> Self {
        if n == 0 {
            let mut this = self;
            this.shard = None;
            this.job = this.job.with_process_shards(0);
            return this;
        }
        let key = self.job.name.clone();
        self.shard_options(ShardOptions::new(n).with_session_key(key))
    }

    /// Like [`MatchingPipeline::process_shards`] with explicit session
    /// options (shard count, session key, worker arguments, fault
    /// injection).
    pub fn shard_options(mut self, opts: ShardOptions) -> Self {
        self.job = self.job.with_process_shards(opts.shards);
        self.shard = Some(opts);
        self
    }

    /// Sets the seed of the stack algorithms' randomized subroutine.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the stack algorithms' slackness parameter ε.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Caps the number of GreedyMR rounds (the any-time early-stopping
    /// knob of Figure 5).  Unset means "run to convergence".
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Runs the pipeline up to the candidate graph: corpus construction,
    /// the one-job similarity join, capacity assignment.  Used by callers
    /// that sweep σ or run several algorithms over one candidate graph
    /// (the experiment harness).
    pub fn build_graph(self) -> CandidateGraph {
        let flow = FlowContext::new(self.job.clone());
        self.join(&flow)
    }

    /// Runs the complete pipeline: candidate graph, then the selected
    /// matching algorithm, every job through one flow.  With
    /// [`MatchingPipeline::process_shards`] set, the similarity join is a
    /// sharded session; the matching runs on this process after the
    /// session has ended, because its rounds have no map phase to split.
    pub fn run(self) -> PipelineRun {
        let flow = FlowContext::new(self.job.clone());
        let mut greedy_config = GreedyMrConfig::default();
        if let Some(max_rounds) = self.max_rounds {
            greedy_config = greedy_config.with_max_rounds(max_rounds);
        }
        let runner_config = RunnerConfig {
            greedy_mr: greedy_config,
            stack_mr: StackMrConfig::default()
                .with_epsilon(self.epsilon)
                .with_seed(self.seed),
        };
        let algorithm = self.algorithm;
        let CandidateGraph {
            dataset,
            capacities,
            join,
            ..
        } = self.join(&flow);
        let matching = run_algorithm(algorithm, &join.graph, &capacities, &runner_config, &flow);
        PipelineRun {
            dataset,
            simjoin_jobs: join.job_metrics.len(),
            graph: join.graph,
            capacities,
            candidate_pairs: join.candidate_pairs,
            candidates_pruned: join.candidates_pruned,
            verify_exact: join.verify_exact,
            verify_dot: join.verify_dot,
            indexed_entries: join.indexed_entries,
            shuffled_records: join.shuffled_records,
            shuffled_bytes: join.shuffled_bytes,
            matching,
            report: flow.report(),
        }
    }

    /// Switches to serving mode: builds the standing similarity index and
    /// the online capacity-aware assignment, and returns the handle that
    /// answers point queries and absorbs arrivals — no batch matching job
    /// runs.  See [`crate::serving`] for the serving dataflow.
    pub fn serve(self) -> crate::serving::ServingPipeline {
        crate::serving::ServingPipeline::build(
            self.dataset,
            &self.tokenizer,
            self.sigma,
            self.alpha,
        )
    }

    /// The candidate-graph stage, inside a sharded session when
    /// [`MatchingPipeline::process_shards`] is set: each job's workers exit
    /// inside it, at their manifest commit.
    fn join(self, flow: &FlowContext) -> CandidateGraph {
        match self.shard.clone() {
            Some(opts) => run_sharded(opts, || self.join_stage(flow)),
            None => self.join_stage(flow),
        }
    }

    fn join_stage(self, flow: &FlowContext) -> CandidateGraph {
        let aligned = AlignedCorpora::build(
            &self.dataset.items,
            &self.dataset.consumers,
            &self.tokenizer,
        );
        let join = mapreduce_similarity_join_vectors_flow(
            aligned.item_vectors(),
            aligned.consumer_vectors(),
            self.sigma,
            flow,
        );
        let capacities = self.dataset.capacities(self.alpha);
        CandidateGraph {
            dataset: self.dataset,
            capacities,
            join,
            report: flow.report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_datagen::FlickrGenerator;

    fn small_dataset() -> SocialDataset {
        FlickrGenerator {
            num_photos: 60,
            num_users: 20,
            vocabulary: 80,
            seed: 5,
            ..FlickrGenerator::default()
        }
        .generate()
    }

    #[test]
    fn build_graph_runs_exactly_the_one_simjoin_job() {
        let candidate = MatchingPipeline::new(small_dataset())
            .sigma(0.1)
            .job(JobConfig::named("pipeline-test").with_threads(2))
            .build_graph();
        let join = &candidate.join;
        assert!(join.graph.num_edges() > 0);
        assert_eq!(join.job_metrics.len(), 1);
        assert_eq!(candidate.report.num_jobs(), 1);
        assert!(candidate.capacities.matches(&join.graph));
        // The join's candidate accounting closes and surfaces here.
        assert_eq!(
            join.candidate_pairs,
            join.candidates_pruned + join.verify_exact
        );
        assert!(join.verify_exact >= join.graph.num_edges());
        assert_eq!(candidate.report.job_names(), vec!["pipeline-test-probe"]);
    }

    #[test]
    fn full_run_reports_simjoin_and_matching_jobs_in_one_flow() {
        let run = MatchingPipeline::new(small_dataset())
            .sigma(0.1)
            .algorithm(AlgorithmKind::GreedyMr)
            .job(JobConfig::named("pipeline-test").with_threads(2))
            .run();
        assert!(run
            .matching
            .matching
            .is_feasible(&run.graph, &run.capacities));
        assert_eq!(
            run.report.num_jobs(),
            run.simjoin_jobs + run.matching.mr_jobs,
            "the flow must account for every job of both stages"
        );
        let matching_shuffled: u64 = run.matching.total_shuffled_records();
        assert!(run.report.total_shuffled_records() > matching_shuffled);
    }

    #[test]
    fn max_rounds_caps_greedy_and_stays_feasible() {
        let full = MatchingPipeline::new(small_dataset())
            .sigma(0.1)
            .job(JobConfig::named("pipeline-test").with_threads(2))
            .run();
        if full.matching.rounds < 2 {
            return;
        }
        let capped = MatchingPipeline::new(small_dataset())
            .sigma(0.1)
            .max_rounds(1)
            .job(JobConfig::named("pipeline-test").with_threads(2))
            .run();
        assert_eq!(capped.matching.rounds, 1);
        assert!(capped
            .matching
            .matching
            .is_feasible(&capped.graph, &capped.capacities));
    }
}
