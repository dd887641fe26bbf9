//! The four `batch-*` workloads: the paper's pipeline, end to end.
//!
//! One *rep* is one complete pipeline run from an in-memory dataset to a
//! matching.  Untraced, a rep is a single timed
//! `MatchingPipeline::run()`.  Traced, the benchmark runs the same
//! stages by hand — `Corpus::build` ×2, `ExactPrefixJoin::generate`,
//! `SocialDataset::capacities`, `run_algorithm` — inside its own spans,
//! and folds the `FlowReport` the stages return into per-layer metrics.
//! Both kinds are checked (outside the timed region) and reduced to a
//! digest so runs can be compared across processes.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use social_content_matching::datagen::{DatasetPreset, SocialDataset};
use social_content_matching::distrib::{last_session_stats, run_sharded, ShardOptions};
use social_content_matching::graph::{BipartiteGraph, Capacities};
use social_content_matching::mapreduce::{FlowContext, FlowReport, JobConfig, JobMetrics};
use social_content_matching::matching::runner::RunnerConfig;
use social_content_matching::matching::{
    run_algorithm, AlgorithmKind, GreedyMrConfig, MatchingRun, StackMrConfig,
};
use social_content_matching::sketch::{
    CandidateGenerator, DiscoSampler, ExactPrefixJoin, LshBander,
};
use social_content_matching::text::{Corpus, TokenizerConfig};
use social_content_matching::MatchingPipeline;

use crate::lanes;
use crate::proc::{peak_rss_mb, reset_peak_rss, run_self};
use crate::report::Report;
use crate::stats::{median, percentile, sorted};
use crate::trace::{Recorder, SpanId};

const ALPHA: f64 = 1.0;
/// StackMR's slackness ε and the seed of its randomized subroutine.
const EPSILON: f64 = 1.0;
const STACK_SEED: u64 = 42;
/// Map and reduce task counts are pinned so the task layout (and with it
/// every count the engine reports) does not depend on the thread count.
const TASKS: usize = 4;
/// `batch-spill`'s memory budget: small enough that 207 MB of the run's
/// 330 MB of shuffle goes through 476 disk runs, large enough that the
/// time goes into the codec, run I/O and the external merge.  The wall
/// of a spilling run follows the number of run files it creates and
/// deletes, and how far behind the file system is with that work: at
/// 256 KiB (8 880 files) one box measured 2.5 to 6 s for the same run,
/// at 2 MiB (1 076 files) 1.7 to 2.2 s, at 4 MiB 1.55 to 1.75 s.
const SPILL_BUDGET: u64 = 4 * 1024 * 1024;
/// Timed reps a run makes at least, however slow the machine.
const MIN_REPS: usize = 4;

/// One batch workload's input and configuration.
pub struct BatchSpec {
    pub name: &'static str,
    preset: DatasetPreset,
    sigma: f64,
    algorithm: AlgorithmKind,
    memory_budget: Option<u64>,
    /// Worker processes (0 = in process).
    shards: usize,
    threads: usize,
    warmups: usize,
}

pub fn spec(name: &str) -> Option<BatchSpec> {
    let greedy = BatchSpec {
        name: "batch-greedy",
        preset: DatasetPreset::FlickrLarge,
        sigma: 0.09,
        algorithm: AlgorithmKind::GreedyMr,
        memory_budget: None,
        shards: 0,
        threads: 2,
        warmups: 2,
    };
    match name {
        "batch-greedy" => Some(greedy),
        "batch-spill" => Some(BatchSpec {
            name: "batch-spill",
            memory_budget: Some(SPILL_BUDGET),
            warmups: 1,
            ..greedy
        }),
        "batch-sharded" => Some(BatchSpec {
            name: "batch-sharded",
            shards: 2,
            threads: 1,
            warmups: 1,
            ..greedy
        }),
        "batch-stack" => Some(BatchSpec {
            name: "batch-stack",
            preset: DatasetPreset::YahooAnswers,
            sigma: 0.07,
            algorithm: AlgorithmKind::StackMr,
            ..greedy
        }),
        _ => None,
    }
}

impl BatchSpec {
    /// The workload whose output this one must reproduce exactly: the
    /// same input with neither budget nor shards.
    fn reference(&self) -> Option<BatchSpec> {
        (self.memory_budget.is_some() || self.shards > 0)
            .then(|| spec("batch-greedy"))
            .flatten()
    }

    /// `label` names the job config and, for a sharded run, keys the
    /// session, so each rep process gets a session of its own.
    fn job(&self, threads: usize, label: &str) -> JobConfig {
        let job = JobConfig::named(label)
            .with_threads(threads)
            .with_map_tasks(TASKS)
            .with_reduce_tasks(TASKS)
            .with_memory_budget(self.memory_budget);
        if self.shards > 0 {
            job.with_process_shards(self.shards)
        } else {
            job
        }
    }

    fn runner_config(&self) -> RunnerConfig {
        RunnerConfig {
            greedy_mr: GreedyMrConfig::default(),
            stack_mr: StackMrConfig::default()
                .with_epsilon(EPSILON)
                .with_seed(STACK_SEED),
        }
    }
}

/// The pieces of a finished run the checks and metrics read, whichever
/// way (pipeline or by hand) the run was made.
struct RunView<'a> {
    graph: &'a BipartiteGraph,
    capacities: &'a Capacities,
    candidate_pairs: usize,
    candidates_pruned: usize,
    verify_exact: usize,
    simjoin_jobs: usize,
    matching: &'a MatchingRun,
    report: &'a FlowReport,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for byte in bytes {
        *hash ^= u64::from(*byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Checks one run's output and records its identifying facts
/// (`out.*`, digest) in `report`.  Counts as one attempted operation.
fn check_run(spec: &BatchSpec, view: &RunView<'_>, report: &mut Report) {
    let mut problems = Vec::new();
    let matching = &view.matching.matching;
    match spec.algorithm {
        AlgorithmKind::StackMr => {
            // The paper's guarantee: no node exceeds ⌈(1 + ε)·b(v)⌉.
            let over = view.graph.nodes().find(|&v| {
                let allowed = ((1.0 + EPSILON) * view.capacities.of(v) as f64).ceil();
                matching.degree(view.graph, v) as f64 > allowed
            });
            if let Some(node) = over {
                problems.push(format!("{node:?} exceeds (1+eps) times its capacity"));
            }
            if view.matching.average_violation(view.graph, view.capacities) > EPSILON {
                problems.push("average violation above eps".to_string());
            }
        }
        _ => {
            if !matching.is_feasible(view.graph, view.capacities) {
                problems.push("matching is not feasible".to_string());
            }
        }
    }
    if let Some(edge) = view.graph.edges().iter().find(|e| e.weight < spec.sigma) {
        problems.push(format!("edge weight {} below sigma", edge.weight));
    }
    if view.candidate_pairs != view.candidates_pruned + view.verify_exact {
        problems.push("candidate_pairs != candidates_pruned + verify_exact".to_string());
    }
    if view.report.num_jobs() != view.simjoin_jobs + view.matching.mr_jobs {
        problems.push("flow report does not account for every job".to_string());
    }
    if !view.report.errors.is_empty() {
        problems.push(format!(
            "flow swallowed {} errors",
            view.report.errors.len()
        ));
    }

    let mut digest = 0xcbf2_9ce4_8422_2325;
    for edge in view.graph.edges() {
        fnv1a(&mut digest, &edge.item.0.to_le_bytes());
        fnv1a(&mut digest, &edge.consumer.0.to_le_bytes());
        fnv1a(&mut digest, &edge.weight.to_bits().to_le_bytes());
    }
    for edge in matching.edges() {
        fnv1a(&mut digest, &(edge as u64).to_le_bytes());
    }
    report.digest = Some(digest);
    report.set("out.edges", view.graph.num_edges() as f64);
    report.set("out.matched", matching.len() as f64);
    report.set("out.rounds", view.matching.rounds as f64);
    report.set("out.value", view.matching.value(view.graph));
    report.check((!problems.is_empty()).then(|| problems.join("; ")));
}

/// One untraced rep: a timed `MatchingPipeline::run()`.
fn pipeline_rep(spec: &BatchSpec, dataset: &SocialDataset, threads: usize, label: &str) -> Report {
    let mut pipeline = MatchingPipeline::new(dataset.clone())
        .sigma(spec.sigma)
        .alpha(ALPHA)
        .algorithm(spec.algorithm)
        .epsilon(EPSILON)
        .seed(STACK_SEED)
        .job(spec.job(threads, label));
    if spec.shards > 0 {
        pipeline = pipeline.process_shards(spec.shards);
    }
    reset_peak_rss();
    let start = Instant::now();
    let run = pipeline.run();
    let wall_s = start.elapsed().as_secs_f64();

    let mut report = Report::default();
    report.set("rep.wall_s", wall_s);
    // The peak of this rep alone, its result still alive.
    report.set("rep.rss_mb", peak_rss_mb());
    check_run(
        spec,
        &RunView {
            graph: &run.graph,
            capacities: &run.capacities,
            candidate_pairs: run.candidate_pairs,
            candidates_pruned: run.candidates_pruned,
            verify_exact: run.verify_exact,
            simjoin_jobs: run.simjoin_jobs,
            matching: &run.matching,
            report: &run.report,
        },
        &mut report,
    );
    report
}

fn secs(jobs: &[JobMetrics], phase: impl Fn(&JobMetrics) -> std::time::Duration) -> f64 {
    jobs.iter().map(|j| phase(j).as_secs_f64()).sum()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// One traced rep: the pipeline's stages run by hand inside spans.
fn traced_rep(
    spec: &BatchSpec,
    dataset: &SocialDataset,
    threads: usize,
    label: &str,
    trace: u64,
) -> Report {
    let mut rec = Recorder::new();
    rec.set_trace(trace);
    let job = spec.job(threads, label);
    let tokenizer = TokenizerConfig::tags_only();
    let runner_config = spec.runner_config();

    let root = rec.begin("pipeline", None);
    let stages = |rec: &mut Recorder| {
        let flow = FlowContext::new(job.clone());
        let text = rec.begin("text", Some(root));
        let items = rec.span("text.items", Some(text), || {
            Corpus::build(dataset.items.clone(), &tokenizer)
        });
        let consumers = rec.span("text.consumers", Some(text), || {
            Corpus::build(dataset.consumers.clone(), &tokenizer)
        });
        rec.end(text);
        let simjoin = rec.begin("simjoin", Some(root));
        let join = ExactPrefixJoin::new().generate(&items, &consumers, spec.sigma, &flow);
        rec.end(simjoin);
        let capacities = rec.span("graph", Some(root), || dataset.capacities(ALPHA));
        let matching_span = rec.begin("matching", Some(root));
        let matching = run_algorithm(
            spec.algorithm,
            &join.graph,
            &capacities,
            &runner_config,
            &flow,
        );
        rec.end(matching_span);
        let flow_report = flow.report();
        let docs = items.len() + consumers.len();
        let terms = items.vocabulary().len() + consumers.vocabulary().len();
        (
            join,
            capacities,
            matching,
            flow_report,
            [text, simjoin, matching_span],
            (docs, terms),
        )
    };
    let (join, capacities, matching, flow_report, spans, (docs, terms)) = if spec.shards > 0 {
        let opts = ShardOptions::new(spec.shards).with_session_key(label);
        run_sharded(opts, || stages(&mut rec))
    } else {
        stages(&mut rec)
    };
    rec.end(root);
    let [text, simjoin, matching_span] = spans;

    let mut report = Report::default();
    let wall_s = rec.duration_s(root);
    report.set("rep.wall_s", wall_s);
    check_run(
        spec,
        &RunView {
            graph: &join.graph,
            capacities: &capacities,
            candidate_pairs: join.candidate_pairs,
            candidates_pruned: join.candidates_pruned,
            verify_exact: join.verify_exact,
            simjoin_jobs: join.job_metrics.len(),
            matching: &matching,
            report: &flow_report,
        },
        &mut report,
    );

    let totals = &flow_report.totals;
    let join_jobs = &join.job_metrics;
    report.set("text.corpus_build_s", rec.duration_s(text));
    report.set("text.docs", docs as f64);
    report.set("text.terms", terms as f64);

    report.set("simjoin.generate_s", rec.duration_s(simjoin));
    for (name, job) in ["simjoin.index_job_s", "simjoin.probe_job_s"]
        .iter()
        .zip(join_jobs)
    {
        report.set(name, job.timings.total().as_secs_f64());
    }
    report.set("simjoin.candidate_pairs", join.candidate_pairs as f64);
    report.set("simjoin.candidates_pruned", join.candidates_pruned as f64);
    report.set("simjoin.verify_exact", join.verify_exact as f64);
    report.set("simjoin.edges", join.graph.num_edges() as f64);
    report.set(
        "simjoin.prune_ratio",
        ratio(join.candidates_pruned as f64, join.candidate_pairs as f64),
    );
    report.set(
        "simjoin.verify_yield",
        ratio(join.graph.num_edges() as f64, join.verify_exact as f64),
    );
    let join_input: u64 = join_jobs.iter().map(|j| j.map_input_records).sum();
    report.set(
        "simjoin.replication_rate",
        ratio(join.shuffled_records as f64, join_input as f64),
    );

    let jobs = &flow_report.jobs;
    let in_jobs_s = secs(jobs, |j| j.timings.total());
    report.set("mapreduce.jobs", jobs.len() as f64);
    report.set("mapreduce.map_s", secs(jobs, |j| j.timings.map));
    report.set("mapreduce.shuffle_s", secs(jobs, |j| j.timings.shuffle));
    report.set("mapreduce.reduce_s", secs(jobs, |j| j.timings.reduce));
    report.set("mapreduce.shuffle_records", totals.shuffle_records as f64);
    report.set("mapreduce.shuffle_bytes", totals.shuffle_bytes as f64);
    report.set("mapreduce.merge_runs", totals.merge_runs as f64);
    report.set("mapreduce.combine_reduction", totals.combine_reduction());
    report.set("mapreduce.outside_jobs_s", wall_s - in_jobs_s);

    report.set("storage.spill_bytes", totals.spill_bytes as f64);
    report.set("storage.disk_runs", totals.disk_runs as f64);
    report.set(
        "storage.spill_amplification",
        ratio(totals.spill_bytes as f64, totals.shuffle_bytes as f64),
    );

    let round_ms = sorted(
        (0..flow_report.num_rounds())
            .map(|r| 1e3 * secs(flow_report.round_jobs(r), |j| j.timings.total()))
            .collect(),
    );
    report.set("matching.run_s", rec.duration_s(matching_span));
    report.set("matching.rounds", matching.rounds as f64);
    report.set("matching.mr_jobs", matching.mr_jobs as f64);
    report.set("matching.round_p50_ms", median(&round_ms));
    report.set("matching.round_max_ms", percentile(&round_ms, 100.0));
    report.set(
        "matching.shuffle_records",
        matching.total_shuffled_records() as f64,
    );
    report.set("matching.matched_edges", matching.matching.len() as f64);
    report.set("matching.value", matching.value(&join.graph));
    report.set(
        "matching.max_round_state_bytes",
        matching.max_round_state_bytes as f64,
    );
    report.set(
        "matching.avg_violation",
        matching.average_violation(&join.graph, &capacities),
    );

    if spec.shards > 0 {
        report.set("distrib.session_s", wall_s);
        if let Some(stats) = last_session_stats() {
            report.set("distrib.jobs", stats.jobs as f64);
            report.set("distrib.respawns", stats.respawns as f64);
        }
    }

    // Job counters and phase timings ride along as attributes of the
    // stage span each job ran under: the engine reports durations, not
    // start times, so a job cannot be a span of its own yet.
    for (index, job) in jobs.iter().enumerate() {
        let stage = if index < join_jobs.len() {
            simjoin
        } else {
            matching_span
        };
        job_attrs(&mut rec, stage, index, job);
    }
    rec.attr(root, "jobs", jobs.len() as f64);
    rec.attr(root, "in_jobs_us", in_jobs_s * 1e6);
    report.add_spans(&rec.to_jsonl(spec.name));
    report
}

fn job_attrs(rec: &mut Recorder, stage: SpanId, index: usize, job: &JobMetrics) {
    let mut attr = |key: &str, value: f64| rec.attr(stage, &format!("job{index}.{key}"), value);
    attr("map_us", job.timings.map.as_secs_f64() * 1e6);
    attr("shuffle_us", job.timings.shuffle.as_secs_f64() * 1e6);
    attr("reduce_us", job.timings.reduce.as_secs_f64() * 1e6);
    attr("shuffle_records", job.shuffle_records as f64);
    attr("spill_bytes", job.spill_bytes as f64);
}

/// The body of a `--role rep` process: generate the dataset, run one
/// rep, print it.  A `batch-sharded` worker replays exactly this and
/// leaves from inside the run, so nothing else may happen before it.
pub fn rep_process(spec: &BatchSpec, seed: u64, traced: bool, threads: usize, index: u64) {
    let dataset = spec.preset.generate_with_seed(seed);
    let label = format!("bench-{}-{index}", spec.name);
    let report = if traced {
        traced_rep(spec, &dataset, threads, &label, index)
    } else {
        pipeline_rep(spec, &dataset, threads, &label)
    };
    print!("{}", report.render());
}

/// Where a workload's reps run: in this process, or (for a sharded
/// workload, so workers replay one session and nothing else) each in a
/// process of its own.
///
/// Set-up — everything before a timed op, here `generate_with_seed` —
/// is done again before every rep and timed each time.  It takes a few
/// milliseconds, so repeats made back to back would all sit inside one
/// burst of machine noise; spread over the run, their median does not.
struct Reps<'a> {
    spec: &'a BatchSpec,
    seed: u64,
    tmp: &'a Path,
    dataset: SocialDataset,
    setup_s: Vec<f64>,
    next_index: u64,
}

impl<'a> Reps<'a> {
    fn new(spec: &'a BatchSpec, seed: u64, tmp: &'a Path) -> Self {
        let start = Instant::now();
        let dataset = spec.preset.generate_with_seed(seed);
        Reps {
            spec,
            seed,
            tmp,
            dataset,
            setup_s: vec![start.elapsed().as_secs_f64()],
            next_index: 0,
        }
    }

    fn run(&mut self, traced: bool) -> Report {
        let start = Instant::now();
        self.dataset = self.spec.preset.generate_with_seed(self.seed);
        self.setup_s.push(start.elapsed().as_secs_f64());
        let index = self.next_index;
        self.next_index += 1;
        self.run_as(self.spec, traced, self.spec.threads, index)
    }

    /// `setup_s`: the median over the run's set-ups.
    fn report_setup(&self, report: &mut Report) {
        let summary = report.add_series("setup_s", "s", self.setup_s.clone());
        report.set("setup_s", summary.median);
        report.set("datagen.generate_s", summary.median);
    }

    fn run_as(&self, spec: &BatchSpec, traced: bool, threads: usize, index: u64) -> Report {
        if spec.shards > 0 || spec.name != self.spec.name {
            return own_process_rep(spec, self.seed, traced, threads, index, self.tmp);
        }
        let label = format!("bench-{}-{index}", spec.name);
        if traced {
            traced_rep(spec, &self.dataset, threads, &label, index)
        } else {
            pipeline_rep(spec, &self.dataset, threads, &label)
        }
    }
}

fn own_process_rep(
    spec: &BatchSpec,
    seed: u64,
    traced: bool,
    threads: usize,
    index: u64,
    tmp: &Path,
) -> Report {
    let args = [
        "--role",
        "rep",
        "--workload",
        spec.name,
        "--seed",
        &seed.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
        "--threads",
        &threads.to_string(),
        "--index",
        &index.to_string(),
    ]
    .map(str::to_string);
    run_self(&args, tmp).unwrap_or_else(|error| {
        let mut report = Report::default();
        report.check(Some(error));
        report
    })
}

/// Folds one rep's checks into the workload's report and compares its
/// digest with the first rep's: every rep of one workload must produce
/// the same edges and the same matching.
fn absorb(total: &mut Report, rep: &Report) {
    total.attempted += rep.attempted;
    total.failed += rep.failed;
    total.failures.extend(rep.failures.iter().cloned());
    match (total.digest, rep.digest) {
        (None, Some(digest)) => {
            total.digest = Some(digest);
            for name in ["out.edges", "out.matched", "out.rounds", "out.value"] {
                total.set(name, rep.get(name));
            }
        }
        (Some(first), Some(digest)) if first != digest => {
            total.fail("rep output differs from the first rep's".to_string())
        }
        // Same output, or a rep that died and already counts as failed.
        _ => {}
    }
}

/// Checks that this workload reproduced its reference workload's output,
/// running the reference once in a process of its own (so its memory
/// does not count towards this workload's peak).
fn check_reference(reps: &Reps<'_>, report: &mut Report) {
    let Some(reference) = reps.spec.reference() else {
        return;
    };
    let threads = reference.threads;
    let run = reps.run_as(&reference, false, threads, 0);
    let problem = if run.failed > 0 {
        Some(format!("reference run failed: {}", run.failures.join("; ")))
    } else if run.digest != report.digest {
        Some(format!("output differs from {}'s", reference.name))
    } else {
        None
    };
    report.check(problem);
}

/// The untraced pass: warm-ups, then timed reps for `seconds`.
pub fn run_untraced(spec: &BatchSpec, seed: u64, seconds: f64, home: &Path, tmp: &Path) -> Report {
    let mut report = Report::default();
    let mut reps = Reps::new(spec, seed, tmp);
    for _ in 0..spec.warmups {
        let rep = reps.run(false);
        absorb(&mut report, &rep);
    }
    let mut walls_ms = Vec::new();
    let mut rss_mb = Vec::new();
    let timed = Instant::now();
    while walls_ms.len() < MIN_REPS || timed.elapsed().as_secs_f64() < seconds {
        let rep = reps.run(false);
        absorb(&mut report, &rep);
        walls_ms.push(rep.get("rep.wall_s") * 1e3);
        rss_mb.push(rep.get("rep.rss_mb"));
    }
    reps.report_setup(&mut report);
    report.check_expected(
        home,
        spec.name,
        seed,
        &["edges", "matched", "rounds", "value"],
    );
    check_reference(&reps, &mut report);

    let total_ms: f64 = walls_ms.iter().sum();
    let edges = report.get("out.edges");
    let n = walls_ms.len() as f64;
    let summary = report.add_series("op_ms", "ms", walls_ms);
    report.set("op_p50_ms", summary.median);
    // Three to nine reps: no percentile has ten samples beyond it, and
    // the slowest rep is the least repeatable number a run produces.  The
    // tail of a batch workload is the third quartile of its timed reps.
    report.set("op_tail_ms", summary.q3);
    report.set("work_per_s", ratio(edges * n, total_ms / 1e3));
    // The peak of one rep (the high-water mark restarts before each),
    // median over the timed reps: the peak of the whole process would be
    // the worst thread interleaving any rep happened to hit.
    let rss = report.add_series("rep_rss_mb", "MB", rss_mb);
    report.set("peak_rss_mb", rss.median);
    report
}

/// Per-layer metrics of one traced pass: the median over its traced
/// reps.  Counts are identical in every rep, so their median is
/// themselves.
fn fold_layers(total: &mut Report, traced: &[Report]) {
    let names: BTreeSet<&String> = traced
        .iter()
        .flat_map(|r| r.metrics.keys())
        .filter(|name| !name.starts_with("rep.") && !name.starts_with("out."))
        .collect();
    for name in names {
        let values = sorted(traced.iter().map(|r| r.get(name)).collect());
        total.set(name, median(&values));
    }
}

/// The traced pass: untraced and traced reps alternate, so the two
/// medians see the same machine state and their ratio is the tracing
/// overhead; then the lanes and side measurements this workload owns.
pub fn run_traced(spec: &BatchSpec, seed: u64, seconds: f64, tmp: &Path) -> Report {
    let mut report = Report::default();
    let mut reps = Reps::new(spec, seed, tmp);
    let warmup = reps.run(false);
    absorb(&mut report, &warmup);

    let mut untraced_s = Vec::new();
    let mut traced = Vec::new();
    let timed = Instant::now();
    while traced.len() < 2 || timed.elapsed().as_secs_f64() < 0.8 * seconds {
        // Which kind goes first alternates, so neither always inherits
        // the other's warm caches and freed memory.
        let traced_first = traced.len() % 2 == 1;
        for is_traced in [traced_first, !traced_first] {
            let rep = reps.run(is_traced);
            absorb(&mut report, &rep);
            if is_traced {
                report.spans.extend(rep.spans.iter().cloned());
                traced.push(rep);
            } else {
                untraced_s.push(rep.get("rep.wall_s"));
            }
        }
    }
    reps.report_setup(&mut report);
    fold_layers(&mut report, &traced);
    let traced_s = median(&sorted(
        traced.iter().map(|r| r.get("rep.wall_s")).collect(),
    ));
    let untraced_s = median(&sorted(untraced_s));
    report.set("trace.overhead_ratio", ratio(traced_s, untraced_s));

    match spec.name {
        "batch-greedy" => {
            // The single-thread baseline of the same job.
            let single = reps.run_as(spec, true, 1, 1_000);
            absorb(&mut report, &single);
            report.set(
                "mapreduce.t1_over_t2",
                ratio(single.get("rep.wall_s"), traced_s),
            );
            sketch_lane(spec, &reps.dataset, &mut report);
        }
        "batch-spill" => lanes::storage_and_merge(tmp, &mut report),
        "batch-stack" => lanes::job_overhead(&spec.job(spec.threads, "bench-lane"), &mut report),
        "batch-sharded" => {
            lanes::spawn(&mut report);
            // The same pipeline in one process at one thread.
            if let Some(local) = spec.reference() {
                let walls = (0..2)
                    .map(|i| {
                        let rep = reps.run_as(&local, false, 1, 2_000 + i);
                        absorb(&mut report, &rep);
                        rep.get("rep.wall_s")
                    })
                    .collect();
                report.set(
                    "distrib.overhead_ratio",
                    ratio(untraced_s, median(&sorted(walls))),
                );
            }
        }
        _ => {}
    }
    report
}

/// The sketch generators on this workload's input: how long each takes
/// and what share of the exact join's edges it finds.
fn sketch_lane(spec: &BatchSpec, dataset: &SocialDataset, report: &mut Report) {
    let tokenizer = TokenizerConfig::tags_only();
    let items = Corpus::build(dataset.items.clone(), &tokenizer);
    let consumers = Corpus::build(dataset.consumers.clone(), &tokenizer);
    let seed = spec.preset.sketch_seed();
    let exact_edges = report.get("simjoin.edges");
    let mut lane = |prefix: &str, generator: &dyn CandidateGenerator| {
        let flow = FlowContext::new(spec.job(spec.threads, "bench-sketch"));
        let start = Instant::now();
        let result = generator.generate(&items, &consumers, spec.sigma, &flow);
        report.set(
            &format!("sketch.{prefix}_generate_s"),
            start.elapsed().as_secs_f64(),
        );
        // Sketch edges are a subset of the exact join's with identical
        // weights, so recall is a ratio of counts.
        report.set(
            &format!("sketch.{prefix}_recall"),
            ratio(result.graph.num_edges() as f64, exact_edges),
        );
    };
    lane("disco", &DiscoSampler::new(seed, 4.0));
    lane("lsh", &LshBander::new(seed, 16, 2));
}
