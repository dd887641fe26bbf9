//! The `serving-mixed` workload: the online path, one closed-loop client.
//!
//! A standing index over 1 500 of `flickr-xl`'s 2 000 consumers answers
//! top-10 point queries for every item, pass after pass in a seeded
//! shuffled order.  Every 20th op commits the arrival into the online
//! assignment instead (`assign`), and at regular intervals ten held-out
//! consumers are appended first, so writes and cache invalidation run
//! beside the reads.  The op stream is a pure function of the seed and
//! the pass count; the pass count is fixed by `--seconds`, not by how
//! fast the machine is, because the index grows as consumers arrive and
//! a run that got further would see a different index.

use std::path::Path;
use std::time::Instant;

use social_content_matching::datagen::DatasetPreset;
use social_content_matching::text::{Document, SparseVector};
use social_content_matching::{MatchingPipeline, ServingPipeline};

use crate::proc::{peak_rss_mb, reset_peak_rss};
use crate::report::Report;
use crate::stats::{median, percentile, sorted};
use crate::trace::{Recorder, SpanId};

const SIGMA: f64 = 0.14;
const ALPHA: f64 = 1.0;
const INDEXED_CONSUMERS: usize = 1_500;
const TOP_K: usize = 10;
/// Every `ASSIGN_EVERY`-th op is an `assign` with this item capacity.
const ASSIGN_EVERY: usize = 20;
const ASSIGN_CAPACITY: u64 = 3;
/// Consumers per append, their capacity, and appends per run: all 500
/// held-out consumers arrive, whatever the pass count.
const APPEND_BATCH: usize = 10;
const APPEND_CAPACITY: u64 = 5;
const APPENDS: usize = 50;
/// Queries compared with a brute-force scan after the last append.
const SAMPLE_QUERIES: usize = 200;
const SETUP_REPEATS: usize = 9;
/// Passes per second of `--seconds`: 8 passes (108 000 ops) at the
/// reference 12 s, never fewer than 2 nor more than 8.
const PASSES_PER_SECOND: f64 = 8.0 / 12.0;

pub fn passes_for(seconds: f64) -> usize {
    ((seconds * PASSES_PER_SECOND).round() as usize).clamp(2, 8)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Query,
    Assign,
}

/// One op of the stream: which item arrives, what happens to it, and
/// whether a batch of consumers is appended first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub item: u32,
    pub kind: OpKind,
    pub append_first: bool,
}

/// SplitMix64: the benchmark's only source of pseudo-randomness.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffled(len: usize, state: &mut u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..len as u32).collect();
    for i in (1..len).rev() {
        order.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
    }
    order
}

/// The whole op stream: `passes` shuffled passes over `items` items.
pub fn op_stream(seed: u64, items: usize, passes: usize) -> Vec<Op> {
    let total = items * passes;
    let append_every = (total / APPENDS).max(1);
    let mut state = seed ^ 0x5e72_1e5e_72e5;
    let mut ops = Vec::with_capacity(total);
    for _ in 0..passes {
        for item in shuffled(items, &mut state) {
            let index = ops.len();
            ops.push(Op {
                item,
                kind: if index % ASSIGN_EVERY == ASSIGN_EVERY - 1 {
                    OpKind::Assign
                } else {
                    OpKind::Query
                },
                append_first: index % append_every == append_every - 1
                    && index / append_every < APPENDS,
            });
        }
    }
    ops
}

/// Everything set-up produces: the standing index, the items (texts for
/// `assign`, vectors for queries) and the consumers still to arrive.
struct Served {
    serving: ServingPipeline,
    items: Vec<Document>,
    queries: Vec<SparseVector>,
    held_out: Vec<Document>,
    all_consumers: Vec<Document>,
}

/// Set-up of one serving instance, with a span (and a timing sample) per
/// step.  `per_call` additionally times every `vectorize` call.
fn set_up(
    seed: u64,
    rec: &mut Recorder,
    parent: Option<SpanId>,
    per_call: Option<&mut Vec<f64>>,
) -> (Served, [f64; 3]) {
    let span = rec.begin("setup", parent);
    let generate = rec.begin("setup.generate", Some(span));
    let mut dataset = DatasetPreset::FlickrXl.generate_with_seed(seed);
    rec.end(generate);
    let all_consumers = dataset.consumers.clone();
    let held_out = dataset.consumers.split_off(INDEXED_CONSUMERS);
    dataset.consumer_activity.truncate(INDEXED_CONSUMERS);
    let items = dataset.items.clone();

    let build = rec.begin("setup.build", Some(span));
    let serving = MatchingPipeline::new(dataset)
        .sigma(SIGMA)
        .alpha(ALPHA)
        .serve();
    rec.end(build);

    let vectorize = rec.begin("setup.vectorize", Some(span));
    let queries: Vec<SparseVector> = match per_call {
        None => items.iter().map(|d| serving.vectorize(&d.text)).collect(),
        Some(samples) => items
            .iter()
            .map(|d| {
                let start = Instant::now();
                let vector = serving.vectorize(&d.text);
                samples.push(start.elapsed().as_secs_f64() * 1e6);
                vector
            })
            .collect(),
    };
    rec.end(vectorize);
    rec.end(span);
    let timings = [
        rec.duration_s(generate),
        rec.duration_s(build),
        rec.duration_s(span),
    ];
    (
        Served {
            serving,
            items,
            queries,
            held_out,
            all_consumers,
        },
        timings,
    )
}

/// `setup_s`: set-up repeated, median reported; the last instance is
/// the one the run uses.
fn measure_setup(seed: u64, rec: &mut Recorder, report: &mut Report) -> Served {
    let mut generate_s = Vec::new();
    let mut build_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous instance first: set-up starts from nothing.
        drop(served.take());
        let (instance, [generate, build, total]) = set_up(seed, rec, None, None);
        generate_s.push(generate);
        build_s.push(build);
        setup_s.push(total);
        served = Some(instance);
    }
    let summary = report.add_series("setup_s", "s", setup_s);
    report.set("setup_s", summary.median);
    report.set("datagen.generate_s", median(&sorted(generate_s)));
    report.set("serving.build_s", median(&sorted(build_s)));
    served.expect("SETUP_REPEATS is positive")
}

/// Latencies and counts of one run of (part of) the op stream.
#[derive(Default)]
struct Timed {
    wall_s: f64,
    query_us: Vec<f64>,
    assign_us: Vec<f64>,
    append_ms: Vec<f64>,
    appended: usize,
    bad_ops: Vec<String>,
    disk_reads: u64,
}

impl Timed {
    fn ops(&self) -> usize {
        self.query_us.len() + self.assign_us.len() + self.append_ms.len()
    }
}

/// Runs `ops` against `served`, one op at a time, timing each.  Results
/// are sanity-checked outside the timed calls.
fn run_ops(served: &mut Served, ops: &[Op], rec: &mut Recorder, parent: Option<SpanId>) -> Timed {
    let mut timed = Timed::default();
    let reads_before = served.serving.index().disk_reads();
    let pass_len = served.items.len();
    let wall = Instant::now();
    for (pass, chunk) in ops.chunks(pass_len).enumerate() {
        let pass_span = rec.begin("pass", parent);
        let queries_before = timed.query_us.len();
        for op in chunk {
            if op.append_first {
                let batch_len = APPEND_BATCH.min(served.held_out.len());
                let batch: Vec<Document> = served.held_out.drain(..batch_len).collect();
                let span = rec.begin("append", Some(pass_span));
                let range = served.serving.add_consumers(&batch, APPEND_CAPACITY);
                rec.end(span);
                timed.append_ms.push(rec.duration_s(span) * 1e3);
                timed.appended += batch.len();
                if range.len() != batch.len() {
                    timed.bad_ops.push("append assigned a short range".into());
                }
            }
            let item = op.item as usize;
            let start = Instant::now();
            let (matches, latencies) = match op.kind {
                OpKind::Query => (
                    served.serving.match_vector(&served.queries[item], TOP_K),
                    &mut timed.query_us,
                ),
                OpKind::Assign => (
                    served
                        .serving
                        .assign(&served.items[item].text, ASSIGN_CAPACITY, TOP_K)
                        .candidates,
                    &mut timed.assign_us,
                ),
            };
            latencies.push(start.elapsed().as_secs_f64() * 1e6);
            if matches.len() > TOP_K || matches.iter().any(|m| m.score < SIGMA) {
                timed.bad_ops.push(format!("item {item}: bad result set"));
            }
        }
        rec.end(pass_span);
        rec.attr(pass_span, "pass", pass as f64);
        rec.attr(
            pass_span,
            "queries",
            (timed.query_us.len() - queries_before) as f64,
        );
        rec.attr(
            pass_span,
            "query_us_sum",
            timed.query_us[queries_before..].iter().sum(),
        );
    }
    timed.wall_s = wall.elapsed().as_secs_f64();
    timed.disk_reads = served.serving.index().disk_reads() - reads_before;
    timed
}

/// One untimed pass of plain queries, so the partition cache is warm.
fn warm_up(served: &Served) {
    for query in &served.queries {
        std::hint::black_box(served.serving.match_vector(query, TOP_K));
    }
}

fn count_ops(timed: &Timed, report: &mut Report) {
    report.attempted += timed.ops() as u64;
    for problem in &timed.bad_ops {
        report.fail(problem.clone());
    }
}

/// After the last append, sample queries must return exactly what a
/// brute-force scan over every consumer's vector returns.  Returns the
/// mean number of candidates per sampled query.
fn check_against_scan(served: &Served, seed: u64, home: &Path, report: &mut Report) -> f64 {
    let serving = &served.serving;
    let consumers: Vec<SparseVector> = served
        .all_consumers
        .iter()
        .take(serving.num_consumers())
        .map(|d| serving.vectorize(&d.text))
        .collect();
    let mut state = seed ^ 0x5ca9;
    let mut total_matches = 0usize;
    for _ in 0..SAMPLE_QUERIES {
        let item = (splitmix(&mut state) % served.queries.len() as u64) as usize;
        let query = &served.queries[item];
        let mut got: Vec<usize> = serving
            .match_vector(query, usize::MAX)
            .iter()
            .map(|m| m.consumer)
            .collect();
        got.sort_unstable();
        let scores: Vec<f64> = consumers.iter().map(|c| query.dot(c)).collect();
        let want: Vec<usize> = (0..scores.len()).filter(|&c| scores[c] >= SIGMA).collect();
        total_matches += want.len();
        // A pair within rounding of the threshold may fall either way.
        let near = |c: &usize| (scores[*c] - SIGMA).abs() < 1e-9;
        let differs = got.iter().any(|c| !want.contains(c) && !near(c))
            || want.iter().any(|c| !got.contains(c) && !near(c));
        report.check(differs.then(|| format!("item {item}: index and scan disagree")));
    }
    report.set("out.sample_matches", total_matches as f64);
    report.check_expected(home, "serving-mixed", seed, &["sample_matches"]);
    total_matches as f64 / SAMPLE_QUERIES as f64
}

pub fn run_untraced(seed: u64, seconds: f64, home: &Path) -> Report {
    let mut report = Report::default();
    let mut rec = Recorder::new();
    let mut served = measure_setup(seed, &mut rec, &mut report);
    let ops = op_stream(seed, served.items.len(), passes_for(seconds));
    // From here on: the peak of serving, not of the set-up repeats.
    reset_peak_rss();
    warm_up(&served);
    let timed = run_ops(&mut served, &ops, &mut rec, None);
    count_ops(&timed, &mut report);
    check_against_scan(&served, seed, home, &mut report);

    let query_ms = sorted(timed.query_us.iter().map(|us| us / 1e3).collect());
    report.set("op_tail_ms", percentile(&query_ms, 99.0));
    let summary = report.add_series("op_ms", "ms", query_ms);
    report.set("op_p50_ms", summary.median);
    report.set("work_per_s", timed.ops() as f64 / timed.wall_s);
    report.add_series("append_ms", "ms", timed.append_ms.clone());
    report.set("peak_rss_mb", peak_rss_mb());
    report
}

/// The traced pass: the first half of the op stream twice, on two
/// instances, one run bare and one under spans; the ratio of their walls
/// is the tracing overhead.
pub fn run_traced(seed: u64, seconds: f64, home: &Path) -> Report {
    let mut report = Report::default();
    let mut rec = Recorder::new();
    let mut vectorize_us = Vec::new();
    let mut plain = measure_setup(seed, &mut rec, &mut report);
    let passes = (passes_for(seconds) / 2).max(1);
    let ops = op_stream(seed, plain.items.len(), passes);

    warm_up(&plain);
    let bare = run_ops(&mut plain, &ops, &mut Recorder::new(), None);
    count_ops(&bare, &mut report);
    drop(plain);

    rec.set_trace(1);
    let root = rec.begin("workload", None);
    let (mut served, _) = set_up(seed, &mut rec, Some(root), Some(&mut vectorize_us));
    warm_up(&served);
    let timed = run_ops(&mut served, &ops, &mut rec, Some(root));
    rec.end(root);
    count_ops(&timed, &mut report);
    let candidates = check_against_scan(&served, seed, home, &mut report);

    let query_p50 = median(&sorted(timed.query_us.clone()));
    let assign_p50 = median(&sorted(timed.assign_us.clone()));
    let append_total_ms: f64 = timed.append_ms.iter().sum();
    report.set("serving.vectorize_p50_us", median(&sorted(vectorize_us)));
    report.set("serving.assign_p50_us", assign_p50);
    report.set("serving.matcher_p50_us", assign_p50 - query_p50);
    report.set("serving.candidates_per_query", candidates);
    report.set(
        "serving.disk_reads_per_query",
        timed.disk_reads as f64 / (timed.query_us.len() + timed.assign_us.len()) as f64,
    );
    report.set(
        "serving.append_p50_ms",
        median(&sorted(timed.append_ms.clone())),
    );
    report.set(
        "serving.append_ms_per_consumer",
        append_total_ms / timed.appended.max(1) as f64,
    );
    let index = served.serving.index();
    report.set("serving.maxima_exceeded", index.maxima_exceeded() as f64);
    report.set(
        "serving.needs_rebuild",
        f64::from(u8::from(served.serving.needs_rebuild())),
    );
    report.set("trace.overhead_ratio", timed.wall_s / bare.wall_s);
    report.add_spans(&rec.to_jsonl("serving-mixed"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_op_stream_is_a_pure_function_of_the_seed() {
        let a = op_stream(2011, 500, 3);
        assert_eq!(a, op_stream(2011, 500, 3));
        assert_ne!(a, op_stream(2012, 500, 3));
    }

    #[test]
    fn every_pass_visits_every_item_once() {
        let ops = op_stream(7, 300, 4);
        assert_eq!(ops.len(), 1_200);
        for pass in ops.chunks(300) {
            let mut items: Vec<u32> = pass.iter().map(|op| op.item).collect();
            items.sort_unstable();
            assert_eq!(items, (0..300).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn assigns_and_appends_come_at_their_fixed_rates() {
        for passes in [2, 5, 8] {
            let ops = op_stream(1, 13_500, passes);
            let assigns = ops.iter().filter(|op| op.kind == OpKind::Assign).count();
            assert_eq!(assigns, ops.len() / ASSIGN_EVERY);
            let appends = ops.iter().filter(|op| op.append_first).count();
            assert_eq!(appends, APPENDS, "{passes} passes");
        }
        // At the reference 8 passes an append comes every 2 160th op.
        let ops = op_stream(1, 13_500, 8);
        assert!(ops[2_159].append_first && !ops[2_158].append_first);
    }

    #[test]
    fn pass_count_follows_seconds() {
        assert_eq!(passes_for(12.0), 8);
        assert_eq!(passes_for(6.0), 4);
        assert_eq!(passes_for(1.0), 2);
        assert_eq!(passes_for(60.0), 8);
    }
}
