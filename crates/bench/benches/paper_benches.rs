//! Criterion benchmarks — one group per table/figure of the paper.
//!
//! The benches measure the wall-clock cost of regenerating each artefact on
//! the smoke-scale instances (the full-scale numbers are produced by the
//! `run-experiments` binary and recorded in `EXPERIMENTS.md`); they keep
//! the whole pipeline exercised under `cargo bench`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smr_bench::experiments::{self, ExperimentScale, ExperimentSet};
use smr_bench::pipeline::DatasetInstance;
use smr_datagen::{DatasetPreset, RandomGraphConfig, WeightDistribution};
use smr_graph::Capacities;
use smr_mapreduce::{FlowContext, JobConfig};
use smr_matching::{GreedyMr, GreedyMrConfig, StackMr, StackMrConfig};

fn bench_job() -> JobConfig {
    JobConfig::named("bench").with_threads(0)
}

fn bench_flow() -> FlowContext {
    FlowContext::new(bench_job())
}

fn smoke_set() -> ExperimentSet {
    ExperimentSet::new(ExperimentScale::Smoke, 0, 2011)
}

/// A mid-sized synthetic candidate graph used by the per-figure matching
/// benches (generated directly, skipping the similarity join, so the bench
/// isolates the matching algorithms).
fn bench_graph(num_edges: usize) -> (smr_graph::BipartiteGraph, Capacities) {
    let graph = RandomGraphConfig {
        num_items: 300,
        num_consumers: 120,
        num_edges,
        weights: WeightDistribution::Exponential {
            min: 0.05,
            rate: 8.0,
            cap: 1.0,
        },
        popularity_exponent: 0.8,
        seed: 7,
    }
    .generate();
    let caps = Capacities::uniform(&graph, 4, 3);
    (graph, caps)
}

/// Table 1: dataset generation + similarity join.
fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_dataset_characteristics");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("flickr_small_pipeline", |b| {
        b.iter(|| DatasetInstance::generate(DatasetPreset::FlickrSmall, bench_job()))
    });
    group.finish();
}

/// Figures 1–3: matching value / iterations for the three algorithms.
fn bench_quality_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_2_3_matching_value_and_iterations");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &edges in &[1_000usize, 3_000] {
        let (graph, caps) = bench_graph(edges);
        group.bench_with_input(BenchmarkId::new("GreedyMR", edges), &edges, |b, _| {
            b.iter(|| {
                GreedyMr::new(GreedyMrConfig::default().with_job(bench_job())).run(
                    &graph,
                    &caps,
                    &bench_flow(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("StackMR", edges), &edges, |b, _| {
            b.iter(|| {
                StackMr::new(StackMrConfig::default().with_seed(1).with_job(bench_job())).run(
                    &graph,
                    &caps,
                    &bench_flow(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("StackGreedyMR", edges), &edges, |b, _| {
            b.iter(|| {
                StackMr::new(
                    StackMrConfig::default()
                        .with_seed(1)
                        .with_job(bench_job())
                        .stack_greedy(),
                )
                .run(&graph, &caps, &bench_flow())
            })
        });
    }
    group.finish();
}

/// Figure 4: violation measurement of StackMR.
fn bench_violations(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_capacity_violations");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (graph, caps) = bench_graph(2_000);
    group.bench_function("stackmr_with_violation_report", |b| {
        b.iter(|| {
            let run = StackMr::new(StackMrConfig::default().with_seed(3).with_job(bench_job()))
                .run(&graph, &caps, &bench_flow());
            run.average_violation(&graph, &caps)
        })
    });
    group.finish();
}

/// Figure 5: GreedyMR any-time trace.
fn bench_anytime(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_greedymr_anytime");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (graph, caps) = bench_graph(2_000);
    group.bench_function("greedymr_value_trace", |b| {
        b.iter(|| {
            let run = GreedyMr::new(GreedyMrConfig::default().with_job(bench_job())).run(
                &graph,
                &caps,
                &bench_flow(),
            );
            run.rounds_to_reach_fraction(0.95)
        })
    });
    group.finish();
}

/// Figures 6 and 7: distribution histograms over a generated dataset.
fn bench_distributions(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_7_distributions");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("similarity_and_capacity_histograms", |b| {
        let mut set = smoke_set();
        // Warm the instance cache once so the bench isolates the histogram
        // computation plus the threshold filtering.
        let _ = experiments::table1(&mut set);
        b.iter(|| {
            let sims = experiments::similarity_distribution(&mut set);
            let caps = experiments::capacity_distribution(&mut set);
            (sims.len(), caps.len())
        })
    });
    group.finish();
}

/// GreedyMR worst case: the increasing-weight path (Section 5.4).
fn bench_greedymr_worst_case(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedymr_worst_case_path");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &length in &[32usize, 128] {
        let (graph, caps) = smr_datagen::pathological::increasing_weight_path(length);
        group.bench_with_input(BenchmarkId::new("path", length), &length, |b, _| {
            b.iter(|| {
                GreedyMr::new(GreedyMrConfig::default().with_job(bench_job())).run(
                    &graph,
                    &caps,
                    &bench_flow(),
                )
            })
        });
    }
    group.finish();
}

/// Exact solver vs the approximations (the "why approximation algorithms"
/// motivation of Section 1).
fn bench_exact_vs_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_solver_vs_greedy");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (graph, caps) = bench_graph(1_000);
    group.bench_function("exact_min_cost_flow", |b| {
        b.iter(|| smr_matching::optimal_matching(&graph, &caps))
    });
    group.bench_function("centralized_greedy", |b| {
        b.iter(|| smr_matching::greedy_matching(&graph, &caps))
    });
    group.finish();
}

criterion_group!(
    paper_benches,
    bench_table1,
    bench_quality_figures,
    bench_violations,
    bench_anytime,
    bench_distributions,
    bench_greedymr_worst_case,
    bench_exact_vs_greedy,
);
criterion_main!(paper_benches);
