//! Ablation benchmarks for the two algorithm parameters of StackMR:
//!
//! * the marking strategy of the maximal-matching subroutine
//!   (random = StackMR, heaviest-first = StackGreedyMR,
//!   weight-proportional = the third variant the paper dismisses),
//! * the slackness parameter ε (violation vs rounds trade-off).
//!
//! Engine thread scaling and memory budgets are workloads of the repo
//! benchmark (`mapreduce.t1_over_t2`, `batch-spill`), not criterion groups.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smr_datagen::{RandomGraphConfig, WeightDistribution};
use smr_graph::Capacities;
use smr_mapreduce::{FlowContext, JobConfig};
use smr_matching::{MarkingStrategy, StackMr, StackMrConfig};

fn bench_graph(num_edges: usize, seed: u64) -> (smr_graph::BipartiteGraph, Capacities) {
    let graph = RandomGraphConfig {
        num_items: 250,
        num_consumers: 100,
        num_edges,
        weights: WeightDistribution::Exponential {
            min: 0.05,
            rate: 8.0,
            cap: 1.0,
        },
        popularity_exponent: 0.8,
        seed,
    }
    .generate();
    let caps = Capacities::uniform(&graph, 4, 3);
    (graph, caps)
}

/// Marking-strategy ablation: the StackMR / StackGreedyMR /
/// weight-proportional variants on the same instance.
fn bench_marking_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_marking_strategy");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (graph, caps) = bench_graph(2_000, 11);
    for (name, strategy) in [
        ("random", MarkingStrategy::Random),
        ("heaviest_first", MarkingStrategy::HeaviestFirst),
        ("weight_proportional", MarkingStrategy::WeightProportional),
    ] {
        group.bench_function(BenchmarkId::new("stack_mr", name), |b| {
            b.iter(|| {
                let job = JobConfig::named("ablation");
                StackMr::new(
                    StackMrConfig::default()
                        .with_seed(5)
                        .with_marking(strategy)
                        .with_job(job.clone()),
                )
                .run(&graph, &caps, &FlowContext::new(job))
            })
        });
    }
    group.finish();
}

/// ε ablation: thinner layers (small ε) trade more rounds for smaller
/// capacity violations.
fn bench_epsilon(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_epsilon");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (graph, caps) = bench_graph(2_000, 13);
    for &epsilon in &[0.25f64, 0.5, 1.0, 2.0] {
        group.bench_with_input(
            BenchmarkId::new("stack_mr_eps", format!("{epsilon}")),
            &epsilon,
            |b, &eps| {
                b.iter(|| {
                    let job = JobConfig::named("ablation");
                    StackMr::new(
                        StackMrConfig::default()
                            .with_seed(5)
                            .with_epsilon(eps)
                            .with_job(job.clone()),
                    )
                    .run(&graph, &caps, &FlowContext::new(job))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(ablation_benches, bench_marking_strategy, bench_epsilon);
criterion_main!(ablation_benches);
