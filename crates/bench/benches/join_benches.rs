//! Criterion group for the streaming similarity join — the group the CI
//! bench smoke step runs: the two-job MapReduce join (prefix filter +
//! partial products + suffix-bound pruning) vs the brute-force all-pairs
//! baseline.  The join under a small memory budget is the repo
//! benchmark's `batch-spill` workload.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use smr_datagen::DatasetPreset;
use smr_mapreduce::{FlowContext, JobConfig};
use smr_simjoin::{baseline_similarity_join, mapreduce_similarity_join_flow};
use smr_text::{Corpus, TokenizerConfig};

/// Streaming similarity join vs the brute-force baseline.
fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_similarity");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let dataset = DatasetPreset::FlickrSmall.generate();
    let items = Corpus::build(dataset.items.clone(), &TokenizerConfig::tags_only());
    let consumers = Corpus::build(dataset.consumers.clone(), &TokenizerConfig::tags_only());
    let sigma = DatasetPreset::FlickrSmall.default_sigma();
    group.bench_function("streaming_prefix_filtering", |b| {
        b.iter(|| {
            mapreduce_similarity_join_flow(
                &items,
                &consumers,
                sigma,
                &FlowContext::new(JobConfig::named("join-bench")),
            )
        })
    });
    group.bench_function("brute_force_baseline", |b| {
        b.iter(|| baseline_similarity_join(&items, &consumers, sigma))
    });
    group.finish();
}

criterion_group!(join_benches, bench_join);
criterion_main!(join_benches);
