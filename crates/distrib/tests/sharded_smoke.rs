//! End-to-end smoke tests for the multi-process sharded runtime: word
//! count across worker processes must be byte-identical to the in-process
//! engine, fresh runs and retried runs alike, and so must rounds over
//! partition-resident state, which never enter the session.
//!
//! Every test passes explicit worker arguments (`--exact <test_name>`) so
//! the re-invoked test binary replays only the calling test.

use smr_distrib::{last_session_stats, run_sharded, ShardOptions};
use smr_mapreduce::prelude::*;

struct Tokenize;
impl Mapper for Tokenize {
    type InKey = usize;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, _k: &usize, text: &String, out: &mut Emitter<String, u64>) {
        for w in text.split_whitespace() {
            out.emit(w.to_string(), 1);
        }
    }
}

struct Sum;
impl Reducer for Sum {
    type Key = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, k: &String, vs: &[u64], out: &mut Emitter<String, u64>) {
        out.emit(k.clone(), vs.iter().sum());
    }
}

fn corpus() -> Vec<(usize, String)> {
    let words = ["pablo", "picasso", "monet", "art", "photo", "tag", "flickr"];
    (0..97)
        .map(|i| {
            let text: Vec<&str> = (0..(i % 13 + 1)).map(|j| words[(i * 7 + j) % 7]).collect();
            (i, text.join(" "))
        })
        .collect()
}

fn word_count(config: JobConfig) -> JobResult<String, u64> {
    Job::new(config).run(&Tokenize, &Sum, corpus())
}

fn options(shards: usize, test_name: &str) -> ShardOptions {
    ShardOptions::new(shards)
        .with_session_key(test_name)
        .with_worker_args(["--exact", test_name, "--nocapture"])
}

fn assert_sharded_matches_local(shards: usize, test_name: &str, budget: Option<u64>) {
    let config = JobConfig::named("smoke-wc")
        .with_threads(2)
        .with_map_tasks(8)
        .with_reduce_tasks(3)
        .with_memory_budget(budget);
    let local = word_count(config.clone());
    let sharded = run_sharded(options(shards, test_name), || {
        word_count(config.clone().with_process_shards(shards))
    });
    assert_eq!(
        sharded.output, local.output,
        "output must be byte-identical"
    );
    assert_eq!(
        sharded.counters.snapshot(),
        local.counters.snapshot(),
        "aggregated counters must match the in-process run"
    );
}

#[test]
fn one_shard_matches_local() {
    assert_sharded_matches_local(1, "one_shard_matches_local", None);
}

#[test]
fn three_shards_match_local() {
    assert_sharded_matches_local(3, "three_shards_match_local", None);
}

#[test]
fn sharding_composes_with_spilling() {
    assert_sharded_matches_local(2, "sharding_composes_with_spilling", Some(4096));
}

#[test]
fn killed_worker_is_retried_to_the_same_bytes() {
    let config = JobConfig::named("smoke-wc-faulty")
        .with_threads(2)
        .with_map_tasks(8)
        .with_reduce_tasks(3);
    let local = word_count(config.clone());
    let opts = options(2, "killed_worker_is_retried_to_the_same_bytes").with_fail_shard(Some(1));
    let sharded = run_sharded(opts, || word_count(config.clone().with_process_shards(2)));
    assert_eq!(sharded.output, local.output);
    assert_eq!(sharded.counters.snapshot(), local.counters.snapshot());
    let stats = last_session_stats().expect("a session just completed");
    assert!(
        stats.respawns >= 1,
        "the injected fault must have forced at least one respawn, got {stats:?}"
    );
}

/// A round workload: every key tells `(3k + 1) % 40` its counter (keys
/// 30..40 have no state), adds one plus what it heard, reports the sum
/// and retires past 1 000.
struct Relay;

fn relay_notes(k: &u32, count: &u64, out: &mut Emitter<u32, u64>) {
    out.emit((3 * k + 1) % 40, *count);
}

impl StateReducer for Relay {
    type Key = u32;
    type State = u64;
    type Note = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn reduce(
        &self,
        k: &u32,
        count: u64,
        notes: &[u64],
        out: &mut Emitter<u32, u64>,
        next: &mut Emitter<u32, u64>,
    ) -> Option<u64> {
        let count = count + 1 + notes.iter().sum::<u64>();
        out.emit(*k, count);
        let kept = (count <= 1_000).then_some(count);
        if let Some(count) = &kept {
            relay_notes(k, count, next);
        }
        kept
    }
}

/// Every round's side output, live count and peak state bytes.
type RelayTrace = Vec<(Vec<(u32, u64)>, usize, u64)>;

/// Runs [`Relay`] to convergence.
fn relay(config: JobConfig) -> RelayTrace {
    let flow = FlowContext::new(config);
    let mut state = flow.round_state("relay");
    state.seed((0..30).map(|k| (k, u64::from(k))).collect());
    state.map(relay_notes);
    let mut trace = Vec::new();
    while !state.is_empty() {
        let side = state.round("relay", Relay);
        trace.push((side, state.len(), state.max_state_bytes()));
    }
    trace
}

#[test]
fn rounds_over_state_run_in_process_to_the_same_bytes() {
    let test_name = "rounds_over_state_run_in_process_to_the_same_bytes";
    let config = JobConfig::named("smoke-relay")
        .with_threads(2)
        .with_reduce_tasks(3);
    let local = relay(config.clone());
    let sharded = run_sharded(options(2, test_name), || {
        relay(config.clone().with_process_shards(2))
    });
    assert!(local.len() >= 3, "the workload must iterate");
    assert_eq!(sharded, local, "side output, len and max_state_bytes");
    let stats = last_session_stats().expect("a session just completed");
    assert_eq!(stats.jobs, 0, "no round is a session job");
}
