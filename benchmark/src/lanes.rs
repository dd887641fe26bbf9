//! Lanes: small fixed-input loops that time one primitive of a layer
//! directly, so a change to the codec, the run format, the merge or the
//! per-job cost shows in a number of its own, next to the workload whose
//! wall it is predicted to move.
//!
//! Lane inputs are the same on every run and every seed: a lane is a
//! property of the code, not of the workload's data.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use social_content_matching::mapreduce::prelude::{Emitter, Mapper, Reducer};
use social_content_matching::mapreduce::{merge_runs, FlowContext, JobConfig};
use social_content_matching::storage::{Codec, RunReader, RunWriter};

use crate::proc::spawn_noop;
use crate::report::Report;
use crate::serve::splitmix;
use crate::stats::{median, sorted};

/// The shape of the matching rounds' shuffle records: a node id keyed to
/// a (neighbour, weight) pair.
type WireRecord = (u32, (u32, f64));

const LANE_RECORDS: usize = 1_000_000;
const LANE_REPS: usize = 5;

fn wire_records() -> Vec<WireRecord> {
    let mut state = 7;
    (0..LANE_RECORDS)
        .map(|i| {
            let r = splitmix(&mut state);
            (i as u32, ((r >> 40) as u32, (r & 0xffff) as f64 / 65_536.0))
        })
        .collect()
}

/// Median seconds of `LANE_REPS` runs of `work`.
fn median_secs(mut work: impl FnMut()) -> f64 {
    let samples = (0..LANE_REPS)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&sorted(samples))
}

/// `smr_storage` codec and run-file lanes plus the `smr_mapreduce` merge
/// lane: what `batch-spill` pays per spilled record.
pub fn storage_and_merge(tmp: &Path, report: &mut Report) {
    let records = wire_records();
    let per_record = |secs: f64| secs * 1e9 / LANE_RECORDS as f64;

    let mut scratch = Vec::new();
    let encode_s = median_secs(|| {
        for record in &records {
            black_box(black_box(record).encode_into(&mut scratch));
        }
    });
    report.set("storage.encode_ns_per_record", per_record(encode_s));

    let mut encoded = Vec::new();
    for record in &records {
        record.encode(&mut encoded);
    }
    let decode_s = median_secs(|| {
        let mut input = black_box(encoded.as_slice());
        while !input.is_empty() {
            black_box(WireRecord::decode(&mut input).expect("lane bytes decode"));
        }
    });
    report.set("storage.decode_ns_per_record", per_record(decode_s));

    let path = tmp.join("lane.run");
    let mut run_bytes = 0;
    let write_s = median_secs(|| {
        let mut writer = RunWriter::<WireRecord>::create(&path).expect("lane run file opens");
        for record in &records {
            writer.push(record).expect("lane record writes");
        }
        run_bytes = writer.finish().expect("lane run file finishes").bytes;
    });
    let read_s = median_secs(|| {
        let mut reader = RunReader::<WireRecord>::open(&path).expect("lane run file reopens");
        let mut read = 0;
        while let Some(record) = reader.next_record().expect("lane record reads") {
            black_box(record);
            read += 1;
        }
        assert_eq!(read, LANE_RECORDS, "run file lost records");
    });
    let _ = std::fs::remove_file(&path);
    let megabytes = run_bytes as f64 / 1e6;
    report.set("storage.run_write_mb_per_s", megabytes / write_s);
    report.set("storage.run_read_mb_per_s", megabytes / read_s);

    // 64 sorted runs, each key about eight times per run, as a reduce
    // partition of a matching round sees them.
    let runs: Vec<Vec<(u32, u64)>> = (0..64u64)
        .map(|run| {
            let len = LANE_RECORDS / 64;
            (0..len).map(|i| ((i / 8) as u32, run)).collect()
        })
        .collect();
    let mut merge_samples = Vec::new();
    for _ in 0..LANE_REPS {
        let input = runs.clone();
        let start = Instant::now();
        let merged = merge_runs(black_box(input));
        merge_samples.push(start.elapsed().as_secs_f64());
        assert_eq!(black_box(merged).len(), LANE_RECORDS / 64 * 64);
    }
    report.set(
        "mapreduce.merge_ns_per_record",
        median(&sorted(merge_samples)) * 1e9 / (LANE_RECORDS / 64 * 64) as f64,
    );
}

struct Forward;

impl Mapper for Forward {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn map(&self, key: &u32, value: &u64, out: &mut Emitter<u32, u64>) {
        out.emit(*key, *value);
    }
}

impl Reducer for Forward {
    type Key = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn reduce(&self, key: &u32, values: &[u64], out: &mut Emitter<u32, u64>) {
        out.emit(*key, values.iter().sum());
    }
}

/// What one MapReduce job costs when it has nothing to do: 200
/// one-record jobs through one flow, the cost `batch-stack` pays 45
/// times per run.
pub fn job_overhead(job: &JobConfig, report: &mut Report) {
    const JOBS: usize = 200;
    let flow = FlowContext::new(job.clone());
    let start = Instant::now();
    for i in 0..JOBS {
        let out = flow
            .dataset(vec![(i as u32, 1u64)])
            .map_with(Forward)
            .reduce_with(Forward)
            .collect();
        assert_eq!(black_box(out).len(), 1);
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    report.set("mapreduce.job_overhead_ms", elapsed_ms / JOBS as f64);
}

/// What starting one process costs: the floor under every worker
/// `batch-sharded` spawns.
pub fn spawn(report: &mut Report) {
    let mut samples = Vec::new();
    for _ in 0..20 {
        let start = Instant::now();
        if let Err(error) = spawn_noop() {
            report.check(Some(error));
            return;
        }
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    report.set("distrib.spawn_ms", median(&sorted(samples)));
}
