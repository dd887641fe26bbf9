//! The benchmark's vocabulary: workload names, metric names and units.
//!
//! This is the single in-code source of the names; `BENCHMARK.json` at
//! the repo root repeats them for the driver, and a unit test
//! (`tests::names_match_benchmark_json`) keeps the two identical.

/// How long one run measures when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

/// Seed used when `--seed` is not given; `expected.json` holds the
/// outputs for exactly this seed.
pub const DEFAULT_SEED: u64 = 2011;

/// A workload and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch-greedy",
        why: "GreedyMR on flickr-large fully in RAM: join and matching rounds do the work, storage almost none; the control for the next two",
    },
    Workload {
        name: "batch-spill",
        why: "same input and answer under a 4 MiB budget: the extra wall is storage plus the external merge, so codec, run I/O and merge changes show here",
    },
    Workload {
        name: "batch-sharded",
        why: "same input across 2 worker processes: isolates spawn, SPMD replay, manifest polling and the coordinator-only merge of smr_distrib",
    },
    Workload {
        name: "batch-stack",
        why: "StackMR on yahoo-answers: 45 small jobs, so per-job overhead, round-state I/O and the maximal-matching subroutine dominate, not the join",
    },
    Workload {
        name: "serving-mixed",
        why: "closed-loop point queries on flickr-xl with 5% assigns and periodic appends: latency-bound, cache-sensitive, and reads run beside writes",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: measured with tracing off on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric from the traced pass; the prefix is the crate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 63] = [
    lo("datagen.generate_s", "s"),
    lo("text.corpus_build_s", "s"),
    lo("text.docs", "count"),
    lo("text.terms", "count"),
    lo("simjoin.generate_s", "s"),
    lo("simjoin.index_job_s", "s"),
    lo("simjoin.probe_job_s", "s"),
    lo("simjoin.candidate_pairs", "count"),
    hi("simjoin.candidates_pruned", "count"),
    lo("simjoin.verify_exact", "count"),
    lo("simjoin.edges", "count"),
    hi("simjoin.prune_ratio", "ratio"),
    hi("simjoin.verify_yield", "ratio"),
    lo("simjoin.replication_rate", "ratio"),
    lo("mapreduce.jobs", "count"),
    lo("mapreduce.map_s", "s"),
    lo("mapreduce.shuffle_s", "s"),
    lo("mapreduce.reduce_s", "s"),
    lo("mapreduce.shuffle_records", "records"),
    lo("mapreduce.shuffle_bytes", "bytes"),
    lo("mapreduce.merge_runs", "count"),
    hi("mapreduce.combine_reduction", "ratio"),
    lo("mapreduce.outside_jobs_s", "s"),
    lo("mapreduce.job_overhead_ms", "ms"),
    lo("mapreduce.merge_ns_per_record", "ns"),
    lo("mapreduce.t1_over_t2", "ratio"),
    lo("storage.spill_bytes", "bytes"),
    lo("storage.disk_runs", "count"),
    lo("storage.spill_amplification", "ratio"),
    lo("storage.encode_ns_per_record", "ns"),
    lo("storage.decode_ns_per_record", "ns"),
    hi("storage.run_write_mb_per_s", "MB/s"),
    hi("storage.run_read_mb_per_s", "MB/s"),
    lo("matching.run_s", "s"),
    lo("matching.rounds", "count"),
    lo("matching.mr_jobs", "count"),
    lo("matching.round_p50_ms", "ms"),
    lo("matching.round_max_ms", "ms"),
    lo("matching.shuffle_records", "records"),
    hi("matching.matched_edges", "count"),
    hi("matching.value", "weight"),
    lo("matching.max_round_state_bytes", "bytes"),
    lo("matching.avg_violation", "ratio"),
    lo("distrib.session_s", "s"),
    lo("distrib.jobs", "count"),
    lo("distrib.respawns", "count"),
    lo("distrib.spawn_ms", "ms"),
    lo("distrib.overhead_ratio", "ratio"),
    lo("sketch.disco_generate_s", "s"),
    hi("sketch.disco_recall", "ratio"),
    lo("sketch.lsh_generate_s", "s"),
    hi("sketch.lsh_recall", "ratio"),
    lo("serving.build_s", "s"),
    lo("serving.vectorize_p50_us", "us"),
    lo("serving.assign_p50_us", "us"),
    lo("serving.matcher_p50_us", "us"),
    lo("serving.candidates_per_query", "count"),
    lo("serving.disk_reads_per_query", "ratio"),
    lo("serving.append_p50_ms", "ms"),
    lo("serving.append_ms_per_consumer", "ms"),
    lo("serving.maxima_exceeded", "count"),
    lo("serving.needs_rebuild", "count"),
    lo("trace.overhead_ratio", "ratio"),
];

/// Units whose values are exact counts: two runs of one commit on one
/// seed must report them identically (the self-check compares them).
pub fn is_count_unit(unit: &str) -> bool {
    matches!(unit, "count" | "records" | "bytes")
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// What `--list` prints: one line per name, with everything
/// `BENCHMARK.json` says about it.
pub fn list() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!("workload {}: {}\n", w.name, w.why));
    }
    for m in &END_TO_END {
        out.push_str(&format!(
            "end_to_end {} {} {} bound={}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    for m in &PER_LAYER {
        out.push_str(&format!(
            "per_layer {} {} {}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out
}
