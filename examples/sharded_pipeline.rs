//! Sharded pipeline: run the full matching pipeline across worker
//! *processes* and check the result byte-identical to the in-process run.
//!
//! ```text
//! cargo run --release --example sharded_pipeline
//! ```
//!
//! `MatchingPipeline::process_shards(n)` wraps the similarity join in an
//! `smr_distrib` session: a coordinator re-invokes this example as n
//! worker processes, each maps its slice of both join jobs' task spaces,
//! and sorted runs + checksummed manifests in a shared session directory
//! are the only channel between them (see docs/distrib.md).  The workers
//! replay `main` from the top — which is why everything here is
//! deterministic — and exit once the join's session ends; the matching
//! rounds, which have no map phase, run on the coordinator alone, so only
//! the coordinator prints.

use social_content_matching::datagen::FlickrGenerator;
use social_content_matching::distrib::{is_worker_process, last_session_stats};
use social_content_matching::matching::AlgorithmKind;
use social_content_matching::MatchingPipeline;

fn main() {
    let dataset = FlickrGenerator {
        num_photos: 60,
        num_users: 20,
        vocabulary: 80,
        seed: 42,
        ..FlickrGenerator::default()
    }
    .generate();

    let pipeline = |shards: usize| {
        let p = MatchingPipeline::new(dataset.clone())
            .sigma(0.12)
            .algorithm(AlgorithmKind::GreedyMr);
        if shards > 0 {
            p.process_shards(shards)
        } else {
            p
        }
    };

    let local = pipeline(0).run();
    for shards in [2, 4] {
        let sharded = pipeline(shards).run();
        // Workers replay this loop inline for sessions before their own
        // and die inside their own, so past this point in an iteration we
        // are either the coordinator or a worker catching up — and the
        // results agree bit for bit either way.
        assert_eq!(local.graph.edges(), sharded.graph.edges());
        assert_eq!(local.matching.matching, sharded.matching.matching);
        if !is_worker_process() {
            let stats = last_session_stats().expect("session finished");
            assert_eq!(
                stats.jobs, sharded.simjoin_jobs as u64,
                "the session holds exactly the join's jobs"
            );
            println!(
                "{} shards: {} edges, {} matched, value {:.2} — identical to local \
                 ({} sharded jobs, {} respawns)",
                shards,
                sharded.graph.num_edges(),
                sharded.matching.matching.len(),
                sharded.matching.value(&sharded.graph),
                stats.jobs,
                stats.respawns,
            );
        }
    }
    if !is_worker_process() {
        println!("in-process and multi-process runs are byte-identical");
    }
}
