//! The end-to-end pipeline shared by all experiments: dataset generation,
//! similarity join, σ-thresholding and capacity assignment — built on the
//! facade crate's [`MatchingPipeline`], so the harness exercises exactly
//! the entry point users call.

use smr_datagen::{DatasetPreset, SocialDataset};
use smr_graph::{BipartiteGraph, Capacities};
use smr_mapreduce::JobConfig;
use smr_text::TokenizerConfig;
use social_content_matching::MatchingPipeline;

/// A dataset that has been pushed through the similarity join once, at the
/// loosest threshold of its σ sweep.  Denser/sparser candidate graphs are
/// then obtained by filtering, exactly like the paper sweeps density by
/// varying σ over one dataset.
#[derive(Debug, Clone)]
pub struct DatasetInstance {
    /// Which preset this instance came from.
    pub preset: DatasetPreset,
    /// The generated documents and signals.
    pub dataset: SocialDataset,
    /// Candidate graph at the loosest σ of the sweep.
    pub base_graph: BipartiteGraph,
    /// The loosest σ (every edge of `base_graph` has weight ≥ this).
    pub base_sigma: f64,
}

impl DatasetInstance {
    /// Generates the preset, runs the similarity join at the loosest σ of
    /// the preset's sweep (through [`MatchingPipeline`]) and returns the
    /// instance.
    pub fn generate(preset: DatasetPreset, job: JobConfig) -> Self {
        let dataset = preset.generate();
        let base_sigma = *preset
            .sigma_sweep()
            .last()
            .expect("every preset has a non-empty sigma sweep");
        let job = job.with_name(format!("simjoin-{}", dataset.name));
        let candidate = MatchingPipeline::new(dataset)
            .tokenizer(TokenizerConfig::tags_only())
            .sigma(base_sigma)
            .job(job)
            .build_graph();
        DatasetInstance {
            preset,
            dataset: candidate.dataset,
            base_graph: candidate.join.graph,
            base_sigma,
        }
    }

    /// The candidate graph at threshold `sigma ≥ base_sigma`.
    pub fn graph_at(&self, sigma: f64) -> BipartiteGraph {
        self.base_graph.filter_by_threshold(sigma)
    }

    /// Capacities for the given α.
    pub fn capacities(&self, alpha: f64) -> Capacities {
        self.dataset.capacities(alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_job() -> JobConfig {
        JobConfig::named("pipeline-test").with_threads(2)
    }

    #[test]
    fn instance_generation_produces_a_nonempty_candidate_graph() {
        let instance = DatasetInstance::generate(DatasetPreset::FlickrSmall, quick_job());
        assert!(instance.base_graph.num_edges() > 0);
        assert_eq!(
            instance.base_graph.num_items(),
            instance.dataset.num_items()
        );
        assert!(instance
            .base_graph
            .edges()
            .iter()
            .all(|e| e.weight >= instance.base_sigma));
    }

    #[test]
    fn lowering_sigma_adds_candidate_edges() {
        let instance = DatasetInstance::generate(DatasetPreset::FlickrSmall, quick_job());
        // The sweep lists σ in decreasing order, so the edge count must be
        // non-decreasing along it (more edges pass a lower threshold).
        let sweep = instance.preset.sigma_sweep();
        let mut last_edges = 0usize;
        for sigma in sweep {
            let g = instance.graph_at(sigma);
            assert!(
                g.num_edges() >= last_edges,
                "lower sigma must not remove edges"
            );
            last_edges = g.num_edges();
        }
        assert_eq!(last_edges, instance.base_graph.num_edges());
    }

    #[test]
    fn capacities_match_the_candidate_graph() {
        let instance = DatasetInstance::generate(DatasetPreset::FlickrSmall, quick_job());
        let caps = instance.capacities(1.0);
        assert!(caps.matches(&instance.base_graph));
    }
}
