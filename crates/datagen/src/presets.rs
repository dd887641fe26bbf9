//! Laptop-scale stand-ins for the paper's three datasets.
//!
//! | Preset | Paper size (|T| / |C| / |E|) | This preset (|T| / |C|) |
//! |---|---|---|
//! | `flickr-small`   | 2 817 / 526 / 550 667            | 300 / 80   |
//! | `flickr-large`   | 373 373 / 32 707 / 1 995 123 827 | 4 200 / 640 |
//! | `yahoo-answers`  | 4 852 689 / 1 149 714 / 18 847 281 236 | 2 600 / 820 |
//! | `flickr-xl`      | — (scale tier)                   | 13 500 / 2 000 |
//!
//! `flickr-large` and `yahoo-answers` grow a notch toward the paper's
//! sizes with every scaling PR (3 600 / 560 and 2 200 / 700 before the
//! matching rounds went out-of-core, 2 500 / 400 and 1 500 / 500 before
//! the streaming similarity join landed); the sweeps stay laptop-scale
//! because neither the join's candidate set nor the matchers' round state
//! is materialized in RAM any more.
//!
//! The absolute sizes are scaled down by orders of magnitude so that the
//! full pipeline (similarity join + matching + parameter sweeps) runs on a
//! laptop in minutes; the *relative* characteristics the experiments
//! depend on are preserved: flickr-large is much larger and has a much more
//! skewed capacity distribution than flickr-small, and yahoo-answers has
//! uniform item capacities with many more items than consumers.
//!
//! `flickr-xl` is not one of the paper's datasets: it is the *scale tier*,
//! the largest Flickr-shaped input, which feeds the repo benchmark's
//! `serving-mixed` workload.  It is therefore not part of
//! [`DatasetPreset::all`] — the paper sweeps stay laptop-fast — but is
//! addressable by name everywhere presets are.

use crate::answers::AnswersGenerator;
use crate::flickr::FlickrGenerator;
use crate::social::SocialDataset;

/// The three datasets of the paper's evaluation, at laptop scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetPreset {
    /// Scaled-down `flickr-small`.
    FlickrSmall,
    /// Scaled-down `flickr-large`.
    FlickrLarge,
    /// Scaled-down `yahoo-answers`.
    YahooAnswers,
    /// The out-of-core scale tier: a Flickr-shaped dataset sized to
    /// overflow small memory budgets and force the engine's spill path.
    FlickrXl,
}

impl DatasetPreset {
    /// The paper's three presets, in the order the paper presents them
    /// (the `flickr-xl` scale tier is addressed explicitly, not swept).
    pub fn all() -> [DatasetPreset; 3] {
        [
            DatasetPreset::FlickrSmall,
            DatasetPreset::FlickrLarge,
            DatasetPreset::YahooAnswers,
        ]
    }

    /// The dataset name used in reports (matches the paper's naming).
    pub fn name(self) -> &'static str {
        match self {
            DatasetPreset::FlickrSmall => "flickr-small",
            DatasetPreset::FlickrLarge => "flickr-large",
            DatasetPreset::YahooAnswers => "yahoo-answers",
            DatasetPreset::FlickrXl => "flickr-xl",
        }
    }

    /// Default similarity thresholds σ swept by the experiments for this
    /// preset (lower thresholds ⇒ more candidate edges), mirroring the
    /// σ sweeps of Figures 1–3.
    pub fn sigma_sweep(self) -> Vec<f64> {
        match self {
            DatasetPreset::FlickrSmall => vec![0.30, 0.22, 0.16, 0.11, 0.07],
            DatasetPreset::FlickrLarge | DatasetPreset::FlickrXl => {
                vec![0.35, 0.27, 0.20, 0.14, 0.09]
            }
            DatasetPreset::YahooAnswers => vec![0.30, 0.22, 0.16, 0.11, 0.07],
        }
    }

    /// The default σ used when a single instance of the preset is needed.
    pub fn default_sigma(self) -> f64 {
        self.sigma_sweep()[self.sigma_sweep().len() / 2]
    }

    /// The signature/sampling seed the sketch candidate generators use on
    /// this preset — one well-known value per preset, so the benchmark's
    /// recall lanes, the recall regression guard and any ad-hoc run all
    /// sample identically and their numbers are comparable.
    pub fn sketch_seed(self) -> u64 {
        // Disjoint from the dataset generation seed (2011) on purpose:
        // reusing one seed for both data and sketches would correlate the
        // sampled coordinates with the generated term assignments.
        0x5e7c_0000 + self as u64
    }

    /// Generates the documents, activity and quality signals of the
    /// preset.
    pub fn generate(self) -> SocialDataset {
        self.generate_with_seed(2011)
    }

    /// Generates the preset with an explicit seed.
    pub fn generate_with_seed(self, seed: u64) -> SocialDataset {
        let mut dataset = match self {
            DatasetPreset::FlickrSmall => FlickrGenerator {
                num_photos: 300,
                num_users: 80,
                vocabulary: 250,
                interests_per_user: 14,
                tags_per_photo: 7,
                topicality: 0.75,
                seed,
                ..FlickrGenerator::default()
            }
            .generate(),
            DatasetPreset::FlickrLarge => FlickrGenerator {
                num_photos: 4_200,
                num_users: 640,
                vocabulary: 1_250,
                interests_per_user: 10,
                tags_per_photo: 6,
                topicality: 0.7,
                activity_exponent: 1.4,
                max_activity: 600,
                favorites_exponent: 1.6,
                max_favorites: 2_000,
                seed,
                ..FlickrGenerator::default()
            }
            .generate(),
            DatasetPreset::YahooAnswers => AnswersGenerator {
                num_questions: 2_600,
                num_users: 820,
                vocabulary: 1_700,
                num_topics: 40,
                seed,
                ..AnswersGenerator::default()
            }
            .generate(),
            DatasetPreset::FlickrXl => FlickrGenerator {
                num_photos: 13_500,
                num_users: 2_000,
                vocabulary: 2_200,
                interests_per_user: 10,
                tags_per_photo: 6,
                topicality: 0.7,
                activity_exponent: 1.4,
                max_activity: 600,
                favorites_exponent: 1.6,
                max_favorites: 2_000,
                seed,
                ..FlickrGenerator::default()
            }
            .generate(),
        };
        dataset.name = self.name().to_string();
        dataset
    }
}

impl std::fmt::Display for DatasetPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DatasetPreset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "flickr-small" => Ok(DatasetPreset::FlickrSmall),
            "flickr-large" => Ok(DatasetPreset::FlickrLarge),
            "yahoo-answers" => Ok(DatasetPreset::YahooAnswers),
            "flickr-xl" => Ok(DatasetPreset::FlickrXl),
            other => Err(format!(
                "unknown dataset preset '{other}' (expected flickr-small, flickr-large, \
                 yahoo-answers or flickr-xl)"
            )),
        }
    }
}

/// A fully generated preset instance: the dataset plus the α value used
/// when deriving capacities.
#[derive(Debug, Clone)]
pub struct PresetInstance {
    /// Which preset this is.
    pub preset: DatasetPreset,
    /// The generated dataset.
    pub dataset: SocialDataset,
    /// The activity multiplier α.
    pub alpha: f64,
}

impl PresetInstance {
    /// Generates a preset instance with the given α.
    pub fn new(preset: DatasetPreset, alpha: f64) -> Self {
        PresetInstance {
            preset,
            dataset: preset.generate(),
            alpha,
        }
    }

    /// Capacities of this instance.
    pub fn capacities(&self) -> smr_graph::Capacities {
        self.dataset.capacities(self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn presets_have_distinct_sizes_ordered_like_the_paper() {
        let small = DatasetPreset::FlickrSmall.generate();
        let large = DatasetPreset::FlickrLarge.generate();
        let answers = DatasetPreset::YahooAnswers.generate();
        assert!(large.num_items() > 5 * small.num_items());
        assert!(large.num_consumers() > small.num_consumers());
        assert!(answers.num_items() > answers.num_consumers());
        assert_eq!(small.name, "flickr-small");
        assert_eq!(large.name, "flickr-large");
        assert_eq!(answers.name, "yahoo-answers");
    }

    #[test]
    fn names_round_trip_through_fromstr_and_display() {
        for preset in DatasetPreset::all()
            .into_iter()
            .chain([DatasetPreset::FlickrXl])
        {
            let parsed = DatasetPreset::from_str(&preset.to_string()).unwrap();
            assert_eq!(parsed, preset);
        }
        assert!(DatasetPreset::from_str("imagenet").is_err());
    }

    #[test]
    fn xl_tier_stays_well_beyond_the_growing_large_tier() {
        // Sizing only — generating the documents is cheap; the XL tier is
        // consumed by shuffle workloads, not by the full join sweep.  The
        // paper tiers grow toward paper scale PR by PR, so the headroom
        // ratio shrinks over time; 3× is the floor before the spill tier
        // itself must grow.
        let xl = DatasetPreset::FlickrXl.generate();
        let large = DatasetPreset::FlickrLarge.generate();
        assert!(xl.num_items() >= 3 * large.num_items());
        assert!(xl.num_consumers() >= 3 * large.num_consumers());
        assert_eq!(xl.name, "flickr-xl");
        assert!(
            !DatasetPreset::all().contains(&DatasetPreset::FlickrXl),
            "the paper sweep must not grow the scale tier"
        );
    }

    #[test]
    fn sigma_sweeps_are_decreasing() {
        for preset in DatasetPreset::all() {
            let sweep = preset.sigma_sweep();
            assert!(sweep.len() >= 3);
            for pair in sweep.windows(2) {
                assert!(pair[1] < pair[0], "{preset}: sweep must be decreasing");
            }
            assert!(sweep.contains(&preset.default_sigma()));
        }
    }

    #[test]
    fn preset_instances_carry_consistent_capacities() {
        let instance = PresetInstance::new(DatasetPreset::FlickrSmall, 1.0);
        let caps = instance.capacities();
        assert_eq!(caps.num_items(), instance.dataset.num_items());
        assert_eq!(caps.num_consumers(), instance.dataset.num_consumers());
    }

    #[test]
    fn generation_with_same_seed_is_reproducible() {
        let a = DatasetPreset::YahooAnswers.generate_with_seed(5);
        let b = DatasetPreset::YahooAnswers.generate_with_seed(5);
        assert_eq!(a.items, b.items);
    }
}
