//! Synthetic flickr-like dataset: photos described by tags, users described
//! by the tags they use, power-law activity and favourites.
//!
//! Structure of the generator (mirroring how the paper builds its flickr
//! datasets in Section 6):
//!
//! * every *user* has a small set of topical interests drawn from a Zipf
//!   distribution over a tag vocabulary and an activity level `n(u)`
//!   (photos posted) drawn from a power law;
//! * every *photo* belongs to one of the users (proportionally to
//!   activity) and is tagged with tags drawn mostly from its owner's
//!   interests plus some global noise — this is what creates non-trivial
//!   photo–user similarities;
//! * every photo receives a number of favourites `f(p)` drawn from a power
//!   law (the quality signal used for item capacities);
//! * the user document is the union of the tags the user has used, exactly
//!   as the paper represents users.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smr_text::Document;

use crate::powerlaw::{PowerLawSampler, ZipfSampler};
use crate::social::{ItemCapacityPolicy, SocialDataset};

/// Configuration of the flickr-like generator.
#[derive(Debug, Clone)]
pub struct FlickrGenerator {
    /// Number of photos (items).
    pub num_photos: usize,
    /// Number of users (consumers).
    pub num_users: usize,
    /// Tag vocabulary size.
    pub vocabulary: usize,
    /// Zipf exponent of tag popularity.
    pub tag_exponent: f64,
    /// Number of interest tags per user.
    pub interests_per_user: usize,
    /// Number of tags per photo.
    pub tags_per_photo: usize,
    /// Probability that a photo tag comes from the owner's interests
    /// (rather than the global tag distribution).
    pub topicality: f64,
    /// Power-law exponent of user activity (photos posted).
    pub activity_exponent: f64,
    /// Maximum activity value.
    pub max_activity: u64,
    /// Power-law exponent of photo favourites.
    pub favorites_exponent: f64,
    /// Maximum favourites value.
    pub max_favorites: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlickrGenerator {
    fn default() -> Self {
        FlickrGenerator {
            num_photos: 500,
            num_users: 100,
            vocabulary: 400,
            tag_exponent: 1.05,
            interests_per_user: 12,
            tags_per_photo: 6,
            topicality: 0.7,
            activity_exponent: 1.6,
            max_activity: 200,
            favorites_exponent: 1.8,
            max_favorites: 500,
            seed: 42,
        }
    }
}

impl FlickrGenerator {
    /// Generates the dataset in memory: one photo document per photo and
    /// one user document per user, each in id order.
    pub fn generate(&self) -> SocialDataset {
        assert!(self.num_photos > 0 && self.num_users > 0);
        assert!((0.0..=1.0).contains(&self.topicality));
        let mut rng = StdRng::seed_from_u64(self.seed);
        let tag_sampler = ZipfSampler::new(self.vocabulary, self.tag_exponent);
        let activity_sampler = PowerLawSampler::new(self.max_activity, self.activity_exponent);
        let favorites_sampler = PowerLawSampler::new(self.max_favorites, self.favorites_exponent);

        // Users: interests and activity.
        let mut user_interests: Vec<Vec<usize>> = Vec::with_capacity(self.num_users);
        let mut consumer_activity: Vec<u64> = Vec::with_capacity(self.num_users);
        for _ in 0..self.num_users {
            let mut interests: Vec<usize> = (0..self.interests_per_user)
                .map(|_| tag_sampler.sample(&mut rng))
                .collect();
            interests.sort_unstable();
            interests.dedup();
            user_interests.push(interests);
            consumer_activity.push(activity_sampler.sample(&mut rng));
        }

        // Photos: owner (activity-proportional), tags, favourites.
        let total_activity: u64 = consumer_activity.iter().sum();
        let mut items = Vec::with_capacity(self.num_photos);
        let mut item_quality = Vec::with_capacity(self.num_photos);
        // Track which tags each user actually used so the user document is
        // the union of the tags of their photos plus their interests.
        let mut user_used_tags: Vec<Vec<usize>> = vec![Vec::new(); self.num_users];
        for photo in 0..self.num_photos {
            let owner = sample_weighted(&mut rng, &consumer_activity, total_activity);
            let mut tags = Vec::with_capacity(self.tags_per_photo);
            for _ in 0..self.tags_per_photo {
                let from_interests =
                    !user_interests[owner].is_empty() && rng.gen::<f64>() < self.topicality;
                let tag = if from_interests {
                    user_interests[owner][rng.gen_range(0..user_interests[owner].len())]
                } else {
                    tag_sampler.sample(&mut rng)
                };
                tags.push(tag);
            }
            tags.sort_unstable();
            tags.dedup();
            user_used_tags[owner].extend(tags.iter().copied());
            let text = tags
                .iter()
                .map(|&t| format!("tag{t}"))
                .collect::<Vec<_>>()
                .join(" ");
            items.push(Document::new(format!("photo-{photo}"), text));
            item_quality.push(favorites_sampler.sample(&mut rng));
        }

        // Consumers: interests plus the tags of their own photos (known
        // only once every photo has been assigned).
        let mut consumers = Vec::with_capacity(self.num_users);
        for u in 0..self.num_users {
            let mut tags: Vec<usize> = user_interests[u]
                .iter()
                .chain(user_used_tags[u].iter())
                .copied()
                .collect();
            tags.sort_unstable();
            tags.dedup();
            let text = tags
                .iter()
                .map(|&t| format!("tag{t}"))
                .collect::<Vec<_>>()
                .join(" ");
            consumers.push(Document::new(format!("user-{u}"), text));
        }

        let dataset = SocialDataset {
            name: "flickr-synthetic".to_string(),
            items,
            consumers,
            item_quality,
            consumer_activity,
            item_capacity_policy: ItemCapacityPolicy::QualityProportional,
        };
        debug_assert!(dataset.validate().is_ok());
        dataset
    }
}

/// Samples an index proportionally to the given non-negative weights.
fn sample_weighted(rng: &mut StdRng, weights: &[u64], total: u64) -> usize {
    if total == 0 {
        return rng.gen_range(0..weights.len());
    }
    let mut target = rng.gen_range(0..total);
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FlickrGenerator {
        FlickrGenerator {
            num_photos: 60,
            num_users: 15,
            vocabulary: 50,
            seed: 7,
            ..FlickrGenerator::default()
        }
    }

    #[test]
    fn generates_a_valid_dataset_of_the_requested_size() {
        let d = small().generate();
        assert_eq!(d.num_items(), 60);
        assert_eq!(d.num_consumers(), 15);
        assert!(d.validate().is_ok());
        assert_eq!(
            d.item_capacity_policy,
            ItemCapacityPolicy::QualityProportional
        );
    }

    #[test]
    fn generation_is_reproducible_for_a_seed() {
        let a = small().generate();
        let b = small().generate();
        assert_eq!(a.items, b.items);
        assert_eq!(a.consumer_activity, b.consumer_activity);
        let c = FlickrGenerator { seed: 8, ..small() }.generate();
        assert_ne!(a.items, c.items);
    }

    #[test]
    fn activity_and_favorites_are_heavy_tailed() {
        let d = FlickrGenerator {
            num_photos: 2000,
            num_users: 400,
            seed: 3,
            ..FlickrGenerator::default()
        }
        .generate();
        let ones = d.consumer_activity.iter().filter(|&&a| a == 1).count();
        assert!(
            ones > d.num_consumers() / 3,
            "most users should post little"
        );
        let max_activity = *d.consumer_activity.iter().max().unwrap();
        assert!(max_activity >= 10, "a few users should be very active");
        let max_fav = *d.item_quality.iter().max().unwrap();
        assert!(max_fav >= 10, "a few photos should be very popular");
    }

    #[test]
    fn photo_and_owner_share_tags_thanks_to_topicality() {
        let d = small().generate();
        // At least some photos must share a tag with some user profile —
        // otherwise the similarity join would produce an empty graph.
        let any_overlap = d.items.iter().any(|photo| {
            d.consumers.iter().any(|user| {
                photo
                    .text
                    .split_whitespace()
                    .any(|tag| user.text.split_whitespace().any(|t| t == tag))
            })
        });
        assert!(any_overlap);
    }

    #[test]
    fn capacities_use_the_flickr_policy() {
        let d = small().generate();
        let caps = d.capacities(1.0);
        assert_eq!(caps.num_items(), d.num_items());
        assert_eq!(caps.num_consumers(), d.num_consumers());
        assert!(caps.total_item_capacity() > 0);
    }

    #[test]
    fn sample_weighted_respects_weights() {
        let mut rng = StdRng::seed_from_u64(11);
        let weights = vec![0, 0, 10, 0];
        for _ in 0..100 {
            assert_eq!(sample_weighted(&mut rng, &weights, 10), 2);
        }
        // Zero total falls back to uniform but stays in range.
        for _ in 0..100 {
            let i = sample_weighted(&mut rng, &[0, 0, 0], 0);
            assert!(i < 3);
        }
    }
}
