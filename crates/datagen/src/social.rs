//! The common container produced by every dataset generator.

use smr_graph::{Capacities, CapacityModel};
use smr_text::Document;

/// How item capacities are derived from the dataset (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemCapacityPolicy {
    /// Items share the consumer budget equally (Yahoo! Answers questions).
    Uniform,
    /// Items receive budget proportional to their quality score
    /// (flickr photos, quality = favourites).
    QualityProportional,
}

/// A synthetic social-media dataset: documents for both sides plus the
/// activity / quality signals the capacity formulas need.
#[derive(Debug, Clone)]
pub struct SocialDataset {
    /// Dataset name (used in experiment reports).
    pub name: String,
    /// Item documents (photos / questions), index-aligned with item ids.
    pub items: Vec<Document>,
    /// Consumer documents (user profiles), index-aligned with consumer ids.
    pub consumers: Vec<Document>,
    /// Quality signal per item (favourites for flickr, unused for answers).
    pub item_quality: Vec<u64>,
    /// Activity proxy per consumer (photos posted / answers written).
    pub consumer_activity: Vec<u64>,
    /// Which item-capacity formula applies to this dataset.
    pub item_capacity_policy: ItemCapacityPolicy,
}

impl SocialDataset {
    /// Number of items `|T|`.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Number of consumers `|C|`.
    pub fn num_consumers(&self) -> usize {
        self.consumers.len()
    }

    /// Builds the capacities for the given activity factor α using the
    /// paper's formulas (Section 6).
    pub fn capacities(&self, alpha: f64) -> Capacities {
        let model = CapacityModel::new(alpha);
        match self.item_capacity_policy {
            ItemCapacityPolicy::QualityProportional => {
                model.flickr(&self.consumer_activity, &self.item_quality)
            }
            ItemCapacityPolicy::Uniform => model.answers(&self.consumer_activity, self.items.len()),
        }
    }

    /// Basic sanity validation used by generators and tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.items.is_empty() || self.consumers.is_empty() {
            return Err("dataset must have at least one item and one consumer".to_string());
        }
        if self.item_quality.len() != self.items.len() {
            return Err(format!(
                "item_quality has {} entries for {} items",
                self.item_quality.len(),
                self.items.len()
            ));
        }
        if self.consumer_activity.len() != self.consumers.len() {
            return Err(format!(
                "consumer_activity has {} entries for {} consumers",
                self.consumer_activity.len(),
                self.consumers.len()
            ));
        }
        if self.items.iter().any(|d| d.text.trim().is_empty()) {
            return Err("every item document needs non-empty text".to_string());
        }
        if self.consumers.iter().any(|d| d.text.trim().is_empty()) {
            return Err("every consumer document needs non-empty text".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> SocialDataset {
        SocialDataset {
            name: "tiny".to_string(),
            items: vec![
                Document::new("p0", "beach sunset"),
                Document::new("p1", "city night"),
            ],
            consumers: vec![Document::new("u0", "beach city travel")],
            item_quality: vec![3, 1],
            consumer_activity: vec![4],
            item_capacity_policy: ItemCapacityPolicy::QualityProportional,
        }
    }

    #[test]
    fn validate_accepts_well_formed_datasets() {
        assert!(dataset().validate().is_ok());
    }

    #[test]
    fn validate_rejects_mismatched_vectors() {
        let mut d = dataset();
        d.item_quality.pop();
        assert!(d.validate().is_err());
        let mut d2 = dataset();
        d2.consumer_activity.push(1);
        assert!(d2.validate().is_err());
        let mut d3 = dataset();
        d3.items.clear();
        d3.item_quality.clear();
        assert!(d3.validate().is_err());
    }

    #[test]
    fn quality_proportional_capacities_follow_favourites() {
        let d = dataset();
        let caps = d.capacities(1.0);
        // Consumer budget = 4, item 0 has 3/4 of the favourites.
        assert_eq!(caps.total_consumer_capacity(), 4);
        assert_eq!(caps.item(smr_graph::ItemId(0)), 3);
        assert_eq!(caps.item(smr_graph::ItemId(1)), 1);
    }

    #[test]
    fn uniform_policy_splits_the_budget_equally() {
        let mut d = dataset();
        d.item_capacity_policy = ItemCapacityPolicy::Uniform;
        let caps = d.capacities(2.0);
        // Budget = α·4 = 8 over two items.
        assert_eq!(caps.item_capacities(), &[4, 4]);
    }

    #[test]
    fn alpha_scales_consumer_capacities() {
        let d = dataset();
        let low = d.capacities(0.5);
        let high = d.capacities(2.0);
        assert!(high.total_consumer_capacity() > low.total_consumer_capacity());
    }
}
