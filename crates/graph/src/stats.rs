//! Distribution statistics: histograms and summaries.
//!
//! The appendix of the paper plots the distribution of edge similarities
//! (Figure 6) and of node capacities (Figure 7) for its three datasets.
//! The experiment harness regenerates those plots as textual histograms
//! built here.

use crate::bipartite::BipartiteGraph;
use crate::capacity::Capacities;

/// A fixed-width or logarithmic histogram over positive values.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of each bucket.
    pub bucket_lower_bounds: Vec<f64>,
    /// Number of observations per bucket.
    pub counts: Vec<u64>,
    /// Observations below the first bucket (only possible for log-scale
    /// histograms with a positive minimum).
    pub underflow: u64,
    /// Total number of observations.
    pub total: u64,
}

impl Histogram {
    /// Builds a histogram with `num_buckets` equal-width buckets spanning
    /// `[min, max]`.
    ///
    /// # Panics
    /// Panics if `num_buckets` is zero or `max <= min`.
    pub fn linear(values: &[f64], min: f64, max: f64, num_buckets: usize) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        assert!(max > min, "max must exceed min");
        let width = (max - min) / num_buckets as f64;
        let bounds: Vec<f64> = (0..num_buckets).map(|i| min + i as f64 * width).collect();
        let mut counts = vec![0u64; num_buckets];
        let mut underflow = 0u64;
        for &v in values {
            if v < min {
                underflow += 1;
            } else {
                let mut idx = ((v - min) / width) as usize;
                if idx >= num_buckets {
                    idx = num_buckets - 1;
                }
                counts[idx] += 1;
            }
        }
        Histogram {
            bucket_lower_bounds: bounds,
            counts,
            underflow,
            total: values.len() as u64,
        }
    }

    /// Builds a base-2 logarithmic histogram: bucket `i` covers
    /// `[2^i, 2^(i+1))` scaled so the first bucket starts at `min_positive`.
    /// Log-scale buckets match the heavy-tailed capacity distributions of
    /// Figure 7.
    pub fn log2(values: &[f64], min_positive: f64, num_buckets: usize) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        assert!(
            min_positive > 0.0,
            "log histogram needs a positive lower bound"
        );
        let bounds: Vec<f64> = (0..num_buckets)
            .map(|i| min_positive * 2f64.powi(i as i32))
            .collect();
        let mut counts = vec![0u64; num_buckets];
        let mut underflow = 0u64;
        for &v in values {
            if v < min_positive {
                underflow += 1;
                continue;
            }
            let mut idx = (v / min_positive).log2().floor() as usize;
            if idx >= num_buckets {
                idx = num_buckets - 1;
            }
            counts[idx] += 1;
        }
        Histogram {
            bucket_lower_bounds: bounds,
            counts,
            underflow,
            total: values.len() as u64,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Fraction of observations in bucket `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }
}

/// Five-number-ish summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (lower median for even counts).
    pub median: f64,
}

impl Summary {
    /// Computes the summary of a sample.  Returns `None` for an empty
    /// sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not be NaN"));
        let count = sorted.len();
        Some(Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean: sorted.iter().sum::<f64>() / count as f64,
            median: sorted[(count - 1) / 2],
        })
    }
}

/// The edge-similarity distribution of a graph (Figure 6).
pub fn similarity_histogram(graph: &BipartiteGraph, num_buckets: usize) -> Histogram {
    let weights = graph.weights();
    let max = graph.max_weight().unwrap_or(1.0);
    let min = graph.min_weight().unwrap_or(0.0);
    if weights.is_empty() || max <= min {
        return Histogram::linear(&weights, 0.0, 1.0, num_buckets);
    }
    Histogram::linear(&weights, min, max, num_buckets)
}

/// The capacity distribution of a graph (Figure 7), separately for items
/// and consumers.
pub fn capacity_histograms(caps: &Capacities, num_buckets: usize) -> (Histogram, Histogram) {
    let items: Vec<f64> = caps.item_capacities().iter().map(|&c| c as f64).collect();
    let consumers: Vec<f64> = caps
        .consumer_capacities()
        .iter()
        .map(|&c| c as f64)
        .collect();
    (
        Histogram::log2(&items, 1.0, num_buckets),
        Histogram::log2(&consumers, 1.0, num_buckets),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::Edge;
    use crate::ids::{ConsumerId, ItemId};

    #[test]
    fn linear_histogram_counts_everything() {
        let values = vec![0.1, 0.2, 0.5, 0.9, 1.0];
        let h = Histogram::linear(&values, 0.0, 1.0, 4);
        assert_eq!(h.num_buckets(), 4);
        assert_eq!(h.counts.iter().sum::<u64>() + h.underflow, 5);
        // The maximum value lands in the last bucket, not out of range.
        assert_eq!(h.counts[3], 2);
        assert!((h.fraction(3) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn linear_histogram_tracks_underflow() {
        let h = Histogram::linear(&[-1.0, 0.5], 0.0, 1.0, 2);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.counts.iter().sum::<u64>(), 1);
    }

    #[test]
    fn log_histogram_buckets_powers_of_two() {
        let values = vec![1.0, 1.5, 2.0, 3.0, 4.0, 100.0];
        let h = Histogram::log2(&values, 1.0, 5);
        // [1,2): 1.0, 1.5 -> 2 ; [2,4): 2.0, 3.0 -> 2 ; [4,8): 4.0 -> 1 ;
        // overflow clamps 100.0 into the last bucket.
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 2);
        assert_eq!(h.counts[2], 1);
        assert_eq!(h.counts[4], 1);
        assert_eq!(h.underflow, 0);
    }

    #[test]
    fn summary_computes_order_statistics() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.median, 2.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn graph_level_histograms() {
        let g = BipartiteGraph::from_edges(
            2,
            2,
            vec![
                Edge::new(ItemId(0), ConsumerId(0), 0.1),
                Edge::new(ItemId(0), ConsumerId(1), 0.5),
                Edge::new(ItemId(1), ConsumerId(1), 0.9),
            ],
        );
        let h = similarity_histogram(&g, 4);
        assert_eq!(h.total, 3);
        assert_eq!(h.counts.iter().sum::<u64>(), 3);

        let caps = Capacities::from_vectors(vec![1, 8], vec![2, 2]);
        let (items, consumers) = capacity_histograms(&caps, 6);
        assert_eq!(items.total, 2);
        assert_eq!(consumers.total, 2);
        assert_eq!(items.counts[0], 1); // capacity 1
        assert_eq!(items.counts[3], 1); // capacity 8 in [8,16)
        assert_eq!(consumers.counts[1], 2); // capacity 2 in [2,4)
    }
}
