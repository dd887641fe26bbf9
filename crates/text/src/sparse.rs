//! Sparse term vectors.
//!
//! Items and consumers are points in the term vector space; the edge weight
//! of the bipartite graph is the dot product of the two vectors (Section 4).
//! Vectors are stored as `(TermId, weight)` pairs sorted by term id so the
//! dot product is a linear merge.

use smr_storage::impl_codec_struct;

use crate::vocab::TermId;

/// A sparse vector over the term space, sorted by term id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    entries: Vec<(TermId, f64)>,
}

impl_codec_struct!(SparseVector { entries });

impl SparseVector {
    /// Creates an empty vector.
    pub fn new() -> Self {
        SparseVector::default()
    }

    /// Builds a vector from arbitrary (possibly unsorted, possibly
    /// duplicated) entries; duplicate term weights are summed and
    /// zero-weight entries dropped.
    pub fn from_entries(entries: impl IntoIterator<Item = (TermId, f64)>) -> Self {
        let mut entries: Vec<(TermId, f64)> = entries.into_iter().collect();
        entries.sort_by_key(|(t, _)| *t);
        let mut merged: Vec<(TermId, f64)> = Vec::with_capacity(entries.len());
        for (t, w) in entries {
            match merged.last_mut() {
                Some((last_t, last_w)) if *last_t == t => *last_w += w,
                _ => merged.push((t, w)),
            }
        }
        merged.retain(|(_, w)| *w != 0.0);
        SparseVector { entries: merged }
    }

    /// A vector from entries already sorted by strictly ascending term id,
    /// none of zero weight.
    pub(crate) fn from_sorted(entries: Vec<(TermId, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|pair| pair[0].0 < pair[1].0));
        debug_assert!(entries.iter().all(|&(_, w)| w != 0.0));
        SparseVector { entries }
    }

    /// The entries, sorted by term id.
    pub fn entries(&self) -> &[(TermId, f64)] {
        &self.entries
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector is all zeros.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight of a term (zero when absent).
    pub fn weight(&self, term: TermId) -> f64 {
        self.entries
            .binary_search_by_key(&term, |(t, _)| *t)
            .map(|i| self.entries[i].1)
            .unwrap_or(0.0)
    }

    /// Dot product with another sparse vector.
    pub fn dot(&self, other: &SparseVector) -> f64 {
        add_products(0.0, &self.entries, &other.entries).0
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Maximum absolute weight of any entry (zero for an empty vector).
    pub fn max_weight(&self) -> f64 {
        self.entries
            .iter()
            .map(|(_, w)| w.abs())
            .fold(0.0, f64::max)
    }

    /// Cosine similarity with another vector (zero if either is empty).
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Scales the vector to unit L2 norm (unchanged if zero).
    pub fn normalized(mut self) -> SparseVector {
        let n = self.norm();
        if n != 0.0 {
            let factor = 1.0 / n;
            for (_, w) in &mut self.entries {
                *w *= factor;
            }
        }
        self
    }
}

/// Adds to `sum` the product of every term the entry lists `a` and `b`
/// share (both ascending by term id), in ascending term order — from
/// `0.0` over two whole vectors, the additions of [`SparseVector::dot`].
/// Also returns whether any product was added.
pub fn add_products(mut sum: f64, a: &[(TermId, f64)], b: &[(TermId, f64)]) -> (f64, bool) {
    let (mut i, mut j, mut added) = (0, 0, false);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sum += a[i].1 * b[j].1;
                added = true;
                i += 1;
                j += 1;
            }
        }
    }
    (sum, added)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(entries: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(entries.iter().map(|&(t, w)| (TermId(t), w)))
    }

    #[test]
    fn from_entries_sorts_merges_and_drops_zeros() {
        let vec = v(&[(3, 1.0), (1, 2.0), (3, 0.5), (2, 0.0)]);
        assert_eq!(vec.entries(), &[(TermId(1), 2.0), (TermId(3), 1.5)]);
        assert_eq!(vec.len(), 2);
        assert_eq!(vec.weight(TermId(3)), 1.5);
        assert_eq!(vec.weight(TermId(7)), 0.0);
    }

    #[test]
    fn dot_product_merges_sorted_entries() {
        let a = v(&[(0, 1.0), (2, 2.0), (5, 3.0)]);
        let b = v(&[(2, 4.0), (5, 1.0), (9, 10.0)]);
        assert!((a.dot(&b) - 11.0).abs() < 1e-12);
        assert_eq!(a.dot(&SparseVector::new()), 0.0);
    }

    #[test]
    fn dot_product_is_symmetric() {
        let a = v(&[(1, 0.3), (4, 0.7)]);
        let b = v(&[(1, 0.5), (3, 0.5), (4, 0.2)]);
        assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-15);
    }

    #[test]
    fn norms_and_cosine() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_weight(), 4.0);
        let b = v(&[(0, 3.0), (1, 4.0)]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-12);
        let orth = v(&[(2, 1.0)]);
        assert_eq!(a.cosine(&orth), 0.0);
        assert_eq!(SparseVector::new().cosine(&a), 0.0);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let a = v(&[(0, 2.0), (3, 2.0), (8, 1.0)]);
        let n = a.clone().normalized();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        // Direction is preserved.
        assert!((n.cosine(&a) - 1.0).abs() < 1e-12);
        // Normalizing the zero vector is a no-op.
        assert!(SparseVector::new().normalized().is_empty());
    }
}
