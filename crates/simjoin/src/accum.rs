//! The dense partial-score table of the probe hot loop.
//!
//! Every probe — batch [`crate::join`], serving point queries, sampled
//! sketch generators — folds `(doc, weight · weight)` products into a
//! per-query score table and then drains it in doc order.  Docs are dense
//! indices below [`crate::InvertedIndex::num_docs`], so the table is one
//! running-score column indexed by doc plus a touched bitmap with one
//! `u64` per 64 docs: accumulating is a bit test and an add, and draining
//! walks the bitmap in order, so candidates come out sorted by doc without
//! a sort.
//!
//! Determinism: each doc's running sum starts from `0.0` and takes the
//! products in the order the caller folds them (the probe's ascending
//! term order), and candidates drain sorted by doc — so a doc's score is
//! bit-identical to the first additions of `SparseVector::dot`, the ones
//! over the consumer's indexed prefix (see [`crate::join::Probe::finish`]).

/// A dense `doc -> partial score` accumulation table for one query at a
/// time.
///
/// [`ScoreAccumulator::accumulate`] adds a product to the doc's running
/// score.  A visitor whose products are not the exact ones — it skipped or
/// rescaled some — says so with [`ScoreAccumulator::mark_sampled`].
#[derive(Debug)]
pub struct ScoreAccumulator {
    /// Running `Σ product` per doc; defined only where `touched` is set.
    scores: Vec<f64>,
    /// Bit `doc % 64` of word `doc / 64` is set once `doc` is accumulated.
    touched: Vec<u64>,
    /// Number of touched docs.
    len: usize,
    /// Whether some product was skipped or rescaled since the last drain.
    sampled: bool,
}

impl ScoreAccumulator {
    /// An empty table for docs `0..num_docs`.
    pub fn for_docs(num_docs: usize) -> Self {
        ScoreAccumulator {
            scores: vec![0.0; num_docs],
            touched: vec![0; num_docs.div_ceil(64)],
            len: 0,
            sampled: false,
        }
    }

    /// Number of distinct docs accumulated so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `product` to `doc`'s running score, which starts at `0.0` on
    /// the doc's first appearance.
    ///
    /// # Panics
    /// Panics when `doc` is not below the table's `num_docs`.
    #[inline]
    pub fn accumulate(&mut self, doc: usize, product: f64) {
        let (word, bit) = (doc / 64, 1u64 << (doc % 64));
        if self.touched[word] & bit == 0 {
            self.touched[word] |= bit;
            // A score from an earlier query may linger in the column; a
            // doc's score is defined at its first touch.
            self.scores[doc] = 0.0;
            self.len += 1;
        }
        self.scores[doc] += product;
    }

    /// Records that this query's scores are sampled: some product was
    /// skipped or rescaled, so a score is not the exact partial sum.
    pub fn mark_sampled(&mut self) {
        self.sampled = true;
    }

    /// Empties the table into `(doc, partial score)` candidates sorted by
    /// doc, plus whether the query was [sampled](Self::mark_sampled),
    /// leaving the accumulator ready for the next query.
    pub fn drain_sorted(&mut self) -> (Vec<(usize, f64)>, bool) {
        let mut out = Vec::with_capacity(self.len);
        for (w, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let doc = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.push((doc, self.scores[doc]));
            }
        }
        self.len = 0;
        (out, std::mem::take(&mut self.sampled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn accumulates_like_the_hashmap_it_replaced() {
        let postings = [(3usize, 0.5), (1, 0.25), (3, 0.125), (8, 1.0), (1, 0.0625)];
        let mut table = ScoreAccumulator::for_docs(9);
        let mut model: HashMap<usize, f64> = HashMap::new();
        for (doc, product) in postings {
            table.accumulate(doc, product);
            *model.entry(doc).or_insert(0.0) += product;
        }
        let mut expected: Vec<(usize, f64)> = model.into_iter().collect();
        expected.sort_unstable_by_key(|(doc, _)| *doc);
        assert_eq!(table.drain_sorted(), (expected, false));
    }

    #[test]
    fn drain_walks_the_bitmap_in_doc_order_across_words() {
        // Touched out of order, over several bitmap words and both ends
        // of a word: the drain yields doc order with no sort.
        let docs = [199usize, 64, 0, 130, 63, 127, 1, 128];
        let mut table = ScoreAccumulator::for_docs(200);
        for &doc in &docs {
            table.accumulate(doc, doc as f64);
        }
        assert_eq!(table.len(), docs.len());
        let (drained, sampled) = table.drain_sorted();
        let mut expected = docs.to_vec();
        expected.sort_unstable();
        assert_eq!(
            drained.iter().map(|(d, _)| *d).collect::<Vec<_>>(),
            expected
        );
        assert!(drained.iter().all(|&(d, score)| score == d as f64));
        assert!(!sampled);
    }

    #[test]
    fn drain_resets_every_doc_and_the_sampled_flag_for_reuse() {
        let mut table = ScoreAccumulator::for_docs(70);
        table.accumulate(5, 10.0);
        table.accumulate(69, 1.0);
        table.mark_sampled();
        assert!(table.drain_sorted().1);
        assert!(table.is_empty());
        assert_eq!(table.drain_sorted(), (Vec::new(), false));
        // The same doc in the next query starts from zero: the stale
        // score does not leak.
        table.accumulate(5, 1.0);
        assert_eq!(table.drain_sorted(), (vec![(5, 1.0)], false));
    }

    #[test]
    fn a_doc_sum_starts_from_zero_like_a_dot_product() {
        // `0.0 + (-0.0)` is `+0.0`, as in `SparseVector::dot`'s sum; a table
        // that stored the first product as-is would keep `-0.0`.
        let mut table = ScoreAccumulator::for_docs(1);
        table.accumulate(0, -0.0);
        let (drained, _) = table.drain_sorted();
        assert_eq!(drained[0].1.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn a_table_sized_by_num_docs_after_an_append_takes_every_posted_doc() {
        use crate::index::{InvertedIndex, Posting};
        let posting = |doc| Posting { doc, weight: 1.0 };
        let mut index = InvertedIndex::from_records(vec![(0, posting(3)), (2, posting(1))]);
        assert_eq!(index.num_docs(), 4);
        index.append(vec![(1, posting(130)), (0, posting(7))]);
        assert_eq!(index.num_docs(), 131, "one past the largest posted doc");
        let mut table = ScoreAccumulator::for_docs(index.num_docs());
        for i in 0..index.num_terms() {
            let postings = index.postings_at(i);
            for (&doc, &weight) in postings.docs.iter().zip(postings.weights) {
                table.accumulate(doc, weight);
            }
        }
        let docs: Vec<usize> = table.drain_sorted().0.into_iter().map(|(d, _)| d).collect();
        assert_eq!(docs, [1, 3, 7, 130]);
    }
}
