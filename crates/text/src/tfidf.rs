//! Term weighting: a document's term ids to its weighted sparse vector.

use crate::sparse::SparseVector;
use crate::vocab::{TermId, Vocabulary};

/// Term-weighting schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weighting {
    /// Raw term frequency.
    TermFrequency,
    /// `tf · idf` with the smoothed idf of [`Vocabulary::idf`] (the paper's
    /// choice for Yahoo! Answers).
    #[default]
    TfIdf,
    /// Binary presence weights (the natural choice for tag sets such as
    /// flickr tags).
    Binary,
}

/// The weigher of a [`crate::Corpus`]: its weighting, normalization and
/// one idf per term, so that a document's vector takes no hashing and no
/// logarithm.
#[derive(Debug, Clone)]
pub(crate) struct Weigher {
    weighting: Weighting,
    normalize: bool,
    /// [`Vocabulary::idf`] of every term, by id (empty unless
    /// [`Weighting::TfIdf`]).
    idf: Vec<f64>,
}

impl Weigher {
    /// A weigher over `vocab`'s document frequencies.  When `normalize` is
    /// set, vectors are scaled to unit L2 norm so that dot products are
    /// cosine similarities.
    pub(crate) fn new(vocab: &Vocabulary, weighting: Weighting, normalize: bool) -> Self {
        let idf = match weighting {
            Weighting::TfIdf => (0..vocab.len() as u32)
                .map(|id| vocab.idf(TermId(id)))
                .collect(),
            Weighting::TermFrequency | Weighting::Binary => Vec::new(),
        };
        Weigher {
            weighting,
            normalize,
            idf,
        }
    }

    /// The vector of a document whose tokens have the term ids `ids`, in
    /// any order: a term's frequency is the number of times its id
    /// appears.  Sorts `ids`.
    pub(crate) fn weigh(&self, ids: &mut [TermId]) -> SparseVector {
        ids.sort_unstable();
        let runs = || ids.chunk_by(|a, b| a == b);
        let mut entries = Vec::with_capacity(runs().count());
        entries.extend(runs().map(|run| {
            let (id, tf) = (run[0], run.len() as f64);
            let w = match self.weighting {
                Weighting::TermFrequency => tf,
                Weighting::TfIdf => tf * self.idf[id.index()],
                Weighting::Binary => 1.0,
            };
            (id, w)
        }));
        let v = SparseVector::from_sorted(entries);
        if self.normalize {
            v.normalized()
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A vocabulary over `docs` and the weigher for it.
    fn weigher(docs: &[&[&str]], weighting: Weighting, normalize: bool) -> (Vocabulary, Weigher) {
        let mut vocab = Vocabulary::new();
        let runs: Vec<Vec<TermId>> = docs
            .iter()
            .map(|d| d.iter().map(|t| vocab.intern(t)).collect())
            .collect();
        vocab.count_documents(runs.iter().map(Vec::as_slice));
        let weigher = Weigher::new(&vocab, weighting, normalize);
        (vocab, weigher)
    }

    fn ids(vocab: &Vocabulary, words: &[&str]) -> Vec<TermId> {
        words.iter().map(|w| vocab.get(w).unwrap()).collect()
    }

    #[test]
    fn term_frequency_counts_occurrences() {
        let (vocab, weigher) = weigher(&[&["a", "b"]], Weighting::TermFrequency, false);
        let v = weigher.weigh(&mut ids(&vocab, &["a", "b", "a"]));
        assert_eq!(v.weight(vocab.get("a").unwrap()), 2.0);
        assert_eq!(v.weight(vocab.get("b").unwrap()), 1.0);
    }

    #[test]
    fn binary_weights_ignore_repetition() {
        let (vocab, weigher) = weigher(&[&["a", "b"]], Weighting::Binary, false);
        let v = weigher.weigh(&mut ids(&vocab, &["a", "a", "b", "a"]));
        assert_eq!(v.weight(vocab.get("a").unwrap()), 1.0);
        assert_eq!(v.weight(vocab.get("b").unwrap()), 1.0);
    }

    #[test]
    fn tfidf_downweights_common_terms_by_the_vocabularys_idf() {
        // "common" appears in all three documents, "rare" in one.
        let docs: &[&[&str]] = &[&["common", "rare"], &["common"], &["common"]];
        let (vocab, weigher) = weigher(docs, Weighting::TfIdf, false);
        let v = weigher.weigh(&mut ids(&vocab, &["rare", "common", "rare"]));
        let (rare, common) = (vocab.get("rare").unwrap(), vocab.get("common").unwrap());
        assert_eq!(v.weight(rare), 2.0 * vocab.idf(rare));
        assert_eq!(v.weight(common), vocab.idf(common));
        assert!(
            v.weight(rare) > v.weight(common),
            "rare terms must get larger tf·idf weight"
        );
    }

    #[test]
    fn normalization_yields_unit_vectors_sorted_by_term() {
        let (vocab, weigher) = weigher(&[&["a", "b", "c"]], Weighting::TfIdf, true);
        let v = weigher.weigh(&mut ids(&vocab, &["c", "a", "b", "c"]));
        assert!((v.norm() - 1.0).abs() < 1e-12);
        let terms: Vec<TermId> = v.entries().iter().map(|&(t, _)| t).collect();
        assert_eq!(terms, ids(&vocab, &["a", "b", "c"]));
    }

    #[test]
    fn no_ids_give_the_empty_vector() {
        let (_, weigher) = weigher(&[&["a"]], Weighting::TfIdf, true);
        assert!(weigher.weigh(&mut []).is_empty());
    }
}
