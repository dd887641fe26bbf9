//! Term weighting: a document's term ids to its `tf · idf` vector, scaled
//! to unit L2 norm so that dot products are cosine similarities.

use crate::sparse::SparseVector;
use crate::vocab::{TermId, Vocabulary};

/// The weigher of a [`crate::Corpus`]: one idf per term, so that a
/// document's vector takes no hashing and no logarithm.
#[derive(Debug, Clone)]
pub(crate) struct Weigher {
    /// [`Vocabulary::idf`] of every term, by id.
    idf: Vec<f64>,
}

impl Weigher {
    /// A weigher over `vocab`'s document frequencies.
    pub(crate) fn new(vocab: &Vocabulary) -> Self {
        let idf = (0..vocab.len() as u32)
            .map(|id| vocab.idf(TermId(id)))
            .collect();
        Weigher { idf }
    }

    /// The unit vector of a document whose tokens have the term ids
    /// `ids`, in any order: a term's frequency is the number of times its
    /// id appears.  Sorts `ids`.
    pub(crate) fn weigh(&self, ids: &mut [TermId]) -> SparseVector {
        ids.sort_unstable();
        let runs = || ids.chunk_by(|a, b| a == b);
        let mut entries = Vec::with_capacity(runs().count());
        entries.extend(runs().map(|run| {
            let (id, tf) = (run[0], run.len() as f64);
            (id, tf * self.idf[id.index()])
        }));
        SparseVector::from_sorted(entries).normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A vocabulary over `docs` and the weigher for it.
    fn weigher(docs: &[&[&str]]) -> (Vocabulary, Weigher) {
        let mut vocab = Vocabulary::new();
        let runs: Vec<Vec<TermId>> = docs
            .iter()
            .map(|d| d.iter().map(|t| vocab.intern(t)).collect())
            .collect();
        vocab.count_documents(runs.iter().map(Vec::as_slice));
        let weigher = Weigher::new(&vocab);
        (vocab, weigher)
    }

    fn ids(vocab: &Vocabulary, words: &[&str]) -> Vec<TermId> {
        words.iter().map(|w| vocab.get(w).unwrap()).collect()
    }

    #[test]
    fn tfidf_downweights_common_terms_by_the_vocabularys_idf() {
        // "common" appears in all three documents, "rare" in one.
        let docs: &[&[&str]] = &[&["common", "rare"], &["common"], &["common"]];
        let (vocab, weigher) = weigher(docs);
        let v = weigher.weigh(&mut ids(&vocab, &["rare", "common", "rare"]));
        let (rare, common) = (vocab.get("rare").unwrap(), vocab.get("common").unwrap());
        let tf_idf = vec![(common, vocab.idf(common)), (rare, 2.0 * vocab.idf(rare))];
        assert_eq!(v, SparseVector::from_sorted(tf_idf).normalized());
        assert!(
            v.weight(rare) > v.weight(common),
            "rare terms must get larger tf·idf weight"
        );
    }

    #[test]
    fn normalization_yields_unit_vectors_sorted_by_term() {
        let (vocab, weigher) = weigher(&[&["a", "b", "c"]]);
        let v = weigher.weigh(&mut ids(&vocab, &["c", "a", "b", "c"]));
        assert!((v.norm() - 1.0).abs() < 1e-12);
        let terms: Vec<TermId> = v.entries().iter().map(|&(t, _)| t).collect();
        assert_eq!(terms, ids(&vocab, &["a", "b", "c"]));
    }

    #[test]
    fn no_ids_give_the_empty_vector() {
        let (_, weigher) = weigher(&[&["a"]]);
        assert!(weigher.weigh(&mut []).is_empty());
    }
}
