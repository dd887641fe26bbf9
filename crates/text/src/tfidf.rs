//! tf·idf weighting of token streams.

use std::collections::HashMap;

use crate::sparse::SparseVector;
use crate::vocab::Vocabulary;

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

/// A weighting engine bound to a vocabulary.
#[derive(Debug, Clone)]
pub struct TfIdf<'a> {
    vocab: &'a Vocabulary,
    weighting: Weighting,
    normalize: bool,
}

impl<'a> TfIdf<'a> {
    /// Creates a weighting engine.  When `normalize` is set, vectors are
    /// scaled to unit L2 norm so that dot products are cosine similarities.
    pub fn new(vocab: &'a Vocabulary, weighting: Weighting, normalize: bool) -> Self {
        TfIdf {
            vocab,
            weighting,
            normalize,
        }
    }

    /// Vectorizes a token stream (tokens must already be interned in the
    /// vocabulary; unknown tokens are skipped).
    pub fn vectorize(&self, tokens: &[String]) -> SparseVector {
        let mut counts: HashMap<crate::vocab::TermId, f64> = HashMap::new();
        for t in tokens {
            if let Some(id) = self.vocab.get(t) {
                *counts.entry(id).or_insert(0.0) += 1.0;
            }
        }
        let entries = counts.into_iter().map(|(id, tf)| {
            let w = match self.weighting {
                Weighting::TermFrequency => tf,
                Weighting::TfIdf => tf * self.vocab.idf(id),
                Weighting::Binary => 1.0,
            };
            (id, w)
        });
        let v = SparseVector::from_entries(entries);
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

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn vocab_from(docs: &[&[&str]]) -> Vocabulary {
        let mut v = Vocabulary::new();
        for d in docs {
            v.observe_document(d.iter().copied());
        }
        v
    }

    #[test]
    fn term_frequency_counts_occurrences() {
        let vocab = vocab_from(&[&["a", "b"]]);
        let tf = TfIdf::new(&vocab, Weighting::TermFrequency, false);
        let v = tf.vectorize(&toks(&["a", "a", "b"]));
        assert_eq!(v.weight(vocab.get("a").unwrap()), 2.0);
        assert_eq!(v.weight(vocab.get("b").unwrap()), 1.0);
    }

    #[test]
    fn binary_weights_ignore_repetition() {
        let vocab = vocab_from(&[&["a", "b"]]);
        let tf = TfIdf::new(&vocab, Weighting::Binary, false);
        let v = tf.vectorize(&toks(&["a", "a", "a", "b"]));
        assert_eq!(v.weight(vocab.get("a").unwrap()), 1.0);
        assert_eq!(v.weight(vocab.get("b").unwrap()), 1.0);
    }

    #[test]
    fn tfidf_downweights_common_terms() {
        // "common" appears in all three documents, "rare" in one.
        let vocab = vocab_from(&[&["common", "rare"], &["common"], &["common"]]);
        let tf = TfIdf::new(&vocab, Weighting::TfIdf, false);
        let v = tf.vectorize(&toks(&["common", "rare"]));
        assert!(
            v.weight(vocab.get("rare").unwrap()) > v.weight(vocab.get("common").unwrap()),
            "rare terms must get larger tf·idf weight"
        );
    }

    #[test]
    fn unknown_tokens_are_skipped() {
        let vocab = vocab_from(&[&["known"]]);
        let tf = TfIdf::new(&vocab, Weighting::TfIdf, false);
        let v = tf.vectorize(&toks(&["unknown", "known"]));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn normalization_yields_unit_vectors() {
        let vocab = vocab_from(&[&["a", "b", "c"]]);
        let tf = TfIdf::new(&vocab, Weighting::TfIdf, true);
        let v = tf.vectorize(&toks(&["a", "b", "c", "c"]));
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_token_stream_gives_empty_vector() {
        let vocab = vocab_from(&[&["a"]]);
        let tf = TfIdf::new(&vocab, Weighting::TfIdf, true);
        assert!(tf.vectorize(&[]).is_empty());
    }
}
