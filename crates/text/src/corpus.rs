//! Document corpus: documents, vocabulary and vectors in one place.
//!
//! [`Corpus::build`] takes the text to vectors in one pass over
//! it: the tokenizer hands each term to the vocabulary as a borrowed
//! `&str`, which interns it with one hash-map lookup, and the document
//! keeps only the term's `u32` id, all documents' ids in one flat buffer.
//! Document frequencies are counted from that buffer, the terms are
//! numbered rarest first, and each document's ids are sorted and counted
//! into its vector against one precomputed idf per term.  The lookup map
//! keeps std's default (randomly keyed) hasher: its keys are words of the
//! input text, so an adversary who knows a fixed hash function could
//! choose words that collide.
//!
//! [`Corpus::vectorize`] takes later text through the same tokenizer and
//! the same weigher with one lookup per token and no interning, so the
//! vector of a built document's own text is that document's vector, bit
//! for bit.

use crate::sparse::SparseVector;
use crate::tfidf::Weigher;
use crate::tokenize::{Tokenizer, TokenizerConfig};
use crate::vocab::{TermId, Vocabulary};

/// A raw document: an external identifier plus its text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// External identifier (photo id, question id, user id, …).
    pub id: String,
    /// The raw text (or space-separated tag list).
    pub text: String,
}

impl Document {
    /// Creates a document.
    pub fn new(id: impl Into<String>, text: impl Into<String>) -> Self {
        Document {
            id: id.into(),
            text: text.into(),
        }
    }
}

/// A vectorized corpus: the documents, the shared vocabulary and one sparse
/// vector per document — plus the tokenizer and weigher it was built
/// with, so later text can be vectorized the same way.  The vocabulary is
/// numbered rarest first (document frequency ascending, ties by first
/// appearance) before anything is vectorized, so ascending term id is the
/// similarity join's prefix filter order.
#[derive(Debug, Clone)]
pub struct Corpus {
    documents: Vec<Document>,
    vocab: Vocabulary,
    vectors: Vec<SparseVector>,
    tokenizer: Tokenizer,
    weigher: Weigher,
}

impl Corpus {
    /// Tokenizes and vectorizes `documents` with tf·idf weighting and L2
    /// normalization (so dot products are cosine similarities in `[0, 1]`).
    pub fn build(documents: Vec<Document>, tokenizer_config: &TokenizerConfig) -> Self {
        let tokenizer = Tokenizer::new(tokenizer_config.clone());
        let mut vocab = Vocabulary::new();
        // Every document's term ids, document `d` at `ids[ends[d]..ends[d + 1]]`.
        let mut ids: Vec<TermId> = Vec::new();
        let mut ends = Vec::with_capacity(documents.len() + 1);
        ends.push(0);
        for document in &documents {
            tokenizer.for_each_token(&document.text, |token| ids.push(vocab.intern(token)));
            ends.push(ids.len());
        }
        vocab.count_documents(ends.windows(2).map(|pair| &ids[pair[0]..pair[1]]));
        let renumbered = vocab.number_rarest_first();
        for id in &mut ids {
            *id = renumbered[id.index()];
        }
        let weigher = Weigher::new(&vocab);
        let vectors = ends
            .windows(2)
            .map(|pair| weigher.weigh(&mut ids[pair[0]..pair[1]]))
            .collect();
        Corpus {
            documents,
            vocab,
            vectors,
            tokenizer,
            weigher,
        }
    }

    /// The tokenizer configuration the corpus was built with.
    pub fn tokenizer_config(&self) -> &TokenizerConfig {
        self.tokenizer.config()
    }

    /// Vectorizes `text` exactly as the corpus' own documents were: same
    /// tokenizer, vocabulary, weighting and normalization, so a built
    /// document's text gets that document's vector bit for bit.  Terms
    /// outside the vocabulary are dropped.
    pub fn vectorize(&self, text: &str) -> SparseVector {
        let mut ids = Vec::new();
        self.tokenizer.for_each_token(text, |token| {
            ids.extend(self.vocab.get(token));
        });
        self.weigher.weigh(&mut ids)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// All documents, in index order.
    pub fn documents(&self) -> &[Document] {
        &self.documents
    }

    /// The document at `index`.
    pub fn document(&self, index: usize) -> &Document {
        &self.documents[index]
    }

    /// The vector of the document at `index`.
    pub fn vector(&self, index: usize) -> &SparseVector {
        &self.vectors[index]
    }

    /// All vectors, in document order.
    pub fn vectors(&self) -> &[SparseVector] {
        &self.vectors
    }

    /// The shared vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Dot-product similarity between two documents of the corpus.
    pub fn similarity(&self, a: usize, b: usize) -> f64 {
        self.vectors[a].dot(&self.vectors[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Corpus {
        Corpus::build(
            vec![
                Document::new("d0", "bread baking tips for sourdough bread"),
                Document::new("d1", "sourdough starter and bread flour"),
                Document::new("d2", "vintage car restoration"),
            ],
            &TokenizerConfig::default(),
        )
    }

    #[test]
    fn corpus_vectorizes_every_document() {
        let c = sample();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.document(0).id, "d0");
        assert!(!c.vector(0).is_empty());
        assert_eq!(c.vectors().len(), 3);
        assert!(c.vocabulary().len() >= 5);
        assert_eq!(c.tokenizer_config(), &TokenizerConfig::default());
        for i in 0..c.len() {
            assert_eq!(&c.vectorize(&c.document(i).text), c.vector(i));
        }
        // Terms outside the vocabulary are dropped.
        assert_eq!(
            c.vectorize("Vintage zeppelin restoration!"),
            c.vectorize("vintage restoration")
        );
        assert!(c.vectorize("zeppelin").is_empty());
    }

    #[test]
    fn the_vocabulary_is_numbered_rarest_first_with_ties_by_first_appearance() {
        let c = Corpus::build(
            vec![
                Document::new("d0", "sun beach sea"),
                Document::new("d1", "sea sun"),
                Document::new("d2", "sea dune"),
            ],
            &TokenizerConfig::tags_only(),
        );
        let vocab = c.vocabulary();
        let names: Vec<&str> = (0..vocab.len() as u32)
            .map(|id| vocab.term(TermId(id)))
            .collect();
        // df: beach 1, dune 1 (beach seen first), sun 2, sea 3.
        assert_eq!(names, ["beach", "dune", "sun", "sea"]);
        let dfs: Vec<u32> = (0..vocab.len() as u32)
            .map(|id| vocab.doc_freq(TermId(id)))
            .collect();
        assert_eq!(dfs, [1, 1, 2, 3]);
        for i in 0..c.len() {
            assert_eq!(&c.vectorize(&c.document(i).text), c.vector(i));
        }
        // Each vector runs from its rarest term to its most common one.
        let d0: Vec<&str> = c
            .vector(0)
            .entries()
            .iter()
            .map(|(t, _)| vocab.term(*t))
            .collect();
        assert_eq!(d0, ["beach", "sun", "sea"]);
    }

    #[test]
    fn related_documents_are_more_similar_than_unrelated() {
        let c = sample();
        let related = c.similarity(0, 1);
        let unrelated = c.similarity(0, 2);
        assert!(related > unrelated);
        assert!(related > 0.0);
        assert!(unrelated.abs() < 1e-9);
    }

    #[test]
    fn normalized_vectors_have_self_similarity_one() {
        let c = sample();
        for i in 0..c.len() {
            let s = c.similarity(i, i);
            assert!((s - 1.0).abs() < 1e-9, "self similarity of doc {i} was {s}");
        }
    }

    #[test]
    fn empty_corpus_is_fine() {
        let c = Corpus::build(vec![], &TokenizerConfig::default());
        assert!(c.is_empty());
        assert_eq!(c.vocabulary().len(), 0);
    }
}
