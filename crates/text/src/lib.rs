//! Vector-space text substrate.
//!
//! Section 4 of the paper represents items and consumers as term vectors
//! (tags for flickr, tf·idf-weighted words for Yahoo! Answers) and defines
//! the edge weight `w(t, c)` as the dot product of the two vectors.  This
//! crate implements that substrate:
//!
//! * [`tokenize`] — lower-casing, punctuation stripping, stop-word removal
//!   and a light suffix stemmer, mirroring the preprocessing the paper
//!   applies to Yahoo! Answers text,
//! * [`vocab`] — a term dictionary mapping terms to dense ids and document
//!   frequencies,
//! * [`sparse`] — sparse vectors sorted by term id, with dot product,
//!   norms and cosine similarity,
//! * [`tfidf`] — tf·idf weighting to unit vectors,
//! * [`corpus`] — documents, vocabulary and vectors in one place, built in
//!   one pass over the text: each token is interned once as it streams out
//!   of the tokenizer (into a map that keeps std's randomly keyed hasher,
//!   since its keys are words of the input), and each document is weighted
//!   from its term ids.  Its [`Vectorizer`] vectorizes later text with
//!   one lookup per token and gives a built document's text that
//!   document's vector bit for bit.
//!
//! # Example
//!
//! ```
//! use smr_text::prelude::*;
//!
//! let docs = vec![
//!     Document::new("q1", "How do I bake sourdough bread at home?"),
//!     Document::new("u1", "I answer lots of baking and bread questions."),
//! ];
//! let corpus = Corpus::build(docs, &TokenizerConfig::default());
//! let sim = corpus.vector(0).dot(corpus.vector(1));
//! assert!(sim > 0.0, "both documents talk about bread/baking");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod corpus;
pub mod sparse;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use corpus::{Corpus, Document, Vectorizer};
pub use sparse::SparseVector;
pub use tokenize::{Tokenizer, TokenizerConfig};
pub use vocab::{TermId, Vocabulary};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::corpus::{Corpus, Document, Vectorizer};
    pub use crate::sparse::SparseVector;
    pub use crate::tokenize::{Tokenizer, TokenizerConfig};
    pub use crate::vocab::{TermId, Vocabulary};
}
