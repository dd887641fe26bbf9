//! Alignment: both sides of the join vectorized in one term space.
//!
//! Item and consumer corpora are usually built independently, so their
//! term ids (and idf weights) do not line up and their dot products mean
//! nothing.  [`AlignedCorpora`] is the one place the pipeline fixes that:
//! a single joint corpus over items-then-consumers, whose vectors every
//! candidate generator joins, the brute-force baseline scores, and the
//! serving path vectorizes arrivals against.

use smr_text::{Corpus, Document, SparseVector, TokenizerConfig, Vectorizer};

/// Items and consumers vectorized over one joint vocabulary (tf·idf, unit
/// L2 norm), plus the means to vectorize later text the same way.
#[derive(Debug, Clone)]
pub struct AlignedCorpora {
    joint: Corpus,
    num_items: usize,
}

impl AlignedCorpora {
    /// Tokenizes and vectorizes both document sets over one vocabulary.
    pub fn build(items: &[Document], consumers: &[Document], tokenizer: &TokenizerConfig) -> Self {
        let joint = Corpus::build([items, consumers].concat(), tokenizer);
        AlignedCorpora {
            joint,
            num_items: items.len(),
        }
    }

    /// Aligns two independently built corpora, re-vectorizing their
    /// documents with the tokenizer configuration both were built with.
    ///
    /// # Panics
    /// Panics if the two corpora were built with different configurations
    /// (there is no single term space both sets of tokens live in).
    pub fn of(items: &Corpus, consumers: &Corpus) -> Self {
        assert_eq!(
            items.tokenizer_config(),
            consumers.tokenizer_config(),
            "cannot align corpora built with different tokenizer configurations"
        );
        Self::build(
            items.documents(),
            consumers.documents(),
            items.tokenizer_config(),
        )
    }

    /// The item vectors, in document order.
    pub fn item_vectors(&self) -> &[SparseVector] {
        &self.joint.vectors()[..self.num_items]
    }

    /// The consumer vectors, in document order.
    pub fn consumer_vectors(&self) -> &[SparseVector] {
        &self.joint.vectors()[self.num_items..]
    }

    /// The item document ids — the graph's item labels.
    pub fn item_labels(&self) -> Vec<String> {
        labels(&self.joint.documents()[..self.num_items])
    }

    /// The consumer document ids — the graph's consumer labels.
    pub fn consumer_labels(&self) -> Vec<String> {
        labels(&self.joint.documents()[self.num_items..])
    }

    /// The item vectors, the consumer vectors and the vectorizer of later
    /// text in the joint term space, by move: the documents are dropped
    /// and no vector is copied.
    pub fn into_parts(self) -> (Vec<SparseVector>, Vec<SparseVector>, Vectorizer) {
        let (mut items, vectorizer) = self.joint.into_vectors();
        let consumers = items.split_off(self.num_items);
        (items, consumers, vectorizer)
    }
}

fn labels(documents: &[Document]) -> Vec<String> {
    documents.iter().map(|d| d.id.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(texts: &[&str]) -> Vec<Document> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| Document::new(format!("d{i}"), *t))
            .collect()
    }

    #[test]
    fn both_sides_share_one_term_space_and_text_vectorizes_into_it() {
        let items = docs(&["Baking breads", "vintage cars"]);
        let consumers = docs(&["bake bread"]);
        let stemmed = AlignedCorpora::build(&items, &consumers, &TokenizerConfig::default());
        assert_eq!(stemmed.item_vectors().len(), 2);
        assert_eq!(stemmed.consumer_labels(), vec!["d0"]);
        assert!(stemmed.item_vectors()[0].dot(&stemmed.consumer_vectors()[0]) > 0.99);
        let (item_vectors, consumer_vectors, vectorizer) = stemmed.into_parts();
        assert_eq!((item_vectors.len(), consumer_vectors.len()), (2, 1));
        assert_eq!(vectorizer.vocabulary().len(), 4, "bake, bread, vintag, car");
        assert_eq!(&vectorizer.vectorize("Baking breads"), &item_vectors[0]);
        // Without stemming the inflected forms are different terms.
        let raw = AlignedCorpora::build(&items, &consumers, &TokenizerConfig::tags_only());
        assert_eq!(raw.item_vectors()[0].dot(&raw.consumer_vectors()[0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "different tokenizer configurations")]
    fn corpora_built_with_different_tokenizers_do_not_align() {
        let a = Corpus::build(docs(&["x"]), &TokenizerConfig::default());
        let b = Corpus::build(docs(&["x"]), &TokenizerConfig::tags_only());
        AlignedCorpora::of(&a, &b);
    }
}
