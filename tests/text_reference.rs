//! The text stage against a reference model: the vocabulary, document
//! frequencies, document vectors and query vectors of `Corpus` must equal,
//! bit for bit, those of a straightforward model that tokenizes into owned
//! strings, counts each document's distinct terms from a sorted copy,
//! renumbers the terms rarest first by a stable sort, and weighs each
//! document through a hash map of term counts.

use std::collections::HashMap;

use proptest::prelude::*;
use social_content_matching::datagen::DatasetPreset;
use social_content_matching::text::{Corpus, Document, TermId, TokenizerConfig};

/// The reference model of tokenization, vocabulary and weighting.
mod model {
    use super::*;

    const STOP_WORDS: &[&str] = social_content_matching::text::tokenize::STOP_WORDS;

    pub fn tokenize(config: &TokenizerConfig, text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(|t| t.to_lowercase())
            .filter(|t| !config.remove_stop_words || !is_stop_word(t))
            .map(|t| if config.stem { stem(&t) } else { t })
            .filter(|t| t.len() >= config.min_token_len)
            .collect()
    }

    fn is_stop_word(token: &str) -> bool {
        STOP_WORDS.binary_search(&token).is_ok()
    }

    fn stem(token: &str) -> String {
        let t = token;
        if t.len() <= 3 {
            return t.to_string();
        }
        // Order matters: try longer suffixes first.
        let rules: &[(&str, &str)] = &[
            ("ations", "ate"),
            ("ization", "ize"),
            ("fulness", "ful"),
            ("ousness", "ous"),
            ("iveness", "ive"),
            ("ation", "ate"),
            ("ement", "e"),
            ("ments", "ment"),
            ("ingly", ""),
            ("edly", ""),
            ("iness", "y"),
            ("ness", ""),
            ("ing", "e"),
            ("ies", "y"),
            ("ied", "y"),
            ("est", ""),
            ("ers", "er"),
            ("ed", ""),
            ("ly", ""),
            ("es", "e"),
            ("s", ""),
        ];
        for (suffix, replacement) in rules {
            if let Some(stemmed) = apply_rule(t, suffix, replacement) {
                return stemmed;
            }
        }
        t.to_string()
    }

    fn apply_rule(token: &str, suffix: &str, replacement: &str) -> Option<String> {
        if !token.ends_with(suffix) {
            return None;
        }
        let stem_len = token.len() - suffix.len();
        if stem_len < 3 {
            return None;
        }
        if suffix == "s" && token.ends_with("ss") {
            return None;
        }
        let mut out = String::with_capacity(stem_len + replacement.len());
        out.push_str(&token[..stem_len]);
        out.push_str(replacement);
        Some(out)
    }

    #[derive(Default)]
    pub struct Vocabulary {
        pub terms: Vec<String>,
        index: HashMap<String, u32>,
        pub doc_freq: Vec<u32>,
        pub num_documents: u32,
    }

    impl Vocabulary {
        fn intern(&mut self, term: &str) -> u32 {
            if let Some(&id) = self.index.get(term) {
                return id;
            }
            let id = self.terms.len() as u32;
            self.terms.push(term.to_string());
            self.index.insert(term.to_string(), id);
            self.doc_freq.push(0);
            id
        }

        fn get(&self, term: &str) -> Option<u32> {
            self.index.get(term).copied()
        }

        fn observe_document<'a>(&mut self, terms: impl IntoIterator<Item = &'a str>) {
            let mut seen: Vec<u32> = terms.into_iter().map(|t| self.intern(t)).collect();
            seen.sort_unstable();
            seen.dedup();
            for id in seen {
                self.doc_freq[id as usize] += 1;
            }
            self.num_documents += 1;
        }

        fn idf(&self, id: u32) -> f64 {
            let n = self.num_documents as f64;
            let df = self.doc_freq[id as usize] as f64;
            ((n + 1.0) / (df + 1.0)).ln() + 1.0
        }

        fn number_rarest_first(&mut self) {
            let mut order: Vec<u32> = (0..self.terms.len() as u32).collect();
            order.sort_by_key(|&old| self.doc_freq[old as usize]);
            self.terms = order
                .iter()
                .map(|&old| self.terms[old as usize].clone())
                .collect();
            self.doc_freq = order
                .iter()
                .map(|&old| self.doc_freq[old as usize])
                .collect();
            for (id, term) in self.terms.iter().enumerate() {
                *self.index.get_mut(term).unwrap() = id as u32;
            }
        }
    }

    /// A corpus as the model builds it: vocabulary and `(term, weight
    /// bits)` vectors, tf·idf weighted and scaled to unit norm.
    pub struct Corpus {
        pub config: TokenizerConfig,
        pub vocab: Vocabulary,
        pub vectors: Vec<Vec<(u32, u64)>>,
    }

    impl Corpus {
        pub fn build(texts: &[String], config: &TokenizerConfig) -> Self {
            let streams: Vec<Vec<String>> = texts.iter().map(|t| tokenize(config, t)).collect();
            let mut vocab = Vocabulary::default();
            for tokens in &streams {
                vocab.observe_document(tokens.iter().map(|s| s.as_str()));
            }
            vocab.number_rarest_first();
            let mut corpus = Corpus {
                config: config.clone(),
                vocab,
                vectors: Vec::new(),
            };
            corpus.vectors = streams.iter().map(|t| corpus.vectorize_tokens(t)).collect();
            corpus
        }

        pub fn vectorize(&self, text: &str) -> Vec<(u32, u64)> {
            self.vectorize_tokens(&tokenize(&self.config, text))
        }

        fn vectorize_tokens(&self, tokens: &[String]) -> Vec<(u32, u64)> {
            let mut counts: HashMap<u32, f64> = HashMap::new();
            for t in tokens {
                if let Some(id) = self.vocab.get(t) {
                    *counts.entry(id).or_insert(0.0) += 1.0;
                }
            }
            let mut entries: Vec<(u32, f64)> = counts
                .into_iter()
                .map(|(id, tf)| (id, tf * self.vocab.idf(id)))
                .collect();
            entries.sort_by_key(|(t, _)| *t);
            entries.retain(|(_, w)| *w != 0.0);
            let n = entries.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
            if n != 0.0 {
                let factor = 1.0 / n;
                entries = entries.iter().map(|&(t, w)| (t, w * factor)).collect();
            }
            entries.into_iter().map(|(t, w)| (t, w.to_bits())).collect()
        }
    }
}

fn bits(v: &social_content_matching::text::SparseVector) -> Vec<(u32, u64)> {
    v.entries()
        .iter()
        .map(|&(t, w)| (t.0, w.to_bits()))
        .collect()
}

/// Builds `texts` both ways under every tokenizer configuration, and
/// asserts that the vocabulary, the document
/// frequencies, every document vector and the vector of every `held_out`
/// text agree bit for bit.
fn assert_matches_model(texts: &[String], held_out: &[String]) {
    let documents: Vec<Document> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| Document::new(format!("d{i}"), t.as_str()))
        .collect();
    for config in [TokenizerConfig::default(), TokenizerConfig::tags_only()] {
        let setting = format!("{config:?}");
        let model = model::Corpus::build(texts, &config);
        let corpus = Corpus::build(documents.clone(), &config);
        let vocab = corpus.vocabulary();
        let terms: Vec<&str> = (0..vocab.len() as u32)
            .map(|id| vocab.term(TermId(id)))
            .collect();
        assert_eq!(terms, model.vocab.terms, "terms, {setting}");
        let dfs: Vec<u32> = (0..vocab.len() as u32)
            .map(|id| vocab.doc_freq(TermId(id)))
            .collect();
        assert_eq!(dfs, model.vocab.doc_freq, "doc_freq, {setting}");
        assert_eq!(vocab.num_documents(), model.vocab.num_documents);
        for (d, expected) in model.vectors.iter().enumerate() {
            assert_eq!(&bits(corpus.vector(d)), expected, "doc {d}, {setting}");
        }
        for text in held_out.iter().chain(texts) {
            assert_eq!(
                bits(&corpus.vectorize(text)),
                model.vectorize(text),
                "vectorize({text:?}), {setting}"
            );
        }
    }
}

/// Words texts are made of: ASCII letters of both cases and digits,
/// characters whose lower case is not an ASCII map (`ß İ É Ω ² ǅ`, a
/// final sigma), stop-words and inflected words.
const WORDS: &[&str] = &[
    "bread",
    "Bread",
    "BREAD",
    "baking",
    "Baked",
    "questions",
    "answered",
    "cities",
    "organization",
    "happiness",
    "class",
    "less",
    "photos",
    "tags",
    "Tag",
    "sunset",
    "the",
    "THE",
    "And",
    "is",
    "a",
    "I",
    "you",
    "x",
    "42",
    "007",
    "Ω",
    "ωmega",
    "ß",
    "Straße",
    "İ",
    "İstanbul",
    "É",
    "École",
    "²",
    "x²",
    "ǅ",
    "ǅemal",
    "ΣΟΦΟΣ",
    "tests",
];

/// What separates two words: whitespace, punctuation, or nothing (the two
/// words glue into one token).
const SEPARATORS: &[&str] = &[
    " ", " ", " ", "  ", "\t", "\n", ",", ". ", "!", "-", "'", "_", "…", "¿", "(", ")", "",
];

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..WORDS.len(), 0..SEPARATORS.len()), 0..14).prop_map(|words| {
        words
            .iter()
            .flat_map(|&(w, s)| [WORDS[w], SEPARATORS[s]])
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corpus_and_vectorize_equal_the_reference_model(
        texts in proptest::collection::vec(text(), 0..9),
        held_out in proptest::collection::vec(text(), 0..4),
    ) {
        assert_matches_model(&texts, &held_out);
    }
}

#[test]
fn empty_symbol_only_and_unicode_texts_equal_the_reference_model() {
    let texts: Vec<String> = [
        "",
        "!!! ... ***",
        "Straße STRASSE straße",
        "İstanbul istanbul ΣΟΦΟΣ σοφος",
        "ǅemal x² ² École ecole",
        "The questions were answered; the cities organized",
        "",
    ]
    .map(String::from)
    .to_vec();
    let held_out = ["", "¿?", "unseen words only", "École questions zeppelin"].map(String::from);
    assert_matches_model(&texts, &held_out);
    assert_matches_model(&[], &held_out);
}

#[test]
fn the_presets_equal_the_reference_model() {
    for preset in [DatasetPreset::FlickrLarge, DatasetPreset::YahooAnswers] {
        let data = preset.generate();
        let texts: Vec<String> = data
            .items
            .iter()
            .chain(&data.consumers)
            .map(|d| d.text.clone())
            .collect();
        let held_out = [
            format!("{} {}", texts[0], texts[texts.len() - 1]),
            "no such words here".to_string(),
        ];
        let config = TokenizerConfig::default();
        let model = model::Corpus::build(&texts, &config);
        let documents: Vec<Document> = data.items.into_iter().chain(data.consumers).collect();
        let corpus = Corpus::build(documents, &config);
        let vocab = corpus.vocabulary();
        assert_eq!(vocab.len(), model.vocab.terms.len(), "{}", preset.name());
        for (id, (term, df)) in model
            .vocab
            .terms
            .iter()
            .zip(&model.vocab.doc_freq)
            .enumerate()
        {
            let id = TermId(id as u32);
            assert_eq!((vocab.term(id), vocab.doc_freq(id)), (term.as_str(), *df));
        }
        assert_eq!(vocab.num_documents(), model.vocab.num_documents);
        for (d, expected) in model.vectors.iter().enumerate() {
            assert_eq!(
                &bits(corpus.vector(d)),
                expected,
                "{} doc {d}",
                preset.name()
            );
        }
        for text in &held_out {
            assert_eq!(bits(&corpus.vectorize(text)), model.vectorize(text));
        }
    }
}
