//! Tokenization: lower-casing, punctuation removal, stop-words and a light
//! suffix stemmer.
//!
//! The paper preprocesses Yahoo! Answers text by removing punctuation and
//! stop-words, stemming, and applying tf·idf weighting.  The stemmer here
//! is a small rule-based suffix stripper (a subset of Porter's rules) —
//! enough to conflate the morphological variants that matter for similarity
//! scores without pulling in an external dependency.

/// Common English stop-words removed before vectorization.
pub const STOP_WORDS: &[&str] = &[
    "a", "about", "after", "all", "also", "an", "and", "any", "are", "as", "at", "be", "because",
    "been", "but", "by", "can", "could", "did", "do", "does", "for", "from", "had", "has", "have",
    "he", "her", "him", "his", "how", "i", "if", "in", "into", "is", "it", "its", "just", "like",
    "me", "more", "most", "my", "no", "not", "of", "on", "one", "only", "or", "other", "our",
    "out", "over", "she", "should", "so", "some", "such", "than", "that", "the", "their", "them",
    "then", "there", "these", "they", "this", "to", "up", "us", "was", "we", "were", "what",
    "when", "where", "which", "who", "why", "will", "with", "would", "you", "your",
];

/// The tokenizer's two profiles.  Each reads as its [`TokenRules`]
/// (`config.stem`, …) through `Deref`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TokenizerConfig {
    /// Free text (Yahoo! Answers): stop-words removed, stemmed, tokens of
    /// at least 2 bytes.
    #[default]
    Text,
    /// Only lower-cases and splits, for tag vocabularies such as flickr
    /// tags, which are already normalized.
    Tags,
}

/// What a [`TokenizerConfig`] profile does to each lower-cased word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenRules {
    /// Remove stop-words.
    pub remove_stop_words: bool,
    /// Apply the suffix stemmer.
    pub stem: bool,
    /// Drop tokens shorter than this (after stemming).
    pub min_token_len: usize,
}

impl TokenizerConfig {
    /// The [`TokenizerConfig::Tags`] profile.
    pub fn tags_only() -> Self {
        TokenizerConfig::Tags
    }
}

impl std::ops::Deref for TokenizerConfig {
    type Target = TokenRules;

    fn deref(&self) -> &TokenRules {
        match self {
            TokenizerConfig::Text => &TokenRules {
                remove_stop_words: true,
                stem: true,
                min_token_len: 2,
            },
            TokenizerConfig::Tags => &TokenRules {
                remove_stop_words: false,
                stem: false,
                min_token_len: 1,
            },
        }
    }
}

/// A reusable tokenizer.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    config: TokenizerConfig,
}

impl Tokenizer {
    /// Creates a tokenizer with the given configuration.
    pub fn new(config: TokenizerConfig) -> Self {
        Tokenizer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TokenizerConfig {
        &self.config
    }

    /// Hands each normalized term of `text` to `emit`, in text order.
    ///
    /// Every term is built in one buffer reused across the text: an ASCII
    /// word is lower-cased in place, any other word through
    /// [`str::to_lowercase`], then stop-words are dropped, the rest
    /// stemmed in place and filtered by length.
    pub fn for_each_token(&self, text: &str, mut emit: impl FnMut(&str)) {
        let rules: &TokenRules = &self.config;
        let mut token = String::new();
        for word in text.split(|c: char| !c.is_alphanumeric()) {
            if word.is_empty() {
                continue;
            }
            token.clear();
            if word.is_ascii() {
                token.push_str(word);
                token.make_ascii_lowercase();
            } else {
                token.push_str(&word.to_lowercase());
            }
            if rules.remove_stop_words && is_stop_word(&token) {
                continue;
            }
            if rules.stem {
                stem(&mut token);
            }
            if token.len() >= rules.min_token_len {
                emit(&token);
            }
        }
    }

    /// Tokenizes `text` into normalized terms: [`Tokenizer::for_each_token`]
    /// collected.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        self.for_each_token(text, |t| tokens.push(t.to_string()));
        tokens
    }
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer::new(TokenizerConfig::default())
    }
}

/// Whether `token` (already lower-cased) is a stop-word.
pub fn is_stop_word(token: &str) -> bool {
    STOP_WORDS.binary_search(&token).is_ok()
}

/// A light rule-based suffix stemmer (subset of Porter's step-1 rules plus
/// a few common derivational suffixes), applied in place.
///
/// The goal is stable conflation of plural and inflected forms
/// ("questions" → "question", "baking" → "bake", "answered" → "answer"),
/// not linguistic perfection.
pub fn stem(token: &mut String) {
    if token.len() <= 3 {
        return;
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
    if let Some((suffix, replacement)) =
        rules.iter().find(|(suffix, _)| rule_applies(token, suffix))
    {
        token.truncate(token.len() - suffix.len());
        token.push_str(replacement);
    }
}

/// Whether a suffix rule applies: the token ends with `suffix` and the stem
/// it would leave is long enough.
fn rule_applies(token: &str, suffix: &str) -> bool {
    // Keep at least three characters of stem so that words like "this" or
    // "class" are not mangled into nonsense, and do not strip "s" from
    // words ending in "ss" ("class", "less").
    token.ends_with(suffix)
        && token.len() - suffix.len() >= 3
        && !(suffix == "s" && token.ends_with("ss"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_word_table_is_sorted_for_binary_search() {
        let mut sorted = STOP_WORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOP_WORDS, "STOP_WORDS must stay sorted");
    }

    #[test]
    fn stop_words_are_recognized() {
        assert!(is_stop_word("the"));
        assert!(is_stop_word("and"));
        assert!(!is_stop_word("bread"));
    }

    fn stemmed(token: &str) -> String {
        let mut token = token.to_string();
        stem(&mut token);
        token
    }

    #[test]
    fn stemmer_conflates_common_inflections() {
        assert_eq!(stemmed("questions"), "question");
        assert_eq!(stemmed("baking"), "bake");
        assert_eq!(stemmed("answered"), "answer");
        assert_eq!(stemmed("photos"), "photo");
        assert_eq!(stemmed("cities"), "city");
        assert_eq!(stemmed("organization"), "organize");
    }

    #[test]
    fn stemmer_leaves_short_and_awkward_words_alone() {
        assert_eq!(stemmed("is"), "is");
        assert_eq!(stemmed("cat"), "cat");
        assert_eq!(stemmed("class"), "class");
        assert_eq!(stemmed("less"), "less");
    }

    #[test]
    fn tokenizer_default_pipeline() {
        let t = Tokenizer::default();
        let tokens = t.tokenize("The quick, brown foxes were JUMPING over the lazy dogs!");
        assert_eq!(
            tokens,
            vec!["quick", "brown", "foxe", "jumpe", "lazy", "dog"]
        );
    }

    #[test]
    fn tokenizer_tags_only_keeps_everything() {
        let t = Tokenizer::new(TokenizerConfig::tags_only());
        let tokens = t.tokenize("The Sunset beach SUNSET");
        assert_eq!(tokens, vec!["the", "sunset", "beach", "sunset"]);
    }

    #[test]
    fn tokenizer_strips_punctuation_and_numbers_boundaries() {
        let t = Tokenizer::new(TokenizerConfig::tags_only());
        assert_eq!(
            t.tokenize("hello,world! 42 a-b"),
            vec!["hello", "world", "42", "a", "b"]
        );
    }

    #[test]
    fn empty_and_symbol_only_input_yields_no_tokens() {
        let t = Tokenizer::default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("!!! ... ***").is_empty());
    }
}
