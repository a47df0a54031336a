//! Stop-word handling.
//!
//! The paper: "THOR strips from noun phrases any leading or trailing
//! stop-words (such as *a*, *of*, *the*)". We use a compact English
//! stop-word list (function words only — determiners, prepositions,
//! conjunctions, pronouns, auxiliaries); content words are never stopped
//! since they may be part of an entity phrase.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::OnceLock;

use crate::hash::GramBuildHasher;
use crate::normalize::with_lowercase;

const STOPWORDS: &[&str] = &[
    // determiners / articles
    "a",
    "an",
    "the",
    "this",
    "that",
    "these",
    "those",
    "each",
    "every",
    "either",
    "neither",
    "some",
    "any",
    "no",
    "such",
    "both",
    "all",
    "another",
    "other",
    // prepositions
    "of",
    "in",
    "on",
    "at",
    "by",
    "for",
    "with",
    "about",
    "against",
    "between",
    "into",
    "through",
    "during",
    "before",
    "after",
    "above",
    "below",
    "to",
    "from",
    "up",
    "down",
    "out",
    "off",
    "over",
    "under",
    "within",
    "without",
    "along",
    "across",
    "behind",
    "beyond",
    "near",
    "among",
    "upon",
    "via",
    "per",
    // conjunctions
    "and",
    "or",
    "but",
    "nor",
    "so",
    "yet",
    "if",
    "because",
    "while",
    "although",
    "though",
    "unless",
    "until",
    "when",
    "where",
    "whereas",
    "since",
    "as",
    "than",
    // pronouns
    "i",
    "you",
    "he",
    "she",
    "it",
    "we",
    "they",
    "me",
    "him",
    "her",
    "us",
    "them",
    "my",
    "your",
    "his",
    "its",
    "our",
    "their",
    "mine",
    "yours",
    "hers",
    "ours",
    "theirs",
    "who",
    "whom",
    "whose",
    "which",
    "what",
    "itself",
    "himself",
    "herself",
    "themselves",
    // auxiliaries / copulas
    "am",
    "is",
    "are",
    "was",
    "were",
    "be",
    "been",
    "being",
    "do",
    "does",
    "did",
    "have",
    "has",
    "had",
    "having",
    "will",
    "would",
    "shall",
    "should",
    "may",
    "might",
    "must",
    "can",
    "could",
    // misc function words
    "not",
    "only",
    "also",
    "very",
    "just",
    "there",
    "here",
    "then",
    "thus",
    "hence",
    "however",
    "moreover",
    "furthermore",
    "too",
    "etc",
    "often",
    "sometimes",
    "usually",
    "commonly",
    "typically",
    "generally",
    "most",
    "more",
    "many",
    "much",
    "few",
    "several",
    "how",
    "why",
    "again",
    "further",
    "once",
];

fn set() -> &'static HashSet<&'static str, GramBuildHasher> {
    static SET: OnceLock<HashSet<&'static str, GramBuildHasher>> = OnceLock::new();
    SET.get_or_init(|| STOPWORDS.iter().copied().collect())
}

/// Is `word` (any case) a stop-word?
pub fn is_stopword(word: &str) -> bool {
    with_lowercase(word, |lower| set().contains(lower))
}

/// The words of `words` between its leading and trailing stop-words
/// and punctuation-only words — the trimming rule of
/// [`strip_stopwords`], on a phrase that is already split into words.
///
/// ```
/// use thor_text::trim_stopwords;
/// assert_eq!(trim_stopwords(&["the", "loss", "of", "balance", "."]), ["loss", "of", "balance"]);
/// ```
pub fn trim_stopwords<'w, 'a>(words: &'w [&'a str]) -> &'w [&'a str] {
    &words[trimmed_range(words)]
}

/// The range of `words` that [`trim_stopwords`] keeps; empty (at
/// `words.len()`) when it keeps nothing.
///
/// ```
/// use thor_text::trimmed_range;
/// assert_eq!(trimmed_range(&["the", "loss", "of", "balance", "."]), 1..4);
/// ```
pub fn trimmed_range(words: &[&str]) -> Range<usize> {
    let is_strippable = |t: &str| is_stopword(t) || t.chars().all(|c| c.is_ascii_punctuation());
    let lo = words
        .iter()
        .position(|w| !is_strippable(w))
        .unwrap_or(words.len());
    let hi = words[lo..]
        .iter()
        .rposition(|w| !is_strippable(w))
        .map_or(lo, |i| lo + i + 1);
    lo..hi
}

/// Strip leading and trailing stop-words (and punctuation-only tokens)
/// from a phrase; inner stop-words are kept, matching the paper's
/// noun-phrase trimming ("the lungs" → "lungs", but "quality of life"
/// stays intact).
///
/// ```
/// use thor_text::strip_stopwords;
/// assert_eq!(strip_stopwords("the lungs"), "lungs");
/// assert_eq!(strip_stopwords("loss of balance"), "loss of balance");
/// assert_eq!(strip_stopwords("of the"), "");
/// ```
pub fn strip_stopwords(phrase: &str) -> String {
    let tokens: Vec<&str> = phrase.split_whitespace().collect();
    trim_stopwords(&tokens).join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_stopwords() {
        for w in ["the", "a", "of", "and", "is", "The", "OF"] {
            assert!(is_stopword(w), "{w} should be a stop-word");
        }
    }

    #[test]
    fn content_words_not_stopped() {
        for w in ["lungs", "brain", "tumor", "surgery", "aspirin"] {
            assert!(!is_stopword(w), "{w} should not be a stop-word");
        }
    }

    #[test]
    fn strip_leading() {
        assert_eq!(strip_stopwords("the lungs"), "lungs");
        assert_eq!(
            strip_stopwords("a slow-growing tumor"),
            "slow-growing tumor"
        );
    }

    #[test]
    fn strip_trailing() {
        assert_eq!(strip_stopwords("lungs and"), "lungs");
    }

    #[test]
    fn inner_stopwords_kept() {
        assert_eq!(strip_stopwords("loss of balance"), "loss of balance");
        assert_eq!(strip_stopwords("the loss of balance"), "loss of balance");
    }

    #[test]
    fn all_stopwords_to_empty() {
        assert_eq!(strip_stopwords("of the and"), "");
        assert_eq!(strip_stopwords(""), "");
    }

    #[test]
    fn punct_tokens_stripped() {
        assert_eq!(strip_stopwords(", lungs ."), "lungs");
    }
}
