//! Noun-phrase extraction over the dependency tree.
//!
//! Per the paper: "THOR uses the dependency parse tree to extract *noun
//! phrases*. A noun phrase is a subtree that has at its root a noun
//! (NOUN), pronoun (PRON), or proper noun (PROPN), and might also include
//! leading or trailing modifiers, such as adjectives (ADJ) and
//! determiners (DET). THOR strips from noun phrases any leading or
//! trailing stop-words."
//!
//! A [`NounPhrase`] records both the stop-word-stripped surface text and
//! its token span, so downstream spans can be mapped back to the source.
//! A [`PhraseSpan`] is the same phrase as word positions only, which is
//! what a [`ChunkScratch`](crate::ChunkScratch) produces without
//! allocating.

use std::ops::Range;

use thor_text::trimmed_range;

use crate::dep::{DepLabel, DepTree};
use crate::pos::Pos;

/// An extracted noun phrase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NounPhrase {
    /// Stop-word-trimmed surface text.
    pub text: String,
    /// Index of the head token.
    pub head: usize,
    /// First token index of the (untrimmed) span.
    pub start: usize,
    /// One past the last token index of the span.
    pub end: usize,
}

/// A noun phrase as word positions: a [`NounPhrase`] whose text is the
/// words `lo..hi` joined by single spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhraseSpan {
    /// Index of the head token.
    pub head: usize,
    /// First token index of the (untrimmed) span.
    pub start: usize,
    /// One past the last token index of the span.
    pub end: usize,
    /// First word of the stop-word-trimmed phrase.
    pub lo: usize,
    /// One past its last word: `start <= lo < hi <= end`.
    pub hi: usize,
}

impl PhraseSpan {
    /// The trimmed phrase's words, `lo..hi`.
    pub fn words(&self) -> Range<usize> {
        self.lo..self.hi
    }

    /// The [`NounPhrase`] this span is over `words`.
    pub fn to_noun_phrase(&self, words: &[&str]) -> NounPhrase {
        NounPhrase {
            text: words[self.words()].join(" "),
            head: self.head,
            start: self.start,
            end: self.end,
        }
    }
}

/// Extract noun phrases from a parsed sentence.
///
/// For every NP head (a nominal token not attached via `compound` to
/// another nominal), the span covers the head plus all dependents
/// reachable through NP-internal relations (`det`, `amod`, `nummod`,
/// `compound`). Spans are contiguous by construction of the parser's
/// attachment rules. Phrases that are empty after stop-word stripping
/// (e.g. a bare pronoun `it`) are dropped.
///
/// `words` are tokens as [`thor_text::tokenize`] produces them: non-empty
/// and free of whitespace. Spans are found by walking head pointers
/// once per token and trimmed on the word slice
/// ([`thor_text::trim_stopwords`]), so a phrase allocates only its text.
pub fn noun_phrases(words: &[&str], tags: &[Pos], tree: &DepTree) -> Vec<NounPhrase> {
    let mut phrases = Vec::new();
    phrase_spans_into(words, tags, tree, &mut Vec::new(), &mut phrases);
    phrases.iter().map(|p| p.to_noun_phrase(words)).collect()
}

/// [`noun_phrases`] as word positions, in the same order, written into
/// `phrases`; `span` is the reused buffer of the per-token span table.
pub(crate) fn phrase_spans_into(
    words: &[&str],
    tags: &[Pos],
    tree: &DepTree,
    span: &mut Vec<(usize, usize)>,
    phrases: &mut Vec<PhraseSpan>,
) {
    assert_eq!(words.len(), tags.len());
    assert_eq!(words.len(), tree.len());
    let n = words.len();
    phrases.clear();

    let np_internal = |label: DepLabel| {
        matches!(
            label,
            DepLabel::Det | DepLabel::Amod | DepLabel::Nummod | DepLabel::Compound
        )
    };
    // `span[x]` is the first and last token whose head pointers lead to
    // `x` through NP-internal relations only: `x`'s phrase if `x` heads
    // one. Each token walks its chain once. A chain in a tree has fewer
    // than `n` hops, which also stops the walk on a malformed, cyclic one.
    span.clear();
    span.extend((0..n).map(|i| (i, i)));
    for d in 0..n {
        let mut cur = d;
        for _ in 0..n {
            match tree.heads[cur] {
                Some(h) if h < n && np_internal(tree.labels[cur]) => {
                    cur = h;
                    span[h].0 = span[h].0.min(d);
                    span[h].1 = span[h].1.max(d);
                }
                _ => break,
            }
        }
    }

    for (head, tag) in tags.iter().enumerate() {
        if !tag.is_nominal() {
            continue;
        }
        // Skip non-head members of a compound run.
        if tree.labels[head] == DepLabel::Compound {
            continue;
        }
        let (start, last) = span[head];
        let end = last + 1;
        let trimmed = trimmed_range(&words[start..end]);
        if trimmed.is_empty() {
            continue;
        }
        phrases.push(PhraseSpan {
            head,
            start,
            end,
            lo: start + trimmed.start,
            hi: start + trimmed.end,
        });
    }
    // By start; heads are distinct and were pushed in order, so this is
    // the stable sort by start.
    phrases.sort_unstable_by_key(|p| (p.start, p.head));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::parse_dependencies;
    use crate::tagger::{RuleTagger, Tagger};

    fn nps(sentence: &str) -> Vec<String> {
        let tokens = thor_text::tokenize(sentence);
        let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        let tags = RuleTagger::default().tag(&words);
        let tree = parse_dependencies(&words, &tags);
        noun_phrases(&words, &tags, &tree)
            .into_iter()
            .map(|p| p.text)
            .collect()
    }

    #[test]
    fn running_example_fig3() {
        // Paper: "{Tuberculosis, lungs}" from "Tuberculosis generally
        // damages the lungs" (after stop-word stripping of "the").
        assert_eq!(
            nps("Tuberculosis generally damages the lungs"),
            ["Tuberculosis", "lungs"]
        );
    }

    #[test]
    fn modifier_rich_np() {
        let got = nps("It is a slow-growing non-cancerous brain tumor");
        assert!(
            got.contains(&"slow-growing non-cancerous brain tumor".to_string()),
            "{got:?}"
        );
    }

    #[test]
    fn pronoun_only_np_dropped() {
        // "It" strips to empty and must not be emitted.
        let got = nps("It damages the lungs");
        assert_eq!(got, ["lungs"]);
    }

    #[test]
    fn coordination_yields_separate_phrases() {
        let got = nps("Symptoms include headaches , dizziness and nausea");
        assert!(got.contains(&"headaches".to_string()));
        assert!(got.contains(&"dizziness".to_string()));
        assert!(got.contains(&"nausea".to_string()));
    }

    #[test]
    fn prepositional_np() {
        let got = nps("It causes damage in the nervous system");
        assert!(got.contains(&"nervous system".to_string()), "{got:?}");
    }

    #[test]
    fn empty_sentence() {
        assert!(nps("").is_empty());
    }

    #[test]
    fn spans_cover_heads() {
        let tokens = thor_text::tokenize("the brain tumor damages the auditory nerve");
        let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        let tags = RuleTagger::default().tag(&words);
        let tree = parse_dependencies(&words, &tags);
        for np in noun_phrases(&words, &tags, &tree) {
            assert!(np.start <= np.head && np.head < np.end);
            assert!(np.end <= words.len());
        }
    }
}
