//! Part-of-speech tagging behind one trait, [`Tagger`], implemented by
//! [`RuleTagger`]: deterministic lexicon + morphology, no training. The
//! generated corpora are templated prose where the closed-class lexicon
//! and suffix rules recover the tags the chunker needs.

use thor_text::with_lowercase;

use crate::lexicon::Lexicon;
use crate::pos::Pos;

/// Assigns a POS tag to every token of a sentence.
pub trait Tagger {
    /// Tag the words of one sentence.
    fn tag(&self, words: &[&str]) -> Vec<Pos>;
}

/// Deterministic lexicon/morphology tagger with one context repair pass.
#[derive(Debug, Clone)]
pub struct RuleTagger {
    lexicon: Lexicon,
}

impl Default for RuleTagger {
    fn default() -> Self {
        Self::new(Lexicon::english())
    }
}

impl RuleTagger {
    /// Create a rule tagger over the given lexicon.
    pub fn new(lexicon: Lexicon) -> Self {
        Self { lexicon }
    }

    /// Access the underlying lexicon (e.g., to add domain words).
    pub fn lexicon_mut(&mut self) -> &mut Lexicon {
        &mut self.lexicon
    }
}

impl Tagger for RuleTagger {
    fn tag(&self, words: &[&str]) -> Vec<Pos> {
        let mut tags: Vec<Pos> = words
            .iter()
            .enumerate()
            .map(|(i, w)| self.lexicon.tag_of(w, i == 0))
            .collect();
        // Context repairs (Brill-style):
        for i in 0..tags.len() {
            // DET _ : a noun-guessed word directly after a determiner
            // sitting before another noun is more likely an ADJ...
            // but only if it's not the last nominal of the run; keep
            // simple: "that"/"as" ambiguity — after a DET, a CONJ-tagged
            // "that" is a DET complementizer; leave as-is.
            //
            // NOUN followed by sentence-initial guess: the first word was
            // conservatively tagged NOUN; if it is followed by a verb and
            // capitalized, it is acting as the subject name — PROPN
            // improves downstream subject matching but NOUN is fine too.
            //
            // Repair: word tagged NOUN that ends in "s" directly after a
            // nominal and followed by a DET is almost surely a verb
            // ("Tuberculosis damages the lungs").
            if tags[i] == Pos::Noun
                && i + 1 < tags.len()
                && matches!(tags[i + 1], Pos::Det | Pos::Pron)
                && with_lowercase(words[i], |lower| lower.ends_with('s'))
            {
                // Previous non-adverb tag must be nominal.
                let prev_nominal = (0..i)
                    .rev()
                    .map(|j| tags[j])
                    .find(|t| *t != Pos::Adv)
                    .is_some_and(Pos::is_nominal);
                if prev_nominal {
                    tags[i] = Pos::Verb;
                }
            }
        }
        tags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> RuleTagger {
        RuleTagger::default()
    }

    #[test]
    fn rule_tagger_running_example() {
        // "Tuberculosis generally damages the lungs"
        let words = ["Tuberculosis", "generally", "damages", "the", "lungs"];
        let tags = rule().tag(&words);
        assert_eq!(tags[1], Pos::Adv);
        assert_eq!(tags[3], Pos::Det);
        assert_eq!(tags[4], Pos::Noun);
        assert!(tags[0].is_nominal());
    }

    #[test]
    fn rule_tagger_noun_phrase_with_modifiers() {
        let words = ["a", "slow-growing", "non-cancerous", "brain", "tumor"];
        let tags = rule().tag(&words);
        assert_eq!(tags, [Pos::Det, Pos::Adj, Pos::Adj, Pos::Noun, Pos::Noun]);
    }

    #[test]
    fn rule_tagger_verb_repair() {
        let words = ["Tuberculosis", "damages", "the", "lungs"];
        let tags = rule().tag(&words);
        assert_eq!(tags[1], Pos::Verb, "noun-Verb-det repair should fire");
    }

    #[test]
    fn rule_tagger_empty() {
        assert!(rule().tag(&[]).is_empty());
    }
}
