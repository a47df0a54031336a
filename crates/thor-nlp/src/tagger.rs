//! Part-of-speech tagging behind one trait, [`Tagger`], implemented by
//! [`RuleTagger`]: deterministic lexicon + morphology, no training. The
//! generated corpora are templated prose where the closed-class lexicon
//! and suffix rules recover the tags the chunker needs.

use thor_text::with_lowercase;

use crate::lexicon::Lexicon;
use crate::pos::Pos;

/// Assigns a POS tag to every token of a sentence.
pub trait Tagger {
    /// Tag the words of one sentence into `tags`, replacing what it
    /// held: the allocation-free form a reused buffer takes.
    fn tag_into(&self, words: &[&str], tags: &mut Vec<Pos>);

    /// Tag the words of one sentence.
    fn tag(&self, words: &[&str]) -> Vec<Pos> {
        let mut tags = Vec::with_capacity(words.len());
        self.tag_into(words, &mut tags);
        tags
    }
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

    /// [`Tagger::tag_into`], given `lower`, the `str::to_lowercase` of
    /// each word: for a caller that has lowercased the sentence's words
    /// already, as [`thor_text::WordWalk`] does. The tags are the same.
    pub fn tag_lowered_into(&self, words: &[&str], lower: &[&str], tags: &mut Vec<Pos>) {
        assert_eq!(words.len(), lower.len());
        tags.clear();
        tags.extend(
            words
                .iter()
                .zip(lower)
                .enumerate()
                .map(|(i, (w, l))| self.lexicon.tag_of_lowered(w, l, i == 0)),
        );
        repair(tags, |i| lower[i].ends_with('s'));
    }
}

impl Tagger for RuleTagger {
    fn tag_into(&self, words: &[&str], tags: &mut Vec<Pos>) {
        tags.clear();
        tags.extend(
            words
                .iter()
                .enumerate()
                .map(|(i, w)| self.lexicon.tag_of(w, i == 0)),
        );
        repair(tags, |i| {
            with_lowercase(words[i], |lower| lower.ends_with('s'))
        });
    }
}

/// The context repair pass over lexicon tags; `ends_in_s(i)` is whether
/// word `i`, lowercased, ends in `s`.
fn repair(tags: &mut [Pos], ends_in_s: impl Fn(usize) -> bool) {
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
            && ends_in_s(i)
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
