//! Part-of-speech taggers.
//!
//! Two implementations behind one trait:
//!
//! * [`RuleTagger`] — deterministic lexicon + morphology, no training.
//!   This is the pipeline default: the generated corpora are templated
//!   prose where the closed-class lexicon and suffix rules recover the
//!   tags the chunker needs.
//! * [`HmmTagger`] — a bigram hidden-Markov tagger trained from tagged
//!   sentences, add-k smoothed, decoded with Viterbi. The test suite
//!   verifies Viterbi against exhaustive enumeration on short inputs,
//!   and that supervision beats the rule tagger on a corpus with
//!   ambiguous words.

use std::collections::HashMap;

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

/// A trained bigram HMM tagger.
#[derive(Debug, Clone)]
pub struct HmmTagger {
    /// `transition[prev][next]` = log P(next | prev); index `N` (last
    /// row) is the start state.
    transition: Vec<[f64; Pos::ALL.len()]>,
    /// word → per-tag log emission probabilities.
    emission: HashMap<String, [f64; Pos::ALL.len()]>,
    /// Fallback guesser for out-of-vocabulary words.
    lexicon: Lexicon,
}

impl HmmTagger {
    /// Train from tagged sentences with add-k smoothing (`k = 0.1`).
    pub fn train(corpus: &[Vec<(String, Pos)>]) -> Self {
        const N: usize = Pos::ALL.len();
        const K: f64 = 0.1;
        let mut trans_counts = vec![[0.0f64; N]; N + 1];
        let mut emit_counts: HashMap<String, [f64; N]> = HashMap::new();
        let mut tag_totals = [0.0f64; N];

        for sent in corpus {
            let mut prev = N; // start state
            for (word, pos) in sent {
                let t = pos.index();
                trans_counts[prev][t] += 1.0;
                let row = emit_counts.entry(word.to_lowercase()).or_insert([0.0; N]);
                row[t] += 1.0;
                tag_totals[t] += 1.0;
                prev = t;
            }
        }

        let transition = trans_counts
            .into_iter()
            .map(|row| {
                let total: f64 = row.iter().sum::<f64>() + K * N as f64;
                let mut out = [0.0f64; N];
                for (o, c) in out.iter_mut().zip(row) {
                    *o = ((c + K) / total).ln();
                }
                out
            })
            .collect();

        let emission = emit_counts
            .into_iter()
            .map(|(word, row)| {
                let mut out = [0.0f64; N];
                for t in 0..N {
                    out[t] = ((row[t] + K) / (tag_totals[t] + K * 1000.0)).ln();
                }
                (word, out)
            })
            .collect();

        Self {
            transition,
            emission,
            lexicon: Lexicon::english(),
        }
    }

    /// Log emission scores of `word` for every tag.
    fn emit(&self, word: &str, sentence_initial: bool) -> [f64; Pos::ALL.len()] {
        if let Some(row) = with_lowercase(word, |lower| self.emission.get(lower).copied()) {
            return row;
        }
        // OOV: concentrate mass on the morphological guess, leave a
        // small floor elsewhere.
        let mut row = [(0.01f64 / Pos::ALL.len() as f64).ln(); Pos::ALL.len()];
        let guess = self.lexicon.tag_of(word, sentence_initial);
        row[guess.index()] = 0.99f64.ln();
        row
    }

    /// Exhaustive maximum-probability decode; exponential, test-only.
    #[doc(hidden)]
    pub fn brute_force(&self, words: &[&str]) -> Vec<Pos> {
        const N: usize = Pos::ALL.len();
        assert!(words.len() <= 4, "brute force is exponential");
        let mut best: (f64, Vec<Pos>) = (f64::NEG_INFINITY, vec![]);
        let mut assignment = vec![0usize; words.len()];
        loop {
            let mut score = 0.0;
            let mut prev = N;
            for (i, w) in words.iter().enumerate() {
                let t = assignment[i];
                score += self.transition[prev][t] + self.emit(w, i == 0)[t];
                prev = t;
            }
            if score > best.0 {
                best = (score, assignment.iter().map(|&t| Pos::ALL[t]).collect());
            }
            // increment odometer
            let mut pos = 0;
            loop {
                if pos == assignment.len() {
                    return best.1;
                }
                assignment[pos] += 1;
                if assignment[pos] < N {
                    break;
                }
                assignment[pos] = 0;
                pos += 1;
            }
        }
    }
}

impl Tagger for HmmTagger {
    /// Viterbi decode.
    #[allow(clippy::needless_range_loop)] // trellis indices mirror the textbook algorithm
    fn tag(&self, words: &[&str]) -> Vec<Pos> {
        const N: usize = Pos::ALL.len();
        if words.is_empty() {
            return vec![];
        }
        let mut delta = vec![[f64::NEG_INFINITY; N]; words.len()];
        let mut back = vec![[0usize; N]; words.len()];

        let e0 = self.emit(words[0], true);
        for t in 0..N {
            delta[0][t] = self.transition[N][t] + e0[t];
        }
        for i in 1..words.len() {
            let e = self.emit(words[i], false);
            for t in 0..N {
                let (mut best_p, mut best_s) = (f64::NEG_INFINITY, 0usize);
                for p in 0..N {
                    let s = delta[i - 1][p] + self.transition[p][t];
                    if s > best_p {
                        best_p = s;
                        best_s = p;
                    }
                }
                delta[i][t] = best_p + e[t];
                back[i][t] = best_s;
            }
        }
        let mut last = (0..N)
            .max_by(|&a, &b| delta[words.len() - 1][a].total_cmp(&delta[words.len() - 1][b]))
            .unwrap();
        let mut tags = vec![Pos::X; words.len()];
        for i in (0..words.len()).rev() {
            tags[i] = Pos::ALL[last];
            if i > 0 {
                last = back[i][last];
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

    fn tiny_corpus() -> Vec<Vec<(String, Pos)>> {
        let s = |pairs: &[(&str, Pos)]| {
            pairs
                .iter()
                .map(|&(w, p)| (w.to_string(), p))
                .collect::<Vec<_>>()
        };
        vec![
            s(&[
                ("tuberculosis", Pos::Noun),
                ("damages", Pos::Verb),
                ("the", Pos::Det),
                ("lungs", Pos::Noun),
            ]),
            s(&[
                ("the", Pos::Det),
                ("tumor", Pos::Noun),
                ("damages", Pos::Verb),
                ("nerves", Pos::Noun),
            ]),
            s(&[
                ("damages", Pos::Noun),
                ("are", Pos::Verb),
                ("severe", Pos::Adj),
            ]),
            s(&[
                ("the", Pos::Det),
                ("severe", Pos::Adj),
                ("tumor", Pos::Noun),
                ("grows", Pos::Verb),
            ]),
        ]
    }

    #[test]
    fn hmm_learns_context_disambiguation() {
        let tagger = HmmTagger::train(&tiny_corpus());
        // "damages" after a noun is a verb; sentence-initial it is a noun.
        let t1 = tagger.tag(&["tuberculosis", "damages", "the", "lungs"]);
        assert_eq!(t1[1], Pos::Verb);
        let t2 = tagger.tag(&["damages", "are", "severe"]);
        assert_eq!(t2[0], Pos::Noun);
    }

    #[test]
    fn hmm_handles_oov_via_morphology() {
        let tagger = HmmTagger::train(&tiny_corpus());
        let t = tagger.tag(&["the", "cancerous", "growth"]);
        assert_eq!(t[0], Pos::Det);
        assert_eq!(t[1], Pos::Adj);
        assert_eq!(t[2], Pos::Noun);
    }

    #[test]
    fn viterbi_matches_brute_force() {
        let tagger = HmmTagger::train(&tiny_corpus());
        let sentences: Vec<Vec<&str>> = vec![
            vec!["the", "tumor"],
            vec!["damages", "are", "severe"],
            vec!["the", "severe", "tumor", "grows"],
            vec!["tumor", "damages", "nerves"],
        ];
        for words in sentences {
            assert_eq!(
                tagger.tag(&words),
                tagger.brute_force(&words),
                "decode mismatch on {words:?}"
            );
        }
    }

    #[test]
    fn hmm_empty_sentence() {
        let tagger = HmmTagger::train(&tiny_corpus());
        assert!(tagger.tag(&[]).is_empty());
    }
}
