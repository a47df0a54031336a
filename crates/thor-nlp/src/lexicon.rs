//! English lexicon: closed-class word lists plus open-class guessing.
//!
//! Closed-class words (determiners, prepositions, pronouns, auxiliaries,
//! conjunctions) are a small, stable inventory — we enumerate them. For
//! open-class words the lexicon falls back to morphology: suffix and
//! shape heuristics in the style of classic rule-based taggers
//! (Brill 1992).

use std::collections::HashMap;

use thor_text::{with_lowercase, GramBuildHasher};

use crate::pos::Pos;

/// Word → tag lexicon with a morphological guesser. Its table is keyed
/// through [`thor_text::GramHasher`]: it is fixed once built, and
/// documents only probe it.
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    entries: HashMap<String, Pos, GramBuildHasher>,
}

const DETERMINERS: &[&str] = &[
    "the", "a", "an", "this", "that", "these", "those", "each", "every", "either", "neither",
    "some", "any", "no", "another", "such", "both", "all",
];

const PREPOSITIONS: &[&str] = &[
    "of", "in", "on", "at", "by", "for", "with", "about", "against", "between", "into", "through",
    "during", "before", "after", "above", "below", "from", "up", "down", "out", "off", "over",
    "under", "within", "without", "along", "across", "behind", "beyond", "near", "among", "upon",
    "via", "per",
];

const PRONOUNS: &[&str] = &[
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
    "who",
    "whom",
    "which",
    "itself",
    "himself",
    "herself",
    "themselves",
    "something",
    "anything",
    "nothing",
    "everything",
    "someone",
    "anyone",
];

const CONJUNCTIONS: &[&str] = &[
    "and", "or", "but", "nor", "so", "yet", "if", "because", "while", "although", "though",
    "unless", "until", "when", "whereas", "since", "as", "than", "that",
];

const AUXILIARIES: &[&str] = &[
    "am", "is", "are", "was", "were", "be", "been", "being", "do", "does", "did", "have", "has",
    "had", "having", "will", "would", "shall", "should", "may", "might", "must", "can", "could",
];

const COMMON_ADVERBS: &[&str] = &[
    "not",
    "very",
    "also",
    "often",
    "sometimes",
    "usually",
    "commonly",
    "typically",
    "generally",
    "too",
    "then",
    "there",
    "here",
    "however",
    "early",
    "late",
    "soon",
    "never",
    "always",
    "rarely",
    "quickly",
    "slowly",
];

const PARTICLES: &[&str] = &["to", "'s"];

/// Common content verbs (base + 3rd-person forms) that morphology alone
/// cannot separate from plural nouns. The inventory covers the verbs the
/// generated corpora and the paper's running examples use.
const COMMON_VERBS: &[&str] = &[
    "damage",
    "damages",
    "cause",
    "causes",
    "include",
    "includes",
    "involve",
    "involves",
    "affect",
    "affects",
    "require",
    "requires",
    "lead",
    "leads",
    "occur",
    "occurs",
    "develop",
    "develops",
    "grow",
    "grows",
    "treat",
    "treats",
    "diagnose",
    "diagnoses",
    "present",
    "presents",
    "show",
    "shows",
    "recommend",
    "recommends",
    "use",
    "uses",
    "prevent",
    "prevents",
    "reduce",
    "reduces",
    "increase",
    "increases",
    "help",
    "helps",
    "work",
    "works",
    "study",
    "studies",
    "hold",
    "holds",
    "earn",
    "earns",
    "receive",
    "receives",
    "speak",
    "speaks",
    "know",
    "knows",
    "live",
    "lives",
    "manage",
    "manages",
    "spread",
    "spreads",
    "produce",
    "produces",
    "result",
    "results",
    "report",
    "reports",
    "experience",
    "experiences",
    "suffer",
    "suffers",
    "take",
    "takes",
    "need",
    "needs",
    "become",
    "becomes",
    "remain",
    "remains",
    "appear",
    "appears",
    "begin",
    "begins",
    "make",
    "makes",
    "arise",
    "arises",
    "worsen",
    "worsens",
    "improve",
    "improves",
];

impl Lexicon {
    /// Build the default English closed-class lexicon.
    pub fn english() -> Self {
        let mut entries = HashMap::default();
        let mut add = |words: &[&str], pos: Pos| {
            for &w in words {
                entries.insert(w.to_string(), pos);
            }
        };
        add(DETERMINERS, Pos::Det);
        add(PREPOSITIONS, Pos::Adp);
        add(PRONOUNS, Pos::Pron);
        add(CONJUNCTIONS, Pos::Conj);
        add(AUXILIARIES, Pos::Verb);
        add(COMMON_ADVERBS, Pos::Adv);
        add(PARTICLES, Pos::Part);
        add(COMMON_VERBS, Pos::Verb);
        Self { entries }
    }

    /// Add or override an entry (lowercased key).
    pub fn insert(&mut self, word: &str, pos: Pos) {
        self.entries.insert(word.to_lowercase(), pos);
    }

    /// Exact lookup (case-insensitive).
    pub fn lookup(&self, word: &str) -> Option<Pos> {
        with_lowercase(word, |lower| self.entries.get(lower).copied())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the lexicon is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Guess the tag of an open-class word from morphology and shape.
    ///
    /// `sentence_initial` suppresses the capitalization→PROPN rule at the
    /// start of a sentence, where capitalization is uninformative.
    pub fn guess(&self, word: &str, sentence_initial: bool) -> Pos {
        with_lowercase(word, |lower| {
            Self::guess_lowered(word, lower, sentence_initial)
        })
    }

    /// [`Lexicon::guess`], given `lower`, the lowercase form of `word`.
    fn guess_lowered(word: &str, lower: &str, sentence_initial: bool) -> Pos {
        if word.chars().all(|c| c.is_ascii_punctuation()) && !word.is_empty() {
            return Pos::Punct;
        }
        if word.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return Pos::Num;
        }
        // Capitalized mid-sentence → proper noun.
        if !sentence_initial && word.chars().next().is_some_and(char::is_uppercase) {
            return Pos::Propn;
        }
        // Number words.
        const NUM_WORDS: &[&str] = &[
            "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
        ];
        if NUM_WORDS.contains(&lower) {
            return Pos::Num;
        }
        // Adverbs: -ly.
        if lower.len() > 3 && lower.ends_with("ly") {
            return Pos::Adv;
        }
        // Adjective suffixes.
        const ADJ_SUFFIXES: &[&str] = &[
            "ous", "ive", "able", "ible", "al", "ic", "ful", "less", "ant", "ent", "ary",
        ];
        if lower.len() > 4 && ADJ_SUFFIXES.iter().any(|s| lower.ends_with(s)) {
            return Pos::Adj;
        }
        // Hyphenated modifiers (`slow-growing`, `non-cancerous`).
        if lower.contains('-')
            && (lower.ends_with("ing") || lower.ends_with("ed") || lower.starts_with("non-"))
        {
            return Pos::Adj;
        }
        // Verb morphology.
        if lower.len() > 4 && (lower.ends_with("izes") || lower.ends_with("ises")) {
            return Pos::Verb;
        }
        if lower.len() > 3 && (lower.ends_with("ing") || lower.ends_with("ed")) {
            return Pos::Verb;
        }
        // 3rd-person -s on a verb is indistinguishable from a plural noun
        // without context; the HMM learns this, the rule tagger defaults
        // to NOUN, which the dependency rules tolerate.
        Pos::Noun
    }

    /// Lookup, falling back to the guesser; lowercases `word` once for both.
    pub fn tag_of(&self, word: &str, sentence_initial: bool) -> Pos {
        with_lowercase(word, |lower| {
            self.tag_of_lowered(word, lower, sentence_initial)
        })
    }

    /// [`Lexicon::tag_of`], given `lower`, the `str::to_lowercase` of
    /// `word`: for a caller that has lowercased the word already.
    pub fn tag_of_lowered(&self, word: &str, lower: &str, sentence_initial: bool) -> Pos {
        self.entries
            .get(lower)
            .copied()
            .unwrap_or_else(|| Self::guess_lowered(word, lower, sentence_initial))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_class_lookups() {
        let lex = Lexicon::english();
        assert_eq!(lex.lookup("the"), Some(Pos::Det));
        assert_eq!(lex.lookup("The"), Some(Pos::Det));
        assert_eq!(lex.lookup("of"), Some(Pos::Adp));
        assert_eq!(lex.lookup("it"), Some(Pos::Pron));
        assert_eq!(lex.lookup("and"), Some(Pos::Conj));
        assert_eq!(lex.lookup("is"), Some(Pos::Verb));
        assert_eq!(lex.lookup("lungs"), None);
    }

    #[test]
    fn guesses_adjectives() {
        let lex = Lexicon::english();
        assert_eq!(lex.guess("cancerous", false), Pos::Adj);
        assert_eq!(lex.guess("non-cancerous", false), Pos::Adj);
        assert_eq!(lex.guess("slow-growing", false), Pos::Adj);
        assert_eq!(lex.guess("surgical", false), Pos::Adj);
    }

    #[test]
    fn guesses_verbs_and_adverbs() {
        let lex = Lexicon::english();
        assert_eq!(lex.guess("damaging", false), Pos::Verb);
        assert_eq!(lex.guess("treated", false), Pos::Verb);
        assert_eq!(lex.guess("generally", false), Pos::Adv);
    }

    #[test]
    fn guesses_numbers_and_punct() {
        let lex = Lexicon::english();
        assert_eq!(lex.guess("12.5", false), Pos::Num);
        assert_eq!(lex.guess("three", false), Pos::Num);
        assert_eq!(lex.guess(".", false), Pos::Punct);
    }

    #[test]
    fn capitalization_rule() {
        let lex = Lexicon::english();
        assert_eq!(lex.guess("Tuberculosis", false), Pos::Propn);
        // Sentence-initial capitalization is ignored; falls to NOUN.
        assert_eq!(lex.guess("Tuberculosis", true), Pos::Noun);
    }

    #[test]
    fn default_is_noun() {
        let lex = Lexicon::english();
        assert_eq!(lex.guess("lungs", false), Pos::Noun);
        assert_eq!(lex.guess("tumor", false), Pos::Noun);
    }

    #[test]
    fn insert_overrides() {
        let mut lex = Lexicon::english();
        lex.insert("damages", Pos::Verb);
        assert_eq!(lex.tag_of("damages", false), Pos::Verb);
    }
}
