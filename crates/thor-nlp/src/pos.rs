//! Part-of-speech tag set (Universal POS subset).
//!
//! The paper's parser performs "part-of-speech tagging, associating with
//! each word their grammatical function (e.g., VERB, ADJECTIVE, NOUN)"
//! and defines noun phrases over NOUN/PRON/PROPN heads with ADJ/DET
//! modifiers. We use the Universal Dependencies tag inventory restricted
//! to the classes those rules reference.

use std::fmt;

/// Universal part-of-speech tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pos {
    /// Common noun (`lungs`, `tumor`).
    Noun,
    /// Proper noun (`Tuberculosis` as a name, `WHO`).
    Propn,
    /// Pronoun (`it`, `they`).
    Pron,
    /// Verb, including auxiliaries (`damages`, `is`).
    Verb,
    /// Adjective (`non-cancerous`).
    Adj,
    /// Adverb (`generally`).
    Adv,
    /// Determiner (`the`, `a`).
    Det,
    /// Adposition / preposition (`of`, `in`).
    Adp,
    /// Numeral (`12.5`, `three`).
    Num,
    /// Coordinating or subordinating conjunction (`and`, `because`).
    Conj,
    /// Particle (`to` of infinitives, `'s`).
    Part,
    /// Punctuation.
    Punct,
    /// Anything else / unknown.
    X,
}

impl Pos {
    /// All tags, in a fixed order (used for dense indexing in the HMM).
    pub const ALL: [Pos; 13] = [
        Pos::Noun,
        Pos::Propn,
        Pos::Pron,
        Pos::Verb,
        Pos::Adj,
        Pos::Adv,
        Pos::Det,
        Pos::Adp,
        Pos::Num,
        Pos::Conj,
        Pos::Part,
        Pos::Punct,
        Pos::X,
    ];

    /// Can this tag head a noun phrase? (NOUN, PROPN, PRON.)
    pub fn is_nominal(self) -> bool {
        matches!(self, Pos::Noun | Pos::Propn | Pos::Pron)
    }

    /// Can this tag modify a noun inside an NP? (ADJ, DET, NUM, NOUN
    /// compounds, PROPN compounds.)
    pub fn is_np_modifier(self) -> bool {
        matches!(
            self,
            Pos::Adj | Pos::Det | Pos::Num | Pos::Noun | Pos::Propn
        )
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pos::Noun => "NOUN",
            Pos::Propn => "PROPN",
            Pos::Pron => "PRON",
            Pos::Verb => "VERB",
            Pos::Adj => "ADJ",
            Pos::Adv => "ADV",
            Pos::Det => "DET",
            Pos::Adp => "ADP",
            Pos::Num => "NUM",
            Pos::Conj => "CONJ",
            Pos::Part => "PART",
            Pos::Punct => "PUNCT",
            Pos::X => "X",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_classes() {
        assert!(Pos::Noun.is_nominal());
        assert!(Pos::Propn.is_nominal());
        assert!(Pos::Pron.is_nominal());
        assert!(!Pos::Verb.is_nominal());
        assert!(!Pos::Adj.is_nominal());
    }

    #[test]
    fn modifier_classes() {
        assert!(Pos::Adj.is_np_modifier());
        assert!(Pos::Det.is_np_modifier());
        assert!(Pos::Noun.is_np_modifier());
        assert!(!Pos::Verb.is_np_modifier());
        assert!(!Pos::Punct.is_np_modifier());
    }

    #[test]
    fn display_names() {
        assert_eq!(Pos::Noun.to_string(), "NOUN");
        assert_eq!(Pos::Propn.to_string(), "PROPN");
    }
}
