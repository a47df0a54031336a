//! Fuzz tests for the linguistic substrate: arbitrary text through the
//! tokenize → tag → parse → chunk stack.

use proptest::prelude::*;

use thor_nlp::{noun_phrases, parse_dependencies, RuleTagger, Tagger};
use thor_text::tokenize;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The full stack never panics and produces structurally valid
    /// output for arbitrary unicode input.
    #[test]
    fn stack_handles_arbitrary_text(text in "\\PC{0,200}") {
        let tokens = tokenize(&text);
        let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        let tags = RuleTagger::default().tag(&words);
        prop_assert_eq!(tags.len(), words.len());
        let tree = parse_dependencies(&words, &tags);
        prop_assert!(tree.is_forest_rooted());
        let nps = noun_phrases(&words, &tags, &tree);
        for np in &nps {
            prop_assert!(np.start <= np.head && np.head < np.end);
            prop_assert!(np.end <= words.len());
            prop_assert!(!np.text.is_empty());
        }
    }

    /// NP spans never overlap (each token belongs to at most one NP).
    #[test]
    fn noun_phrases_disjoint(text in "[a-z ]{0,120}") {
        let tokens = tokenize(&text);
        let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        let tags = RuleTagger::default().tag(&words);
        let tree = parse_dependencies(&words, &tags);
        let nps = noun_phrases(&words, &tags, &tree);
        for w in nps.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }
}
