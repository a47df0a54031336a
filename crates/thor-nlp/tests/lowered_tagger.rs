//! The tagger and chunker entry points that take each word's lowercase
//! form ([`RuleTagger::tag_lowered_into`], [`ChunkScratch::chunk_lowered`])
//! against the ones that lowercase it themselves ([`Tagger::tag_into`],
//! [`ChunkScratch::chunk`]). The lowercase forms come from a
//! [`WordWalk`], as the extraction pipeline takes them, and from
//! `str::to_lowercase` per word. Inputs mix ASCII case (`-s` words after
//! nominals, which the verb repair reads in lowercase), the Unicode
//! lowercasing edge cases (final `Σ`, `İ`, `ẞ`, `ǅ`, the Kelvin sign),
//! non-ASCII punctuation and whitespace, and words around the 32-byte
//! stack-lowercase limit.

use proptest::prelude::*;
use thor_nlp::{ChunkScratch, Lexicon, Pos, RuleTagger, Tagger};
use thor_text::{token_spans, WordWalk};

/// Words drawn into sentences: closed-class words in several cases,
/// `-s` nouns and verbs, and the lowercasing edge cases.
const WORDS: &[&str] = &[
    "the",
    "The",
    "THE",
    "a",
    "it",
    "It",
    "and",
    "of",
    "is",
    "Tuberculosis",
    "tuberculosis",
    "DAMAGES",
    "damages",
    "Grows",
    "lungs",
    "LUNGS",
    "slow-growing",
    "non-cancerous",
    "severe",
    "generally",
    "SYMPTOMS",
    "nausea",
    "12.5",
    "three",
    "ΟΔΟΣ",
    "ΣΟΦΟΣ",
    "İstanbul",
    "STRAẞE",
    "ǅemal",
    "\u{212A}NOWS",
    "THE\u{212A}",
    "café",
    "(lungs).",
    ",",
    "—",
    "«skin»",
    "’s",
    "\u{a0}",
    "\u{85}",
    "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSS",
    "Ässssssssssssssssssssssssssssss",
];

fn sentence() -> impl Strategy<Value = String> {
    prop::collection::vec(0..WORDS.len(), 0..24).prop_map(|picks| {
        picks
            .iter()
            .map(|&w| WORDS[w])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// Tags and phrases of `text` from each lowercase source equal those of
/// the self-lowercasing entry points; `scratch` is reused across calls.
fn assert_lowered_matches(text: &str, tagger: &RuleTagger, scratch: &mut ChunkScratch) {
    let words: Vec<&str> = token_spans(text).map(|r| &text[r]).collect();
    let mut walk = WordWalk::new();
    walk.start(text);
    let walked = walk.walk(text, 0..text.len());
    let walked_lower: Vec<&str> = walked.tokens.map(|t| walk.lower(t)).collect();
    let owned: Vec<String> = words.iter().map(|w| w.to_lowercase()).collect();
    let owned_lower: Vec<&str> = owned.iter().map(String::as_str).collect();
    assert_eq!(walked_lower, owned_lower, "lowercase forms of {text:?}");

    let expected_tags = tagger.tag(&words);
    let expected_phrases = scratch.chunk(&words, tagger).to_vec();
    let mut tags: Vec<Pos> = vec![Pos::X; 3];
    for lower in [&walked_lower, &owned_lower] {
        tagger.tag_lowered_into(&words, lower, &mut tags);
        assert_eq!(tags, expected_tags, "tags of {text:?}");
        assert_eq!(
            scratch.chunk_lowered(&words, lower, tagger),
            &expected_phrases[..],
            "phrases of {text:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn lowered_entry_points_equal_the_self_lowercasing_ones(
        sentences in prop::collection::vec(sentence(), 1..6),
    ) {
        let tagger = RuleTagger::default();
        let mut scratch = ChunkScratch::new();
        for text in &sentences {
            assert_lowered_matches(text, &tagger, &mut scratch);
        }
    }

    #[test]
    fn lowered_entry_points_equal_them_on_arbitrary_text(text in "\\PC{0,120}") {
        assert_lowered_matches(&text, &RuleTagger::default(), &mut ChunkScratch::new());
    }
}

/// The `-s` verb repair fires from the lowercase forms as it does from
/// the words: `DAMAGES` after a nominal and before a determiner.
#[test]
fn verb_repair_reads_the_lowercase_forms() {
    let words = ["Tuberculosis", "DAMAGES", "the", "lungs"];
    let lower = ["tuberculosis", "damages", "the", "lungs"];
    let lexicon = Lexicon::english();
    let tagger = RuleTagger::new(lexicon.clone());
    let mut tags = Vec::new();
    tagger.tag_lowered_into(&words, &lower, &mut tags);
    assert_eq!(tags, tagger.tag(&words));
    assert_eq!(tags[1], Pos::Verb);
    for (w, l) in words.iter().zip(lower) {
        assert_eq!(
            lexicon.tag_of_lowered(w, l, false),
            lexicon.tag_of(w, false)
        );
    }
}
