//! The text front end (tokenize → tag → parse → noun phrases) against
//! test-local copies of its allocating reference versions: one owned
//! `String` per token, a `to_lowercase()` per lookup, and a per-head
//! member vector with a join/split/join trim per phrase. The production
//! code borrows words from the sentence, lowercases short ASCII words on
//! the stack and walks head pointers; every output must stay identical.
//!
//! Inputs mix ASCII case, the Unicode lowercasing edge cases (`ΟΔΟΣ`'s
//! final sigma, `İ`, `ß`/`ẞ`, the titlecase `ǅ`, the Kelvin sign that
//! lowercases to ASCII `k`), non-ASCII punctuation, NBSP and
//! vertical-tab whitespace, punctuation-only chunks, words around the
//! lowercase buffer's 32-byte limit, and templated corpus sentences.

use proptest::prelude::*;

use thor_nlp::{
    chunk_sentence, noun_phrases, parse_dependencies, ChunkScratch, DepLabel, DepTree, Lexicon,
    NounPhrase, Pos, RuleTagger, Tagger,
};
use thor_text::{
    is_stopword, strip_stopwords, token_spans, tokenize, trim_stopwords, with_lowercase,
};

/// The allocating implementations the front end replaced, kept verbatim
/// except where they read private state (noted per function).
mod reference {
    use super::*;

    fn is_inner(c: char) -> bool {
        c.is_alphanumeric() || c == '-' || c == '\'' || c == '’' || c == '_'
    }

    /// `(text, start, end)` per token.
    pub fn tokenize(text: &str) -> Vec<(String, usize, usize)> {
        let mut tokens = Vec::new();
        let mut chunk_start = None::<usize>;

        let flush =
            |tokens: &mut Vec<(String, usize, usize)>, text: &str, start: usize, end: usize| {
                if start >= end {
                    return;
                }
                let chunk = &text[start..end];
                let mut core_start = start;
                for (i, c) in chunk.char_indices() {
                    if is_inner(c) {
                        core_start = start + i;
                        break;
                    }
                    tokens.push((c.to_string(), start + i, start + i + c.len_utf8()));
                    core_start = start + i + c.len_utf8();
                }
                if core_start >= end {
                    return;
                }
                let core_chunk = &text[core_start..end];
                let mut core_end = end;
                let mut trailing: Vec<(usize, char)> = Vec::new();
                for (i, c) in core_chunk
                    .char_indices()
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                {
                    if is_inner(c) {
                        core_end = core_start + i + c.len_utf8();
                        break;
                    }
                    trailing.push((core_start + i, c));
                    core_end = core_start + i;
                }
                if core_start < core_end {
                    tokens.push((text[core_start..core_end].to_string(), core_start, core_end));
                }
                for (pos, c) in trailing.into_iter().rev() {
                    tokens.push((c.to_string(), pos, pos + c.len_utf8()));
                }
            };

        for (i, c) in text.char_indices() {
            if c.is_whitespace() {
                if let Some(s) = chunk_start.take() {
                    flush(&mut tokens, text, s, i);
                }
            } else if chunk_start.is_none() {
                chunk_start = Some(i);
            }
        }
        if let Some(s) = chunk_start {
            flush(&mut tokens, text, s, text.len());
        }
        tokens
    }

    /// The stop-word set is private, so membership is asked of the
    /// production function with the key the reference built:
    /// `str::to_lowercase` output, which lowercasing leaves unchanged.
    pub fn is_stopword(word: &str) -> bool {
        super::is_stopword(&word.to_lowercase())
    }

    pub fn strip_stopwords(phrase: &str) -> String {
        let tokens: Vec<&str> = phrase.split_whitespace().collect();
        let is_strippable = |t: &str| is_stopword(t) || t.chars().all(|c| c.is_ascii_punctuation());
        let mut lo = 0usize;
        let mut hi = tokens.len();
        while lo < hi && is_strippable(tokens[lo]) {
            lo += 1;
        }
        while hi > lo && is_strippable(tokens[hi - 1]) {
            hi -= 1;
        }
        tokens[lo..hi].join(" ")
    }

    /// The entry table is private; as for stop-words, the production
    /// lookup is asked with the reference's `to_lowercase` key.
    pub fn lookup(lex: &Lexicon, word: &str) -> Option<Pos> {
        lex.lookup(&word.to_lowercase())
    }

    pub fn guess(word: &str, sentence_initial: bool) -> Pos {
        if word.chars().all(|c| c.is_ascii_punctuation()) && !word.is_empty() {
            return Pos::Punct;
        }
        if word.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return Pos::Num;
        }
        let lower = word.to_lowercase();
        if !sentence_initial && word.chars().next().is_some_and(char::is_uppercase) {
            return Pos::Propn;
        }
        const NUM_WORDS: &[&str] = &[
            "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
        ];
        if NUM_WORDS.contains(&lower.as_str()) {
            return Pos::Num;
        }
        if lower.len() > 3 && lower.ends_with("ly") {
            return Pos::Adv;
        }
        const ADJ_SUFFIXES: &[&str] = &[
            "ous", "ive", "able", "ible", "al", "ic", "ful", "less", "ant", "ent", "ary",
        ];
        if lower.len() > 4 && ADJ_SUFFIXES.iter().any(|s| lower.ends_with(s)) {
            return Pos::Adj;
        }
        if lower.contains('-')
            && (lower.ends_with("ing") || lower.ends_with("ed") || lower.starts_with("non-"))
        {
            return Pos::Adj;
        }
        if lower.len() > 4 && (lower.ends_with("izes") || lower.ends_with("ises")) {
            return Pos::Verb;
        }
        if lower.len() > 3 && (lower.ends_with("ing") || lower.ends_with("ed")) {
            return Pos::Verb;
        }
        Pos::Noun
    }

    pub fn tag_of(lex: &Lexicon, word: &str, sentence_initial: bool) -> Pos {
        lookup(lex, word).unwrap_or_else(|| guess(word, sentence_initial))
    }

    /// `RuleTagger::tag` over the English lexicon.
    pub fn rule_tag(lex: &Lexicon, words: &[&str]) -> Vec<Pos> {
        let mut tags: Vec<Pos> = words
            .iter()
            .enumerate()
            .map(|(i, w)| tag_of(lex, w, i == 0))
            .collect();
        for i in 0..tags.len() {
            if tags[i] == Pos::Noun
                && i + 1 < tags.len()
                && matches!(tags[i + 1], Pos::Det | Pos::Pron)
                && words[i].to_lowercase().ends_with('s')
            {
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

    #[allow(clippy::needless_range_loop)]
    pub fn noun_phrases(words: &[&str], tags: &[Pos], tree: &DepTree) -> Vec<NounPhrase> {
        let n = words.len();
        let mut phrases = Vec::new();
        let np_internal = |label: DepLabel| {
            matches!(
                label,
                DepLabel::Det | DepLabel::Amod | DepLabel::Nummod | DepLabel::Compound
            )
        };
        for head in 0..n {
            if !tags[head].is_nominal() || tree.labels[head] == DepLabel::Compound {
                continue;
            }
            let mut members = vec![head];
            let mut stack = vec![head];
            while let Some(h) = stack.pop() {
                for d in tree.dependents(h) {
                    if np_internal(tree.labels[d]) {
                        members.push(d);
                        stack.push(d);
                    }
                }
            }
            let start = *members.iter().min().expect("non-empty");
            let end = *members.iter().max().expect("non-empty") + 1;
            let text = strip_stopwords(&words[start..end].join(" "));
            if text.is_empty() {
                continue;
            }
            phrases.push(NounPhrase {
                text,
                head,
                start,
                end,
            });
        }
        phrases.sort_by_key(|p| p.start);
        phrases
    }

    pub fn chunk_sentence(lex: &Lexicon, words: &[&str]) -> Vec<NounPhrase> {
        let tags = rule_tag(lex, words);
        let tree = parse_dependencies(words, &tags);
        noun_phrases(words, &tags, &tree)
    }
}

/// Word-like fragments a generated text is glued from.
fn fragments() -> Vec<String> {
    let mut out: Vec<String> = [
        // mixed-case ASCII, closed-class words and corpus vocabulary
        "Tuberculosis",
        "tuberculosis",
        "THE",
        "The",
        "the",
        "a",
        "An",
        "of",
        "OF",
        "and",
        "It",
        "IT",
        "is",
        "may",
        "cause",
        "CAUSES",
        "Damages",
        "damages",
        "generally",
        "GENERALLY",
        "lungs",
        "LUNGS",
        "brain",
        "Tumor",
        "slow-growing",
        "Non-Cancerous",
        "Alzheimer's",
        "three",
        "Three",
        "12.5",
        "3,000",
        "x86",
        "severe",
        "deafness",
        "nervous",
        "System",
        // Unicode lowercasing edge cases
        "ΟΔΟΣ",
        "Οδός",
        "ΣΟΦΟΣ",
        "İ",
        "İstanbul",
        "ß",
        "STRAẞE",
        "Straße",
        "ǅ",
        "ǅemal",
        "\u{212A}",
        "\u{212A}NOWS",
        "\u{212A}nows",
        "THE\u{212A}",
        "café",
        "NAÏVE",
        // punctuation, ASCII and not; punctuation-only chunks
        ".",
        ",",
        "(",
        ")",
        "\"",
        "'",
        "-",
        "--",
        "...",
        "?!",
        "(lungs).",
        "end.)",
        "\"hello,\"",
        "—",
        "«",
        "»",
        "“lungs”",
        "¿Qué?",
        "…",
        "·",
        "‘",
        "’s",
        "¡",
        "§",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // Around the 32-byte stack buffer: all-lowercase, capitalized and
    // upper-case ASCII, plus a non-ASCII word of the same lengths.
    for len in [31, 32, 33, 40] {
        out.push("s".repeat(len));
        out.push(format!("S{}", "s".repeat(len - 1)));
        out.push("LY".repeat(len / 2 + 1)[..len].to_string());
        out.push(format!("Ä{}", "s".repeat(len - 2)));
    }
    out
}

/// Separators between fragments; the empty one glues two fragments
/// into one chunk.
const SEPARATORS: &[&str] = &[
    " ", " ", " ", "  ", "\t", "\n", "\u{a0}", "\u{0b}", "\u{2003}", "", " . ", ", ",
];

/// Text glued from `fragments()` and `SEPARATORS`.
fn glued_text() -> impl Strategy<Value = String> {
    let pool = fragments();
    let n = pool.len();
    prop::collection::vec((0..n, 0..SEPARATORS.len()), 0..40).prop_map(move |picks| {
        let mut text = String::new();
        for (f, s) in picks {
            text.push_str(&pool[f]);
            text.push_str(SEPARATORS[s]);
        }
        text
    })
}

/// Sentences in the corpus generator's templates, with case noise.
fn templated_sentence() -> impl Strategy<Value = String> {
    const SUBJECTS: &[&str] = &[
        "Tuberculosis",
        "Acoustic Neuroma",
        "ACNE",
        "It",
        "The disease",
    ];
    const VERBS: &[&str] = &[
        "damages",
        "may cause",
        "generally affects",
        "Causes",
        "leads to",
    ];
    const DETS: &[&str] = &["the", "a", "The", "several", "no"];
    const MODS: &[&str] = &[
        "slow-growing",
        "non-cancerous",
        "severe",
        "Nervous",
        "brain",
        "",
    ];
    const NOUNS: &[&str] = &[
        "lungs",
        "tumor",
        "system",
        "deafness",
        "skin cancer",
        "ΟΔΟΣ",
    ];
    (
        0..SUBJECTS.len(),
        0..VERBS.len(),
        0..DETS.len(),
        (0..MODS.len(), 0..NOUNS.len()),
        (0..DETS.len(), 0..MODS.len(), 0..NOUNS.len()),
    )
        .prop_map(|(s, v, d, (m, n), (d2, m2, n2))| {
            format!(
                "{} {} {} {} {}, and {} {} {}.",
                SUBJECTS[s], VERBS[v], DETS[d], MODS[m], NOUNS[n], DETS[d2], MODS[m2], NOUNS[n2]
            )
        })
}

/// Every front-end output for `text` equals the reference's.
fn assert_front_end_matches(text: &str, lex: &Lexicon, tagger: &RuleTagger) {
    let expected = reference::tokenize(text);
    let tokens: Vec<(String, usize, usize)> = tokenize(text)
        .into_iter()
        .map(|t| (t.text, t.start, t.end))
        .collect();
    assert_eq!(tokens, expected, "tokenize({text:?})");
    let spans: Vec<(usize, usize)> = token_spans(text).map(|r| (r.start, r.end)).collect();
    let expected_spans: Vec<(usize, usize)> = expected.iter().map(|t| (t.1, t.2)).collect();
    assert_eq!(spans, expected_spans, "token_spans({text:?})");

    let words: Vec<&str> = token_spans(text).map(|r| &text[r]).collect();
    for (i, w) in words.iter().enumerate() {
        with_lowercase(w, |lower| {
            assert_eq!(lower, w.to_lowercase(), "lowercase {w:?}")
        });
        assert_eq!(
            is_stopword(w),
            reference::is_stopword(w),
            "is_stopword({w:?})"
        );
        assert_eq!(lex.lookup(w), reference::lookup(lex, w), "lookup({w:?})");
        for initial in [true, false] {
            assert_eq!(
                lex.guess(w, initial),
                reference::guess(w, initial),
                "guess({w:?})"
            );
            assert_eq!(
                lex.tag_of(w, initial),
                reference::tag_of(lex, w, initial),
                "tag_of({w:?})"
            );
        }
        // Every run of words is a phrase to trim.
        for end in i + 1..=words.len().min(i + 6) {
            let phrase = words[i..end].join(" ");
            assert_eq!(
                trim_stopwords(&words[i..end]).join(" "),
                reference::strip_stopwords(&phrase),
                "trim_stopwords({phrase:?})"
            );
        }
    }
    assert_eq!(
        strip_stopwords(text),
        reference::strip_stopwords(text),
        "strip_stopwords({text:?})"
    );

    let tags = tagger.tag(&words);
    assert_eq!(tags, reference::rule_tag(lex, &words), "tag({words:?})");
    let tree = parse_dependencies(&words, &tags);
    assert_eq!(
        noun_phrases(&words, &tags, &tree),
        reference::noun_phrases(&words, &tags, &tree),
        "noun_phrases({words:?})"
    );
    assert_eq!(
        chunk_sentence(&words, tagger),
        reference::chunk_sentence(lex, &words),
        "chunk_sentence({words:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn glued_fragments_match_the_reference(text in glued_text()) {
        assert_front_end_matches(&text, &Lexicon::english(), &RuleTagger::default());
    }

    #[test]
    fn templated_sentences_match_the_reference(text in templated_sentence()) {
        assert_front_end_matches(&text, &Lexicon::english(), &RuleTagger::default());
    }

    #[test]
    fn arbitrary_text_matches_the_reference(text in "\\PC{0,200}") {
        assert_front_end_matches(&text, &Lexicon::english(), &RuleTagger::default());
    }
}

/// Every fragment, alone and at each sentence position, goes through
/// every lookup: the cases the generators pick only by chance.
#[test]
fn every_fragment_matches_the_reference() {
    let lex = Lexicon::english();
    let tagger = RuleTagger::default();
    for fragment in fragments() {
        assert_front_end_matches(&fragment, &lex, &tagger);
        assert_front_end_matches(&format!("Lungs {fragment} the brain"), &lex, &tagger);
    }
    for sep in SEPARATORS {
        assert_front_end_matches(&format!("The{sep}LUNGS{sep}.)"), &lex, &tagger);
    }
}

/// A hand-built tree whose NP-internal chain passes through a node of
/// another phrase: membership follows labels, not just head pointers.
#[test]
fn membership_follows_np_internal_labels_only() {
    let words = ["the", "old", "lungs", "of", "patients"];
    let tags = [Pos::Det, Pos::Adj, Pos::Noun, Pos::Adp, Pos::Noun];
    let tree = DepTree {
        heads: vec![Some(2), Some(2), None, Some(4), Some(2)],
        labels: vec![
            DepLabel::Det,
            DepLabel::Amod,
            DepLabel::Root,
            DepLabel::Case,
            DepLabel::Nmod,
        ],
    };
    let got = noun_phrases(&words, &tags, &tree);
    assert_eq!(got, reference::noun_phrases(&words, &tags, &tree));
    assert_eq!(got[0].text, "old lungs");
    assert_eq!((got[0].start, got[0].end), (0, 3));
}

/// Pieces of text that switch between ASCII and non-ASCII inside one
/// whitespace-delimited chunk, and the whitespace the tokenizer's ASCII
/// path must agree with `char::is_whitespace` on.
const MIXED_PIECES: &[&str] = &[
    "a",
    "b",
    "Lungs",
    "x",
    "12.5",
    "slow-growing",
    "é",
    "’s",
    "ß",
    "ΟΔΟΣ",
    "a\u{a0}b",
    "x’s",
    "(é).",
    "(",
    ")",
    ".",
    ",",
    "...",
    "?!",
    "—",
    "«",
    "…",
];

/// Separators between pieces: the empty one glues two pieces into one
/// chunk; the rest are ASCII and non-ASCII whitespace.
const MIXED_SEPARATORS: &[&str] = &[
    "", "", "", " ", "\t", "\n", "\r", "\u{0b}", "\u{0c}", "\u{85}", "\u{2028}", "\u{a0}",
    "\u{3000}",
];

/// Text glued from `MIXED_PIECES` and `MIXED_SEPARATORS`.
fn mixed_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0..MIXED_PIECES.len(), 0..MIXED_SEPARATORS.len()), 0..24).prop_map(
        |picks| {
            let mut text = String::new();
            for (p, s) in picks {
                text.push_str(MIXED_PIECES[p]);
                text.push_str(MIXED_SEPARATORS[s]);
            }
            text
        },
    )
}

/// A sentence for the reused-scratch test: every word-producing
/// strategy above, the empty sentence and punctuation-only ones.
fn any_sentence() -> impl Strategy<Value = String> {
    (0..6usize, glued_text(), templated_sentence(), mixed_text()).prop_map(
        |(kind, glued, templated, mixed)| match kind {
            0 => glued,
            1 => templated,
            2 => mixed,
            3 => String::new(),
            4 => ". , ( ) ... ?!".to_string(),
            _ => "— « » …".to_string(),
        },
    )
}

/// The words of `text`, borrowed.
fn words_of(text: &str) -> Vec<&str> {
    token_spans(text).map(|r| &text[r]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The tokenizer's byte-wise ASCII path hands a chunk to the `char`
    /// path at its first non-ASCII byte; either way the spans are the
    /// reference's.
    #[test]
    fn token_spans_match_the_reference_across_ascii_switches(text in mixed_text()) {
        let spans: Vec<(usize, usize)> = token_spans(&text).map(|r| (r.start, r.end)).collect();
        let expected: Vec<(usize, usize)> =
            reference::tokenize(&text).iter().map(|t| (t.1, t.2)).collect();
        prop_assert_eq!(spans, expected, "token_spans({:?})", text);
    }

    /// One `ChunkScratch` reused across a run of sentences — a long
    /// one, a short one, an empty one, a punctuation-only one, a
    /// templated one, then any — gives, sentence by sentence, what
    /// `chunk_sentence` and the reference give.
    #[test]
    fn a_reused_chunk_scratch_matches_chunk_sentence(
        long in (templated_sentence(), glued_text(), templated_sentence()),
        short in templated_sentence(),
        short_len in 1usize..4,
        templated in templated_sentence(),
        rest in prop::collection::vec(any_sentence(), 0..8),
    ) {
        let long = format!("{} {} {}", long.0, long.1, long.2);
        let short = words_of(&short)[..short_len].join(" ");
        let mut sentences = vec![long, short, String::new(), "( ... ) ?!".to_string(), templated];
        sentences.extend(rest);

        let lex = Lexicon::english();
        let tagger = RuleTagger::default();
        let mut scratch = ChunkScratch::new();
        for text in &sentences {
            let words = words_of(text);
            let got: Vec<NounPhrase> = scratch
                .chunk(&words, &tagger)
                .iter()
                .map(|p| p.to_noun_phrase(&words))
                .collect();
            prop_assert_eq!(&got, &chunk_sentence(&words, &tagger), "sentence {:?}", text);
            prop_assert_eq!(&got, &reference::chunk_sentence(&lex, &words), "sentence {:?}", text);
        }
    }
}
