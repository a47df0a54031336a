//! Word tokenization with byte-offset spans.
//!
//! The tokenizer is deliberately simple and deterministic: THOR's entity
//! spans are reported as character ranges of the original document, so
//! every token must remember exactly where it came from. We segment on
//! Unicode whitespace and split leading/trailing ASCII punctuation into
//! separate tokens, keeping intra-word hyphens and apostrophes attached
//! (`slow-growing`, `Alzheimer's`) because the paper's noun phrases rely
//! on them.

use std::ops::Range;

use crate::normalize::is_outer_punctuation;

/// A single token with its byte span in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text, exactly as it appears in the source.
    pub text: String,
    /// Byte offset of the first byte of the token in the source.
    pub start: usize,
    /// Byte offset one past the last byte of the token in the source.
    pub end: usize,
}

impl Token {
    /// Construct a token from a slice of the source text.
    pub fn new(text: impl Into<String>, start: usize, end: usize) -> Self {
        Self {
            text: text.into(),
            start,
            end,
        }
    }

    /// True if every character is ASCII punctuation.
    pub fn is_punctuation(&self) -> bool {
        !self.text.is_empty() && self.text.chars().all(|c| c.is_ascii_punctuation())
    }
}

/// Characters that may stay inside a word (not split off).
fn is_inner(c: char) -> bool {
    c.is_alphanumeric() || c == '-' || c == '\'' || c == '’' || c == '_'
}

/// [`is_inner`] for an ASCII byte.
fn is_inner_ascii(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'\'' | b'_')
}

/// `char::is_whitespace` for an ASCII byte: space and `\t` through
/// `\r`, so unlike `u8::is_ascii_whitespace` it includes the vertical
/// tab `\x0B`.
fn is_space_ascii(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// The byte ranges of the tokens of `text`, in source order — the one
/// tokenizer core. [`tokenize`] builds owned [`Token`]s from it; a caller
/// that only needs the words slices `&text[range]` and allocates nothing
/// per token.
///
/// ASCII text is scanned byte by byte; a chunk is re-read by `char`
/// from its first byte on as soon as a non-ASCII byte shows up in it
/// or in the whitespace before it, so the split is the same either way.
///
/// ```
/// use thor_text::token_spans;
/// let text = "(lungs).";
/// let words: Vec<&str> = token_spans(text).map(|r| &text[r]).collect();
/// assert_eq!(words, ["(", "lungs", ")", "."]);
/// ```
pub fn token_spans(text: &str) -> TokenSpans<'_> {
    TokenSpans {
        text,
        pos: 0,
        chunk_end: 0,
        core_start: 0,
        core_end: 0,
        kept_start: 0,
        kept_end: 0,
        ascii: true,
    }
}

/// Iterator returned by [`token_spans`].
#[derive(Debug, Clone)]
pub struct TokenSpans<'a> {
    text: &'a str,
    /// Start of the next token; equals `chunk_end` between chunks.
    pos: usize,
    /// End of the whitespace-delimited chunk being split.
    chunk_end: usize,
    /// The chunk's core, from its first inner character to past its
    /// last; empty when the chunk has no inner character.
    core_start: usize,
    core_end: usize,
    /// The chunk as the phrase normalizer keeps it, outer punctuation
    /// trimmed; empty when nothing is left. Not the core: `_` and
    /// control characters are inner to one and not to the other.
    kept_start: usize,
    kept_end: usize,
    /// Whether the chunk was read byte by byte, so is all ASCII.
    ascii: bool,
}

impl TokenSpans<'_> {
    /// Move to the next whitespace-delimited chunk and locate its core
    /// and its kept part; false when the text is exhausted. Reads bytes
    /// while they are ASCII and hands the rest of the chunk to
    /// [`Self::next_chunk_chars`] at the first byte that is not.
    fn next_chunk(&mut self) -> bool {
        let bytes = self.text.as_bytes();
        let mut at = self.pos;
        while at < bytes.len() && is_space_ascii(bytes[at]) {
            at += 1;
        }
        // Everything before `at` is ASCII, so `at` is a char boundary.
        self.pos = at;
        let mut core = None::<(usize, usize)>;
        let mut kept = None::<(usize, usize)>;
        while at < bytes.len() {
            let b = bytes[at];
            if !b.is_ascii() {
                return self.next_chunk_chars();
            }
            if is_space_ascii(b) {
                break;
            }
            if is_inner_ascii(b) {
                core = Some((core.map_or(at, |(first, _)| first), at + 1));
            }
            if !is_outer_punctuation(b as char) {
                kept = Some((kept.map_or(at, |(first, _)| first), at + 1));
            }
            at += 1;
        }
        self.chunk_end = at;
        if at == self.pos {
            return false;
        }
        (self.core_start, self.core_end) = core.unwrap_or((at, at));
        (self.kept_start, self.kept_end) = kept.unwrap_or((at, at));
        self.ascii = true;
        true
    }

    /// [`Self::next_chunk`] by `char`, from `pos` on: exact for any text.
    fn next_chunk_chars(&mut self) -> bool {
        let rest = &self.text[self.pos..];
        let Some(skip) = rest.find(|c: char| !c.is_whitespace()) else {
            self.pos = self.text.len();
            self.chunk_end = self.pos;
            return false;
        };
        let chunk = &rest[skip..];
        let chunk = &chunk[..chunk.find(char::is_whitespace).unwrap_or(chunk.len())];
        self.pos += skip;
        self.chunk_end = self.pos + chunk.len();
        (self.core_start, self.core_end) = match chunk.char_indices().find(|&(_, c)| is_inner(c)) {
            Some((first, _)) => {
                let (last, c) = chunk
                    .char_indices()
                    .rev()
                    .find(|&(_, c)| is_inner(c))
                    .expect("the chunk has an inner character");
                (self.pos + first, self.pos + last + c.len_utf8())
            }
            None => (self.chunk_end, self.chunk_end),
        };
        let lead = chunk.len() - chunk.trim_start_matches(is_outer_punctuation).len();
        (self.kept_start, self.kept_end) = if lead == chunk.len() {
            (self.chunk_end, self.chunk_end)
        } else {
            let kept = chunk.trim_end_matches(is_outer_punctuation).len();
            (self.pos + lead, self.pos + kept)
        };
        self.ascii = false;
        true
    }

    /// The next token of the current chunk, which has one left.
    fn next_token(&mut self) -> Range<usize> {
        let start = self.pos;
        self.pos = if start == self.core_start && self.core_start < self.core_end {
            self.core_end
        } else if self.text.as_bytes()[start].is_ascii() {
            start + 1
        } else {
            let c = self.text[start..].chars().next().expect("inside a chunk");
            start + c.len_utf8()
        };
        start..self.pos
    }
}

impl Iterator for TokenSpans<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if self.pos == self.chunk_end && !self.next_chunk() {
            return None;
        }
        Some(self.next_token())
    }
}

/// One sentence read once: the buffers of a word walk, reused across
/// the sentences of a text and across texts.
///
/// [`WordWalk::walk`] makes one [`token_spans`] pass over a range of
/// the text and records, per whitespace-delimited chunk, its tokens —
/// each with its lowercase form, the `str::to_lowercase` of its text —
/// and the word [`normalize_phrase`](crate::normalize_phrase) makes of
/// the chunk, if any; joined by single spaces, a range's words are
/// `normalize_phrase` of its text. So whoever probes a sentence's
/// normalized words and whoever tags its tokens read the same walk.
///
/// [`WordWalk::start`] lowercases the text's ASCII letters into the
/// walk's buffer in place, so the lowercase form of an ASCII token or
/// word is the slice of that buffer at its own range. A non-ASCII token
/// or word is lowercased by `str::to_lowercase` on its own and
/// appended: lowercasing a longer stretch would not be the same, as a
/// word-final `Σ` becomes `ς` only at the end of a word.
///
/// ```
/// use thor_text::WordWalk;
/// let text = "The Nervous SYSTEM (CNS).";
/// let mut walk = WordWalk::new();
/// walk.start(text);
/// let walked = walk.walk(text, 0..text.len());
/// let tokens: Vec<&str> = walked.tokens.clone().map(|t| &text[walk.span(t)]).collect();
/// let lower: Vec<&str> = walked.tokens.clone().map(|t| walk.lower(t)).collect();
/// let words: Vec<&str> = walked.words.map(|w| walk.word(w)).collect();
/// assert_eq!(tokens, ["The", "Nervous", "SYSTEM", "(", "CNS", ")", "."]);
/// assert_eq!(lower, ["the", "nervous", "system", "(", "cns", ")", "."]);
/// assert_eq!(words, ["the", "nervous", "system", "cns"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WordWalk {
    /// The started text with its ASCII letters lowercased, byte for
    /// byte, then the lowercase forms of the non-ASCII slices walked.
    lower: String,
    /// Length of the started text.
    text_len: usize,
    /// Per token: its range in the text, its lowercase form's in `lower`.
    tokens: Vec<(Range<usize>, Range<usize>)>,
    /// Per normalized word: its range in `lower`.
    words: Vec<Range<usize>>,
}

/// What one [`WordWalk::walk`] recorded: the indices of its tokens and
/// of its normalized words in the walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Walked {
    /// Token indices, for [`WordWalk::span`] and [`WordWalk::lower`].
    pub tokens: Range<usize>,
    /// Normalized-word indices, for [`WordWalk::word`].
    pub words: Range<usize>,
}

impl WordWalk {
    /// Empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take `text` as the text to walk, forgetting everything walked
    /// before: its ASCII letters are lowercased into the buffer.
    pub fn start(&mut self, text: &str) {
        self.lower.clear();
        self.lower.push_str(text);
        self.lower.make_ascii_lowercase();
        self.text_len = text.len();
        self.tokens.clear();
        self.words.clear();
    }

    /// Walk `text[range]`, where `text` is the text last passed to
    /// [`WordWalk::start`]: record its tokens, as [`token_spans`] splits
    /// them but with ranges in `text`, their lowercase forms, and its
    /// normalized words. Returns where they went.
    pub fn walk(&mut self, text: &str, range: Range<usize>) -> Walked {
        assert_eq!(text.len(), self.text_len, "walk the started text");
        let (tokens, words) = (self.tokens.len(), self.words.len());
        let base = range.start;
        let mut spans = token_spans(&text[range]);
        while spans.next_chunk() {
            if spans.kept_start < spans.kept_end {
                let kept = base + spans.kept_start..base + spans.kept_end;
                let lower = self.lowered(text, kept, spans.ascii);
                self.words.push(lower);
            }
            while spans.pos < spans.chunk_end {
                let token = spans.next_token();
                let token = base + token.start..base + token.end;
                let lower = self.lowered(text, token.clone(), spans.ascii);
                self.tokens.push((token, lower));
            }
        }
        Walked {
            tokens: tokens..self.tokens.len(),
            words: words..self.words.len(),
        }
    }

    /// Where the lowercase form of `text[range]` is in the buffer: the
    /// range itself when the slice is ASCII (`ascii` says the whole
    /// chunk is), else its `str::to_lowercase`, appended.
    fn lowered(&mut self, text: &str, range: Range<usize>, ascii: bool) -> Range<usize> {
        let slice = &text[range.clone()];
        if ascii || slice.is_ascii() {
            return range;
        }
        let at = self.lower.len();
        self.lower.push_str(&slice.to_lowercase());
        at..self.lower.len()
    }

    /// The range of token `token` in the walked text.
    pub fn span(&self, token: usize) -> Range<usize> {
        self.tokens[token].0.clone()
    }

    /// The lowercase form of token `token`.
    pub fn lower(&self, token: usize) -> &str {
        &self.lower[self.tokens[token].1.clone()]
    }

    /// Normalized word `word`: a chunk with its outer punctuation
    /// trimmed, lowercased.
    pub fn word(&self, word: usize) -> &str {
        &self.lower[self.words[word].clone()]
    }
}

/// Tokenize `text` into [`Token`]s with byte spans.
///
/// Splitting rules:
/// * whitespace always separates tokens;
/// * runs of punctuation at the start or end of a whitespace-delimited
///   chunk become their own single-character tokens (so `"(lungs)."`
///   yields `(`, `lungs`, `)`, `.`);
/// * hyphens and apostrophes *inside* a word are kept (`non-cancerous`).
///
/// ```
/// use thor_text::tokenize;
/// let toks = tokenize("Tuberculosis damages the lungs.");
/// let words: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
/// assert_eq!(words, ["Tuberculosis", "damages", "the", "lungs", "."]);
/// ```
pub fn tokenize(text: &str) -> Vec<Token> {
    token_spans(text)
        .map(|r| Token::new(&text[r.clone()], r.start, r.end))
        .collect()
}

/// Tokenize and keep only word-like tokens (drops pure punctuation).
pub fn tokenize_words(text: &str) -> Vec<Token> {
    tokenize(text)
        .into_iter()
        .filter(|t| !t.is_punctuation())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(text: &str) -> Vec<String> {
        tokenize(text).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n").is_empty());
    }

    #[test]
    fn simple_sentence() {
        assert_eq!(
            words("the quick brown fox"),
            ["the", "quick", "brown", "fox"]
        );
    }

    #[test]
    fn punctuation_split_off() {
        assert_eq!(words("lungs."), ["lungs", "."]);
        assert_eq!(words("(lungs)."), ["(", "lungs", ")", "."]);
        assert_eq!(
            words("\"hello,\" she said"),
            ["\"", "hello", ",", "\"", "she", "said"]
        );
    }

    #[test]
    fn hyphen_and_apostrophe_kept() {
        assert_eq!(
            words("slow-growing non-cancerous tumor"),
            ["slow-growing", "non-cancerous", "tumor"]
        );
        assert_eq!(words("Alzheimer's disease"), ["Alzheimer's", "disease"]);
    }

    #[test]
    fn pure_punct_chunk() {
        // Hyphens are inner characters, so a run of them stays together.
        assert_eq!(words("--"), ["--"]);
        assert_eq!(words("..."), [".", ".", "."]);
    }

    #[test]
    fn spans_round_trip() {
        let text = "Acoustic neuroma (vestibular schwannoma), a tumor.";
        for t in tokenize(text) {
            assert_eq!(&text[t.start..t.end], t.text, "span mismatch for {t:?}");
        }
    }

    #[test]
    fn unicode_text() {
        let text = "café médecine — naïve";
        let toks = tokenize(text);
        for t in &toks {
            assert_eq!(&text[t.start..t.end], t.text);
        }
        let w: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(w.contains(&"café"));
        assert!(w.contains(&"naïve"));
    }

    #[test]
    fn tokenize_words_drops_punct() {
        let w: Vec<String> = tokenize_words("lungs, heart.")
            .into_iter()
            .map(|t| t.text)
            .collect();
        assert_eq!(w, ["lungs", "heart"]);
    }

    #[test]
    fn leading_trailing_order_preserved() {
        // Trailing punctuation must be emitted in source order.
        let toks = tokenize("end.)");
        let w: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(w, ["end", ".", ")"]);
        let positions: Vec<usize> = toks.iter().map(|t| t.start).collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted);
    }
}
