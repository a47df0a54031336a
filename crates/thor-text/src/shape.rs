//! Word-shape features.
//!
//! The averaged-perceptron sequence tagger (`thor-baselines`) mirrors the
//! orthographic feature templates classic NER systems use. A *shape* maps
//! each character class to a symbol and collapses runs: `Acoustic` →
//! `Xx`, `COVID-19` → `X-d`, `12.5mg` → `d.dx`.

/// Compute the collapsed word shape of `word`.
///
/// Character classes: uppercase → `X`, lowercase → `x`, digit → `d`,
/// everything else passes through. Consecutive identical symbols are
/// collapsed to one.
///
/// ```
/// use thor_text::shape::word_shape;
/// assert_eq!(word_shape("Acoustic"), "Xx");
/// assert_eq!(word_shape("COVID-19"), "X-d");
/// assert_eq!(word_shape("mg"), "x");
/// ```
pub fn word_shape(word: &str) -> String {
    let mut out = String::new();
    let mut last: Option<char> = None;
    for c in word.chars() {
        let sym = if c.is_uppercase() {
            'X'
        } else if c.is_lowercase() {
            'x'
        } else if c.is_ascii_digit() {
            'd'
        } else {
            c
        };
        if last != Some(sym) {
            out.push(sym);
            last = Some(sym);
        }
    }
    out
}

/// Prefix of up to `n` characters (for suffix/prefix feature templates).
pub fn prefix(word: &str, n: usize) -> &str {
    match word.char_indices().nth(n) {
        Some((i, _)) => &word[..i],
        None => word,
    }
}

/// Suffix of up to `n` characters.
pub fn suffix(word: &str, n: usize) -> &str {
    let len = word.chars().count();
    if len <= n {
        return word;
    }
    let skip = len - n;
    match word.char_indices().nth(skip) {
        Some((i, _)) => &word[i..],
        None => word,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        assert_eq!(word_shape("Acoustic"), "Xx");
        assert_eq!(word_shape("neuroma"), "x");
        assert_eq!(word_shape("COVID-19"), "X-d");
        assert_eq!(word_shape("12.5"), "d.d");
        assert_eq!(word_shape(""), "");
        assert_eq!(word_shape("McDonald"), "XxXx");
    }

    #[test]
    fn prefixes_suffixes() {
        assert_eq!(prefix("neuroma", 3), "neu");
        assert_eq!(suffix("neuroma", 3), "oma");
        assert_eq!(prefix("ab", 3), "ab");
        assert_eq!(suffix("ab", 3), "ab");
        // Multibyte safety.
        assert_eq!(prefix("café", 3), "caf");
        assert_eq!(suffix("café", 2), "fé");
    }
}
