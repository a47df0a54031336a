//! Syntactic string-similarity measures from Algorithm 1 and its tests.
//!
//! THOR's syntactic refinement scores every candidate entity against its
//! best-matching seed instance with:
//!
//! * **word-level Jaccard** ([`jaccard_words`]) — intersection over union
//!   of the word sets (`e.score_w`);
//! * **character-level gestalt pattern matching**
//!   ([`gestalt_similarity`]) — the Ratcliff–Obershelp algorithm, the same
//!   measure as Python's `difflib.SequenceMatcher.ratio()` (`e.score_c`).
//!
//! [`levenshtein`] and [`ngram_similarity`] are additional measures used
//! by ablation benches and tests. All similarities return values in
//! `[0, 1]` (1 = identical).

use std::collections::{HashMap, HashSet};

use crate::kernels::longest_match_flat;

/// Word-level Jaccard similarity: |A ∩ B| / |A ∪ B| over the lowercase
/// word sets of the two phrases. Empty-vs-empty is defined as 1.0
/// (identical), empty-vs-nonempty as 0.0.
///
/// ```
/// use thor_text::jaccard_words;
/// assert_eq!(jaccard_words("brain tumor", "brain tumor"), 1.0);
/// assert_eq!(jaccard_words("brain tumor", "skin tumor"), 1.0 / 3.0);
/// ```
pub fn jaccard_words(a: &str, b: &str) -> f64 {
    let set_a: HashSet<String> = a.split_whitespace().map(str::to_lowercase).collect();
    let set_b: HashSet<String> = b.split_whitespace().map(str::to_lowercase).collect();
    if set_a.is_empty() && set_b.is_empty() {
        return 1.0;
    }
    if set_a.is_empty() || set_b.is_empty() {
        return 0.0;
    }
    let inter = set_a.intersection(&set_b).count();
    let union = set_a.len() + set_b.len() - inter;
    inter as f64 / union as f64
}

/// Length of the longest common contiguous block between `a[alo..ahi]`
/// and `b[blo..bhi]`, returned as (start_a, start_b, len). Ties are
/// broken toward the earliest position in `a`, then `b` (as in
/// Ratcliff–Obershelp / difflib without junk handling).
///
/// The DP rows are two flat, reusable buffers threaded down from
/// [`gestalt_similarity`] — [`crate::kernels::longest_match_flat`]
/// replaces the `HashMap<usize, usize>` rows the difflib reference
/// builds per iteration (a missing map entry is a zeroed slot; the
/// `longest_match_flat_equals_difflib_reference` proptest pins the
/// equivalence on random unicode).
#[allow(clippy::too_many_arguments)] // (a, b) ranges plus the two DP rows
fn longest_match(
    a: &[char],
    b: &[char],
    alo: usize,
    ahi: usize,
    blo: usize,
    bhi: usize,
    prev: &mut Vec<usize>,
    curr: &mut Vec<usize>,
) -> (usize, usize, usize) {
    longest_match_flat(prev, curr, a, b, alo, ahi, blo, bhi)
}

#[allow(clippy::too_many_arguments)] // mirrors the difflib recursion plus the two DP rows
fn matching_chars(
    a: &[char],
    b: &[char],
    alo: usize,
    ahi: usize,
    blo: usize,
    bhi: usize,
    prev: &mut Vec<usize>,
    curr: &mut Vec<usize>,
) -> usize {
    let (i, j, k) = longest_match(a, b, alo, ahi, blo, bhi, prev, curr);
    if k == 0 {
        return 0;
    }
    k + matching_chars(a, b, alo, i, blo, j, prev, curr)
        + matching_chars(a, b, i + k, ahi, j + k, bhi, prev, curr)
}

/// Gestalt pattern matching (Ratcliff–Obershelp) similarity:
/// `2 * M / (|a| + |b|)` where `M` is the total number of characters in
/// recursively found longest common blocks. Case-sensitive; callers
/// normalize first. Equivalent to Python `difflib.SequenceMatcher(None,
/// a, b).ratio()`.
///
/// ```
/// use thor_text::gestalt_similarity;
/// assert_eq!(gestalt_similarity("abc", "abc"), 1.0);
/// assert!(gestalt_similarity("brain", "brian") > 0.7);
/// assert_eq!(gestalt_similarity("", ""), 1.0);
/// ```
pub fn gestalt_similarity(a: &str, b: &str) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let ca: Vec<char> = a.chars().collect();
    let cb: Vec<char> = b.chars().collect();
    let total = ca.len() + cb.len();
    if total == 0 {
        return 1.0;
    }
    let (mut prev, mut curr) = (Vec::new(), Vec::new());
    let m = matching_chars(&ca, &cb, 0, ca.len(), 0, cb.len(), &mut prev, &mut curr);
    2.0 * m as f64 / total as f64
}

/// Levenshtein edit distance (unit costs) between `a` and `b`, over
/// Unicode scalar values.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let ca: Vec<char> = a.chars().collect();
    let cb: Vec<char> = b.chars().collect();
    if ca.is_empty() {
        return cb.len();
    }
    if cb.is_empty() {
        return ca.len();
    }
    let mut prev: Vec<usize> = (0..=cb.len()).collect();
    let mut curr = vec![0usize; cb.len() + 1];
    for (i, &ac) in ca.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &bc) in cb.iter().enumerate() {
            let cost = usize::from(ac != bc);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[cb.len()]
}

/// Character n-gram (Dice-coefficient) similarity over multiset n-grams.
/// Strings shorter than `n` are compared as whole strings.
pub fn ngram_similarity(a: &str, b: &str, n: usize) -> f64 {
    assert!(n > 0, "n-gram size must be positive");
    let grams = |s: &str| -> HashMap<String, usize> {
        let chars: Vec<char> = s.chars().collect();
        let mut m = HashMap::new();
        if chars.len() < n {
            if !chars.is_empty() {
                *m.entry(s.to_string()).or_insert(0) += 1;
            }
            return m;
        }
        for w in chars.windows(n) {
            *m.entry(w.iter().collect::<String>()).or_insert(0) += 1;
        }
        m
    };
    let ga = grams(a);
    let gb = grams(b);
    let na: usize = ga.values().sum();
    let nb: usize = gb.values().sum();
    if na == 0 && nb == 0 {
        return 1.0;
    }
    if na == 0 || nb == 0 {
        return 0.0;
    }
    let overlap: usize = ga
        .iter()
        .map(|(g, &c)| c.min(gb.get(g).copied().unwrap_or(0)))
        .sum();
    2.0 * overlap as f64 / (na + nb) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original difflib-style DP with per-row `HashMap`s, retained
    /// verbatim as the ground truth the flat-buffer DP is checked
    /// against.
    #[allow(clippy::needless_range_loop)] // kept verbatim as the reference
    fn longest_match_difflib(
        a: &[char],
        b: &[char],
        alo: usize,
        ahi: usize,
        blo: usize,
        bhi: usize,
    ) -> (usize, usize, usize) {
        let mut best = (alo, blo, 0usize);
        let mut j2len: HashMap<usize, usize> = HashMap::new();
        for i in alo..ahi {
            let mut new_j2len: HashMap<usize, usize> = HashMap::new();
            for j in blo..bhi {
                if a[i] == b[j] {
                    let k = j
                        .checked_sub(1)
                        .and_then(|p| j2len.get(&p))
                        .copied()
                        .unwrap_or(0)
                        + 1;
                    new_j2len.insert(j, k);
                    if k > best.2 {
                        best = (i + 1 - k, j + 1 - k, k);
                    }
                }
            }
            j2len = new_j2len;
        }
        best
    }

    #[test]
    fn jaccard_identical() {
        assert_eq!(jaccard_words("nervous system", "nervous system"), 1.0);
        assert_eq!(jaccard_words("Nervous System", "nervous system"), 1.0);
    }

    #[test]
    fn jaccard_disjoint() {
        assert_eq!(jaccard_words("brain", "lungs"), 0.0);
    }

    #[test]
    fn jaccard_partial() {
        // {non-cancerous, brain, tumor} vs {skin, cancer}: no overlap.
        assert_eq!(
            jaccard_words("non-cancerous brain tumor", "skin cancer"),
            0.0
        );
        // {blood, clot} vs {blood}: 1/2.
        assert_eq!(jaccard_words("blood clot", "blood"), 0.5);
    }

    #[test]
    fn gestalt_matches_difflib_reference() {
        // Values verified against Python difflib.SequenceMatcher.ratio().
        let close = |x: f64, y: f64| (x - y).abs() < 1e-12;
        assert!(close(gestalt_similarity("abcd", "bcde"), 0.75));
        assert!(close(gestalt_similarity("apple", "aple"), 8.0 / 9.0));
        assert!(close(gestalt_similarity("gestalt", "pattern"), 2.0 / 14.0));
        assert!(close(gestalt_similarity("brain", "brian"), 0.8));
    }

    #[test]
    fn gestalt_empty() {
        assert_eq!(gestalt_similarity("", ""), 1.0);
        assert_eq!(gestalt_similarity("a", ""), 0.0);
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("out", "out"), 0);
        assert_eq!(levenshtein("uot", "out"), 2);
        assert_eq!(levenshtein("tableau", "table"), 2);
    }

    #[test]
    fn ngram_basics() {
        assert_eq!(ngram_similarity("abc", "abc", 2), 1.0);
        assert_eq!(ngram_similarity("abc", "xyz", 2), 0.0);
        assert!(ngram_similarity("night", "nacht", 2) > 0.0);
    }

    proptest! {
        #[test]
        fn jaccard_in_unit_interval(a in "[a-z ]{0,30}", b in "[a-z ]{0,30}") {
            let s = jaccard_words(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn jaccard_symmetric(a in "[a-z ]{0,30}", b in "[a-z ]{0,30}") {
            prop_assert_eq!(jaccard_words(&a, &b), jaccard_words(&b, &a));
        }

        #[test]
        fn jaccard_reflexive(a in "[a-z ]{0,30}") {
            prop_assert_eq!(jaccard_words(&a, &a), 1.0);
        }

        #[test]
        fn gestalt_in_unit_interval(a in "\\PC{0,20}", b in "\\PC{0,20}") {
            let s = gestalt_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn gestalt_reflexive(a in "\\PC{0,20}") {
            prop_assert!((gestalt_similarity(&a, &a) - 1.0).abs() < 1e-12);
        }

        #[test]
        fn levenshtein_triangle(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        #[test]
        fn levenshtein_symmetric(a in "\\PC{0,12}", b in "\\PC{0,12}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn levenshtein_identity(a in "\\PC{0,12}", b in "\\PC{0,12}") {
            prop_assert_eq!(levenshtein(&a, &b) == 0, a == b);
        }

        #[test]
        fn ngram_in_unit_interval(a in "[a-z]{0,15}", b in "[a-z]{0,15}", n in 1usize..4) {
            let s = ngram_similarity(&a, &b, n);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn gestalt_never_exceeds_one_even_with_repeats(a in "[ab]{0,14}", b in "[ab]{0,14}") {
            // Repeated characters stress the recursive block matching.
            let s = gestalt_similarity(&a, &b);
            prop_assert!(s <= 1.0 + 1e-12);
        }

        #[test]
        fn longest_match_flat_equals_difflib_reference(
            a in "\\PC{0,18}", b in "\\PC{0,18}",
            sub_lo in 0usize..4, sub_hi in 0usize..4,
        ) {
            let ca: Vec<char> = a.chars().collect();
            let cb: Vec<char> = b.chars().collect();
            // Full ranges plus interior sub-ranges (the recursion's shape).
            let alo = sub_lo.min(ca.len());
            let ahi = ca.len().saturating_sub(sub_hi).max(alo);
            let blo = sub_hi.min(cb.len());
            let bhi = cb.len().saturating_sub(sub_lo).max(blo);
            let (mut prev, mut curr) = (Vec::new(), Vec::new());
            for (al, ah, bl, bh) in [(0, ca.len(), 0, cb.len()), (alo, ahi, blo, bhi)] {
                prop_assert_eq!(
                    longest_match(&ca, &cb, al, ah, bl, bh, &mut prev, &mut curr),
                    longest_match_difflib(&ca, &cb, al, ah, bl, bh)
                );
            }
        }
    }
}
