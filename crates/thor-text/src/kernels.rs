//! Allocation-free fast paths for the refinement similarities of
//! Algorithm 1.
//!
//! The serve-path hot loop scores every `(phrase, matched seed)` pair
//! with [`jaccard_words`](crate::jaccard_words) and
//! [`gestalt_similarity`](crate::gestalt_similarity). The reference
//! implementations in [`similarity`](crate::similarity) allocate two
//! `HashSet<String>`s per Jaccard call and per-row `HashMap`s inside the
//! Ratcliff–Obershelp DP — fine as documented ground truth, ruinous once
//! every candidate of every noun phrase of every document pays for them.
//!
//! This module provides the same scores, **bit-identical**, without the
//! allocations:
//!
//! * [`PhraseSyntax`] — the per-phrase precomputation (sorted distinct
//!   lowercase words + raw `char` array). For seed instances it is kept
//!   in a [`SeedSyntax`] table, computed on a seed's first lookup, so
//!   the seed side of every similarity costs a hash lookup instead of a
//!   re-tokenization.
//! * [`ScoreScratch`] — reusable per-worker buffers (lowercase fold,
//!   word spans, query chars, two flat DP rows, an explicit block
//!   stack). After warm-up, [`jaccard_prepared`] and
//!   [`gestalt_prepared`] perform no heap allocation at all.
//! * a flat two-row longest-common-block DP shared with
//!   [`similarity`](crate::similarity) (which keeps the recursive shape
//!   but no longer builds `HashMap` rows).
//!
//! Bit-equality with the reference functions is load-bearing — the
//! pipeline refines only through these kernels, and its winners must
//! equal the reference oracle's bit for bit — and is enforced by the
//! property tests at the bottom of this file. The one subtle case is
//! Unicode lowercasing: `str::to_lowercase` maps a word-final `'Σ'` to
//! `'ς'` while the char-wise mapping always yields `'σ'`, so words
//! containing `'Σ'` take a cold path through `str::to_lowercase`.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Reusable scratch buffers for the refinement kernels. One per worker
/// thread; after the first few calls the buffers stop growing and the
/// kernels run allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    /// Concatenated lowercase words of the query phrase.
    lower: String,
    /// Byte spans of the (sorted, deduplicated) words within `lower`.
    spans: Vec<(usize, usize)>,
    /// The query phrase's raw characters.
    chars: Vec<char>,
    /// Previous DP row of the longest-common-block search.
    prev: Vec<usize>,
    /// Current DP row of the longest-common-block search.
    curr: Vec<usize>,
    /// Row slots written in `prev`, for sparse re-zeroing.
    touched_prev: Vec<u32>,
    /// Row slots written in `curr`, for sparse re-zeroing.
    touched_curr: Vec<u32>,
    /// Explicit recursion stack of `(alo, ahi, blo, bhi)` block ranges.
    stack: Vec<(usize, usize, usize, usize)>,
}

impl ScoreScratch {
    /// Fresh, empty scratch. Buffers grow on demand and are retained
    /// across calls.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The syntactic precomputation of one phrase: its distinct lowercase
/// words (sorted, for linear-merge intersection) and its raw character
/// sequence (case-sensitive, exactly what
/// [`gestalt_similarity`](crate::gestalt_similarity) compares).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhraseSyntax {
    /// Distinct lowercase words, sorted ascending by byte order.
    words: Vec<String>,
    /// The phrase's characters, case preserved.
    chars: Vec<char>,
    /// CSR char→positions index over `chars` (difflib's `b2j`): the
    /// distinct characters, sorted.
    keys: Vec<char>,
    /// `keys[k]`'s positions live at `positions[offsets[k]..offsets[k+1]]`.
    offsets: Vec<u32>,
    /// Ascending positions in `chars`, grouped by character.
    positions: Vec<u32>,
}

impl PhraseSyntax {
    /// Precompute the syntax of `phrase`. Lowercasing matches
    /// `str::to_lowercase` exactly (including the word-final `'Σ'`
    /// special case), so scores against this syntax are bit-identical
    /// to the reference similarities over the raw strings.
    pub fn new(phrase: &str) -> Self {
        let mut lower = String::new();
        let mut spans = Vec::new();
        collect_words(&mut lower, &mut spans, phrase);
        let chars: Vec<char> = phrase.chars().collect();
        let mut pairs: Vec<(char, u32)> = chars.iter().copied().zip(0..).collect();
        pairs.sort_unstable();
        let mut keys = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut positions = Vec::with_capacity(pairs.len());
        for (c, idx) in pairs {
            if keys.last() != Some(&c) {
                keys.push(c);
                offsets.push(positions.len() as u32);
            }
            positions.push(idx);
        }
        offsets.push(positions.len() as u32);
        Self {
            words: spans
                .iter()
                .map(|&(s, e)| lower[s..e].to_string())
                .collect(),
            chars,
            keys,
            offsets,
            positions,
        }
    }

    /// Ascending positions of `c` in the phrase (empty if absent).
    fn positions_of(&self, c: char) -> &[u32] {
        match self.keys.binary_search(&c) {
            Ok(k) => {
                let lo = self.offsets[k] as usize;
                let hi = self.offsets[k + 1] as usize;
                &self.positions[lo..hi]
            }
            Err(_) => &[],
        }
    }

    /// Number of distinct lowercase words.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Number of characters in the raw phrase.
    pub fn char_count(&self) -> usize {
        self.chars.len()
    }
}

/// The [`PhraseSyntax`] of every seed instance of a prepared matcher,
/// keyed by the exact instance string candidates carry in
/// `matched_instance`. The keys are fixed when the table is built; each
/// entry's syntax is computed on its first [`get`](SeedSyntax::get) and
/// kept, so an engine pays only for the seeds its reads look up, once
/// per entry, whichever thread asks first. Entries are shared: a table
/// [`extend`](SeedSyntax::extend)ed from another holds the very same
/// entry for every instance the two have in common, computed or not.
#[derive(Debug, Clone, Default)]
pub struct SeedSyntax {
    table: HashMap<Arc<str>, Arc<OnceLock<PhraseSyntax>>>,
}

impl SeedSyntax {
    /// Build the table from seed-instance strings (duplicates are
    /// entered once).
    pub fn build<'a>(seeds: impl IntoIterator<Item = &'a str>) -> Self {
        Self::default().extend(seeds)
    }

    /// This table plus entries for additional seed-instance strings:
    /// instances already present share this table's entries (a
    /// refcount bump each, never a copy). Because `PhraseSyntax::new`
    /// is deterministic, the result is indistinguishable from
    /// [`SeedSyntax::build`] over the union — the delta path of engine
    /// evolution.
    pub fn extend<'a>(&self, seeds: impl IntoIterator<Item = &'a str>) -> Self {
        let mut table = self.table.clone();
        for seed in seeds {
            if !table.contains_key(seed) {
                table.insert(Arc::from(seed), Arc::default());
            }
        }
        Self { table }
    }

    /// The distinct seed instances in sorted order, for artifact
    /// serialization. [`SeedSyntax::build`] over this list reproduces
    /// the table exactly, so a load rebuilds rather than persisting the
    /// derived arrays.
    pub fn instances(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.table.keys().map(|k| &**k).collect();
        v.sort_unstable();
        v
    }

    /// The syntax of `instance`, if it was a seed: computed on the
    /// entry's first lookup, then shared.
    pub fn get(&self, instance: &str) -> Option<&PhraseSyntax> {
        let entry = self.table.get(instance)?;
        Some(entry.get_or_init(|| PhraseSyntax::new(instance)))
    }

    /// Number of distinct seed instances in the table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// Split `phrase` on whitespace, lowercase each word into `lower`, and
/// leave the **sorted, deduplicated** word spans in `spans`. The spans
/// then enumerate exactly the distinct lowercase words the reference
/// `HashSet<String>` would contain, in ascending byte order.
fn collect_words(lower: &mut String, spans: &mut Vec<(usize, usize)>, phrase: &str) {
    lower.clear();
    spans.clear();
    for word in phrase.split_whitespace() {
        let start = lower.len();
        if word.contains('Σ') {
            // Cold path: `str::to_lowercase` maps word-final 'Σ' to 'ς'
            // where the char-wise mapping yields 'σ'. Allocate to match
            // the reference bit for bit.
            lower.push_str(&word.to_lowercase());
        } else {
            for ch in word.chars() {
                if ch.is_ascii() {
                    // `char::to_lowercase` agrees with the ASCII table
                    // on ASCII input; skip the Unicode-table walk.
                    lower.push(ch.to_ascii_lowercase());
                } else {
                    for lc in ch.to_lowercase() {
                        lower.push(lc);
                    }
                }
            }
        }
        spans.push((start, lower.len()));
    }
    let buf: &str = lower;
    spans.sort_unstable_by(|&(s1, e1), &(s2, e2)| buf[s1..e1].cmp(&buf[s2..e2]));
    spans.dedup_by(|&mut (s1, e1), &mut (s2, e2)| buf[s1..e1] == buf[s2..e2]);
}

/// Allocation-free fast path of [`jaccard_words`](crate::jaccard_words):
/// word-level Jaccard between `phrase` and a precomputed seed syntax,
/// bit-identical to the reference over the raw strings.
pub fn jaccard_prepared(scratch: &mut ScoreScratch, phrase: &str, seed: &PhraseSyntax) -> f64 {
    collect_words(&mut scratch.lower, &mut scratch.spans, phrase);
    let na = scratch.spans.len();
    let nb = seed.words.len();
    if na == 0 && nb == 0 {
        return 1.0;
    }
    if na == 0 || nb == 0 {
        return 0.0;
    }
    // Both word lists are sorted and distinct: a two-pointer merge
    // counts the intersection the reference counts via hash lookups.
    let mut inter = 0usize;
    let (mut i, mut j) = (0, 0);
    while i < na && j < nb {
        let (s, e) = scratch.spans[i];
        match scratch.lower[s..e].cmp(&seed.words[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = na + nb - inter;
    inter as f64 / union as f64
}

/// Cheap upper bound on [`gestalt_prepared`] — difflib's
/// `real_quick_ratio`: at most `min(|a|, |b|)` characters can match, so
/// the similarity is at most `2·min/(|a| + |b|)`. One `chars()` pass
/// over the phrase, no allocation, no DP; callers use it to skip the
/// quadratic block search for candidates that cannot win. Both-empty
/// returns 1.0, matching the similarity's own convention.
pub fn gestalt_bound(phrase: &str, seed: &PhraseSyntax) -> f64 {
    let a = phrase.chars().count();
    let b = seed.char_count();
    let total = a + b;
    if total == 0 {
        return 1.0;
    }
    2.0 * a.min(b) as f64 / total as f64
}

/// Allocation-free fast path of
/// [`gestalt_similarity`](crate::gestalt_similarity): Ratcliff–Obershelp
/// similarity between `phrase` and a precomputed seed syntax,
/// bit-identical to the reference over the raw strings.
pub fn gestalt_prepared(scratch: &mut ScoreScratch, phrase: &str, seed: &PhraseSyntax) -> f64 {
    let ScoreScratch {
        chars,
        prev,
        curr,
        touched_prev,
        touched_curr,
        stack,
        ..
    } = scratch;
    chars.clear();
    chars.extend(phrase.chars());
    let total = chars.len() + seed.chars.len();
    if total == 0 {
        return 1.0;
    }
    let m = matching_chars_seeded(prev, curr, touched_prev, touched_curr, stack, chars, seed);
    2.0 * m as f64 / total as f64
}

/// Total matched characters of the recursive longest-common-block
/// decomposition, with the recursion replaced by an explicit stack.
/// Summation order differs from the recursive reference but the summed
/// block set — and therefore the integer total — is identical.
#[allow(clippy::too_many_arguments)] // scratch split into its parts
fn matching_chars_seeded(
    prev: &mut Vec<usize>,
    curr: &mut Vec<usize>,
    touched_prev: &mut Vec<u32>,
    touched_curr: &mut Vec<u32>,
    stack: &mut Vec<(usize, usize, usize, usize)>,
    a: &[char],
    seed: &PhraseSyntax,
) -> usize {
    stack.clear();
    stack.push((0, a.len(), 0, seed.chars.len()));
    let mut total = 0;
    while let Some((alo, ahi, blo, bhi)) = stack.pop() {
        let (i, j, k) = longest_match_seeded(
            prev,
            curr,
            touched_prev,
            touched_curr,
            a,
            seed,
            alo,
            ahi,
            blo,
            bhi,
        );
        if k == 0 {
            continue;
        }
        total += k;
        stack.push((alo, i, blo, j));
        stack.push((i + k, ahi, j + k, bhi));
    }
    total
}

/// Sparse variant of [`longest_match_flat`] using the seed's
/// precomputed char→positions index (difflib's own `b2j` strategy):
/// only `(i, j)` cells where `a[i] == seed.chars[j]` are visited, and
/// rows are re-zeroed through touched-slot lists instead of range
/// fills. The dense DP writes a nonzero `curr[j]` only at those same
/// matching cells and updates `best` in the same `(i asc, j asc)`
/// order with the same strict `>`, so the returned triple is identical
/// bit for bit.
///
/// Invariant: `prev`/`curr` are all-zero on entry and restored to
/// all-zero before returning (touched lists record every write).
#[allow(clippy::too_many_arguments)] // scratch split into its parts
#[allow(clippy::needless_range_loop)] // index loops mirror the difflib reference
fn longest_match_seeded(
    prev: &mut Vec<usize>,
    curr: &mut Vec<usize>,
    touched_prev: &mut Vec<u32>,
    touched_curr: &mut Vec<u32>,
    a: &[char],
    seed: &PhraseSyntax,
    alo: usize,
    ahi: usize,
    blo: usize,
    bhi: usize,
) -> (usize, usize, usize) {
    let mut best = (alo, blo, 0usize);
    if alo >= ahi || blo >= bhi {
        return best;
    }
    if prev.len() < bhi {
        prev.resize(bhi, 0);
        curr.resize(bhi, 0);
    }
    touched_prev.clear();
    touched_curr.clear();
    for i in alo..ahi {
        let positions = seed.positions_of(a[i]);
        let start = positions.partition_point(|&j| (j as usize) < blo);
        for &j in &positions[start..] {
            let j = j as usize;
            if j >= bhi {
                break;
            }
            let k = if j > blo { prev[j - 1] } else { 0 } + 1;
            curr[j] = k;
            touched_curr.push(j as u32);
            if k > best.2 {
                best = (i + 1 - k, j + 1 - k, k);
            }
        }
        for &j in touched_prev.iter() {
            prev[j as usize] = 0;
        }
        touched_prev.clear();
        std::mem::swap(prev, curr);
        std::mem::swap(touched_prev, touched_curr);
    }
    for &j in touched_prev.iter() {
        prev[j as usize] = 0;
    }
    touched_prev.clear();
    best
}

/// Flat two-row replacement for the difflib-style `HashMap` DP: longest
/// common contiguous block between `a[alo..ahi]` and `b[blo..bhi]` as
/// `(start_a, start_b, len)`, ties broken toward the earliest position
/// in `a`, then `b` — the identical scan order and tie-break of the
/// reference, so the returned block is the same triple bit for bit.
///
/// `prev[j]` holds the match length ending at `(i-1, j)`; a missing
/// `HashMap` entry of the reference corresponds to a zeroed slot (rows
/// are re-zeroed over `blo..bhi` each iteration, and `j == blo` reads 0
/// exactly where the reference's `j.checked_sub(1)` lookup misses).
#[allow(clippy::needless_range_loop)] // index loops mirror the difflib reference
#[allow(clippy::too_many_arguments)] // (a, b) ranges plus the two DP rows
pub(crate) fn longest_match_flat(
    prev: &mut Vec<usize>,
    curr: &mut Vec<usize>,
    a: &[char],
    b: &[char],
    alo: usize,
    ahi: usize,
    blo: usize,
    bhi: usize,
) -> (usize, usize, usize) {
    let mut best = (alo, blo, 0usize);
    if alo >= ahi || blo >= bhi {
        return best;
    }
    if prev.len() < bhi {
        prev.resize(bhi, 0);
        curr.resize(bhi, 0);
    }
    prev[blo..bhi].fill(0);
    for i in alo..ahi {
        curr[blo..bhi].fill(0);
        for j in blo..bhi {
            if a[i] == b[j] {
                let k = if j > blo { prev[j - 1] } else { 0 } + 1;
                curr[j] = k;
                if k > best.2 {
                    best = (i + 1 - k, j + 1 - k, k);
                }
            }
        }
        std::mem::swap(prev, curr);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{gestalt_similarity, jaccard_words};
    use proptest::prelude::*;

    fn jaccard_kernel(a: &str, b: &str) -> f64 {
        let mut scratch = ScoreScratch::new();
        jaccard_prepared(&mut scratch, a, &PhraseSyntax::new(b))
    }

    fn gestalt_kernel(a: &str, b: &str) -> f64 {
        let mut scratch = ScoreScratch::new();
        gestalt_prepared(&mut scratch, a, &PhraseSyntax::new(b))
    }

    #[test]
    fn jaccard_kernel_matches_reference_basics() {
        for (a, b) in [
            ("brain tumor", "brain tumor"),
            ("Nervous System", "nervous system"),
            ("blood clot", "blood"),
            ("non-cancerous brain tumor", "skin cancer"),
            ("", ""),
            ("", "brain"),
            ("brain brain brain", "brain"),
            ("  spaced   out  ", "spaced out"),
        ] {
            assert_eq!(
                jaccard_kernel(a, b).to_bits(),
                jaccard_words(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn gestalt_kernel_matches_reference_basics() {
        for (a, b) in [
            ("abcd", "bcde"),
            ("apple", "aple"),
            ("gestalt", "pattern"),
            ("brain", "brian"),
            ("", ""),
            ("a", ""),
            ("aaaa", "aa"),
        ] {
            assert_eq!(
                gestalt_kernel(a, b).to_bits(),
                gestalt_similarity(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn sigma_lowercasing_matches_str_to_lowercase() {
        // str::to_lowercase maps word-final 'Σ' to 'ς'; char-wise maps
        // to 'σ'. The kernels must follow the reference's str semantics.
        for (a, b) in [
            ("ΟΔΥΣΣΕΥΣ", "οδυσσευς"),
            ("ΟΔΥΣΣΕΥΣ", "οδυσσευσ"),
            ("ΣΣ Σ", "σς ς"),
            ("İstanbul Σ", "istanbul"),
        ] {
            assert_eq!(
                jaccard_kernel(a, b).to_bits(),
                jaccard_words(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn scratch_reuse_does_not_contaminate_results() {
        let mut scratch = ScoreScratch::new();
        let pairs = [
            ("slow-growing non-cancerous brain tumor", "skin cancer"),
            ("x", "a much longer seed instance phrase"),
            ("", "brain"),
            ("brain tumor", "brain tumor"),
        ];
        for (a, b) in pairs {
            let seed = PhraseSyntax::new(b);
            let jw = jaccard_prepared(&mut scratch, a, &seed);
            let gc = gestalt_prepared(&mut scratch, a, &seed);
            assert_eq!(jw.to_bits(), jaccard_words(a, b).to_bits(), "{a:?}/{b:?}");
            assert_eq!(
                gc.to_bits(),
                gestalt_similarity(a, b).to_bits(),
                "{a:?}/{b:?}"
            );
        }
    }

    #[test]
    fn seed_syntax_lookup() {
        let syntax = SeedSyntax::build(["skin cancer", "nervous system", "skin cancer"]);
        assert_eq!(syntax.len(), 2);
        assert!(!syntax.is_empty());
        let seed = syntax.get("skin cancer").unwrap();
        assert_eq!(seed.word_count(), 2);
        assert_eq!(seed.char_count(), "skin cancer".chars().count());
        assert!(syntax.get("unknown").is_none());
    }

    #[test]
    fn seed_syntax_extend_matches_fresh_build() {
        let base = SeedSyntax::build(["skin cancer", "nervous system"]);
        let extended = base.extend(["stroke", "skin cancer", "blood clot"]);
        let fresh = SeedSyntax::build(["skin cancer", "nervous system", "stroke", "blood clot"]);
        assert_eq!(extended.instances(), fresh.instances());
        assert_eq!(extended.len(), 4);
        for inst in extended.instances() {
            let a = extended.get(inst).unwrap();
            let b = fresh.get(inst).unwrap();
            assert_eq!(a.word_count(), b.word_count());
            assert_eq!(a.char_count(), b.char_count());
        }
        // The original table is untouched, and its entries are shared,
        // not copied.
        assert_eq!(base.len(), 2);
        for inst in base.instances() {
            assert!(std::ptr::eq(
                base.get(inst).unwrap(),
                extended.get(inst).unwrap()
            ));
        }
    }

    proptest! {
        #[test]
        fn jaccard_bit_equal_unicode(a in "\\PC{0,24}", b in "\\PC{0,24}") {
            prop_assert_eq!(
                jaccard_kernel(&a, &b).to_bits(),
                jaccard_words(&a, &b).to_bits()
            );
        }

        #[test]
        fn gestalt_bound_is_sound(a in "\\PC{0,18}", b in "\\PC{0,18}") {
            let seed = PhraseSyntax::new(&b);
            let mut scratch = ScoreScratch::new();
            let actual = gestalt_prepared(&mut scratch, &a, &seed);
            prop_assert!(gestalt_bound(&a, &seed) >= actual);
        }

        #[test]
        fn jaccard_bit_equal_wordy(a in "[a-cA-C ]{0,30}", b in "[a-cA-C ]{0,30}") {
            // Narrow alphabet forces word collisions and duplicates.
            prop_assert_eq!(
                jaccard_kernel(&a, &b).to_bits(),
                jaccard_words(&a, &b).to_bits()
            );
        }

        #[test]
        fn gestalt_bit_equal_unicode(a in "\\PC{0,18}", b in "\\PC{0,18}") {
            prop_assert_eq!(
                gestalt_kernel(&a, &b).to_bits(),
                gestalt_similarity(&a, &b).to_bits()
            );
        }

        #[test]
        fn gestalt_bit_equal_repeats(a in "[ab]{0,14}", b in "[ab]{0,14}") {
            // Repeated characters stress the block decomposition.
            prop_assert_eq!(
                gestalt_kernel(&a, &b).to_bits(),
                gestalt_similarity(&a, &b).to_bits()
            );
        }

        #[test]
        fn shared_scratch_equals_fresh_scratch(
            a in "\\PC{0,16}", b in "\\PC{0,16}", c in "\\PC{0,16}"
        ) {
            let mut shared = ScoreScratch::new();
            let sb = PhraseSyntax::new(&b);
            let sc = PhraseSyntax::new(&c);
            // Interleave two seed targets through one scratch.
            let j1 = jaccard_prepared(&mut shared, &a, &sb);
            let g1 = gestalt_prepared(&mut shared, &a, &sc);
            let j2 = jaccard_prepared(&mut shared, &a, &sc);
            let g2 = gestalt_prepared(&mut shared, &a, &sb);
            prop_assert_eq!(j1.to_bits(), jaccard_words(&a, &b).to_bits());
            prop_assert_eq!(g1.to_bits(), gestalt_similarity(&a, &c).to_bits());
            prop_assert_eq!(j2.to_bits(), jaccard_words(&a, &c).to_bits());
            prop_assert_eq!(g2.to_bits(), gestalt_similarity(&a, &b).to_bits());
        }
    }
}
