//! The word hasher of the lookup tables that are fixed when an engine
//! is built: the stop-word set, the tagger's lexicon, segmentation's
//! subject-mention map, and the vocabulary-word maps of a delta apply's
//! seed scan.
//!
//! The first three are probed once or more per word of every document,
//! the seed scan's maps once per vocabulary word, and their keys are
//! short words or word n-grams. No document text is ever inserted into
//! any of them, so a probe cannot lengthen a table's chains, and the
//! per-table random seed of std's keyed hasher buys nothing there. A
//! table that documents insert into (the phrase memo's `PhraseCache`)
//! keeps std's keyed hasher.
//!
//! The methods are `#[inline]` because every probe runs them from
//! another crate's monomorphized map code.

use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time multiply–rotate hasher (the FxHash scheme). `finish`
/// rotates the well-mixed high bits down to where a table takes its
/// bucket index.
#[derive(Debug, Default, Clone, Copy)]
pub struct GramHasher(u64);

/// The [`BuildHasher`](std::hash::BuildHasher) of tables keyed through
/// [`GramHasher`].
pub type GramBuildHasher = BuildHasherDefault<GramHasher>;

impl GramHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for GramHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
