//! The vector store — the only embedding interface the pipeline sees.
//!
//! Mirrors how spaCy exposes its static table: word → vector lookup,
//! out-of-vocabulary words have no vector, and a multi-word span is
//! embedded as the mean of its in-vocabulary word vectors (spaCy's
//! `Span.vector`). The store also answers the nearest-neighbour queries
//! the matcher's τ-expansion needs.
//!
//! Since the zero-copy artifact work the store has two backings:
//!
//! * **Owned** — the mutable `HashMap<String, Vector>` every build path
//!   uses (training, `from_text`, tests).
//! * **Frozen** — an immutable structure-of-arrays view: a sorted word
//!   pool plus one contiguous `f32` row per word, both of which may
//!   borrow a memory-mapped v2 engine artifact. Lookups are binary
//!   searches over the pool; no per-word heap allocation exists at all.
//!
//! The scoring surface (`row`, `embed_phrase`, `coverage`,
//! `neighbors_above`, `nearest`, `to_text`) works identically — and
//! bit-identically, via the slice twin kernels in
//! [`vector`](crate::vector) — on both backings. The mutation and
//! owned-iteration surface (`insert`, `get`, `iter`) is owned-only and
//! panics on a frozen store: those calls exist only on build paths,
//! which never see a frozen store.

use std::collections::HashMap;

use thor_fault::{Fnv1a, FrozenPool, FrozenSlice, ThorError};
use thor_text::normalize_phrase;

use crate::vector::{cosine, mean_of_rows, slice_cosine, Vector};

#[derive(Debug, Clone)]
enum Backing {
    Owned(HashMap<String, Vector>),
    Frozen {
        /// Normalized vocabulary words, sorted ascending by byte order.
        words: FrozenPool,
        /// Row `i` of the vocabulary lives at `rows[i*dim .. (i+1)*dim]`.
        rows: FrozenSlice<f32>,
    },
}

/// A word-embedding table: owned and mutable, or a frozen zero-copy
/// view over an engine artifact. See the module docs.
#[derive(Debug, Clone)]
pub struct VectorStore {
    dim: usize,
    backing: Backing,
}

impl Default for VectorStore {
    fn default() -> Self {
        Self::new(0)
    }
}

impl VectorStore {
    /// Create an empty owned store with dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            backing: Backing::Owned(HashMap::new()),
        }
    }

    /// Assemble a frozen store from its artifact sections: a sorted
    /// word pool and the concatenated `f32` rows. Validates the O(1)
    /// structural invariant `rows == words × dim`; the contents are
    /// covered by the artifact's checksum policy.
    pub fn from_frozen(
        dim: usize,
        words: FrozenPool,
        rows: FrozenSlice<f32>,
    ) -> Result<Self, ThorError> {
        if rows.len() != words.len() * dim {
            return Err(ThorError::validation(format!(
                "vector store sections inconsistent: {} words × dim {} != {} row values",
                words.len(),
                dim,
                rows.len()
            )));
        }
        Ok(Self {
            dim,
            backing: Backing::Frozen { words, rows },
        })
    }

    /// Re-encode this store as a frozen one (owned arrays, same layout
    /// the artifact writer produces). Build paths use it to exercise
    /// the frozen surface without a round trip through disk.
    pub fn freeze(&self) -> VectorStore {
        let mut words: Vec<String> = Vec::with_capacity(self.len());
        let mut rows: Vec<f32> = Vec::with_capacity(self.len() * self.dim);
        self.for_each_sorted(|w, r| {
            words.push(w.to_string());
            rows.extend_from_slice(r);
        });
        VectorStore::from_frozen(self.dim, FrozenPool::from_items(words), rows.into())
            .expect("freeze of a consistent store cannot fail")
    }

    /// Dimensionality of the stored vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of words in the vocabulary.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Owned(m) => m.len(),
            Backing::Frozen { words, .. } => words.len(),
        }
    }

    /// True if the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert (or replace) the vector for `word`. The word is normalized
    /// (lowercased, outer punctuation stripped) before insertion.
    ///
    /// # Panics
    /// If the vector dimension does not match the store's, or the store
    /// is frozen (frozen stores are immutable by construction).
    pub fn insert(&mut self, word: &str, vector: Vector) {
        assert_eq!(vector.dim(), self.dim, "vector dimension mismatch");
        match &mut self.backing {
            Backing::Owned(m) => {
                m.insert(normalize_phrase(word), vector);
            }
            Backing::Frozen { .. } => panic!("cannot insert into a frozen vector store"),
        }
    }

    /// Look up the vector for a single word (normalized).
    ///
    /// # Panics
    /// On a frozen store — frozen rows have no `Vector` to borrow; use
    /// [`row`](Self::row) instead (all serve paths do).
    pub fn get(&self, word: &str) -> Option<&Vector> {
        match &self.backing {
            Backing::Owned(m) => m.get(&normalize_phrase(word)),
            Backing::Frozen { .. } => panic!("VectorStore::get on a frozen store; use row()"),
        }
    }

    /// The raw `f32` row for a single word (normalized), on either
    /// backing.
    pub fn row(&self, word: &str) -> Option<&[f32]> {
        self.row_raw(&normalize_phrase(word))
    }

    /// Row lookup for an *already normalized* word (the per-token path
    /// of `embed_phrase`, which normalizes the whole phrase once, and
    /// of exact-key callers holding words read back from the store).
    pub fn row_raw(&self, word: &str) -> Option<&[f32]> {
        match &self.backing {
            Backing::Owned(m) => m.get(word).map(|v| v.as_slice()),
            Backing::Frozen { words, rows } => {
                let i = words.binary_search_bytes(word.as_bytes()).ok()?;
                rows.as_slice().get(i * self.dim..(i + 1) * self.dim)
            }
        }
    }

    /// Does the (normalized) word have a vector?
    pub fn contains(&self, word: &str) -> bool {
        self.row(word).is_some()
    }

    /// Iterate over `(word, vector)` pairs (hash order).
    ///
    /// # Panics
    /// On a frozen store — callers that must handle both backings use
    /// [`for_each_row`](Self::for_each_row).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Vector)> {
        match &self.backing {
            Backing::Owned(m) => m.iter().map(|(w, v)| (w.as_str(), v)),
            Backing::Frozen { .. } => {
                panic!("VectorStore::iter on a frozen store; use for_each_row()")
            }
        }
    }

    /// Visit every `(word, row)` pair on either backing. Visit order is
    /// backing-dependent (hash order vs sorted) — callers must be
    /// order-independent, which every τ-expansion pass is (per-word
    /// decisions followed by a totally ordered sort).
    pub fn for_each_row<'a>(&'a self, mut f: impl FnMut(&'a str, &'a [f32])) {
        match &self.backing {
            Backing::Owned(m) => {
                for (w, v) in m {
                    f(w.as_str(), v.as_slice());
                }
            }
            Backing::Frozen { words, rows } => {
                let rows = rows.as_slice();
                for i in 0..words.len() {
                    // Invalid UTF-8 or short rows can only appear in a
                    // corrupt unverified (mapped, lazy) artifact; skip
                    // defensively rather than panic.
                    let Some(w) = words.get_str(i) else { continue };
                    let Some(r) = rows.get(i * self.dim..(i + 1) * self.dim) else {
                        continue;
                    };
                    f(w, r);
                }
            }
        }
    }

    /// Visit every `(word, row)` pair in ascending word order on either
    /// backing — the artifact serialization order.
    pub fn for_each_sorted<'a>(&'a self, mut f: impl FnMut(&'a str, &'a [f32])) {
        match &self.backing {
            Backing::Owned(m) => {
                // Sort the pairs once; the keys are distinct, so an
                // unstable sort gives the one ascending order.
                let mut pairs: Vec<(&str, &[f32])> =
                    m.iter().map(|(w, v)| (w.as_str(), v.as_slice())).collect();
                pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
                for (w, row) in pairs {
                    f(w, row);
                }
            }
            Backing::Frozen { .. } => self.for_each_row(f),
        }
    }

    /// Embed a phrase as the mean of its in-vocabulary word vectors
    /// (spaCy span semantics). Returns `None` when *no* word of the
    /// phrase is in the vocabulary.
    pub fn embed_phrase(&self, phrase: &str) -> Option<Vector> {
        self.embed_normalized(&normalize_phrase(phrase))
    }

    /// [`embed_phrase`](Self::embed_phrase) of a phrase already in
    /// `normalize_phrase` form: normalizing is idempotent, so the
    /// phrase is split as it is, without a second pass.
    pub fn embed_normalized(&self, normalized: &str) -> Option<Vector> {
        mean_of_rows(
            normalized
                .split_whitespace()
                .filter_map(|w| self.row_raw(w)),
        )
    }

    /// Cosine similarity between two phrases' mean vectors; `None` if
    /// either phrase is fully out-of-vocabulary.
    pub fn phrase_similarity(&self, a: &str, b: &str) -> Option<f64> {
        let va = self.embed_phrase(a)?;
        let vb = self.embed_phrase(b)?;
        Some(cosine(&va, &vb))
    }

    /// Fraction of a phrase's words that have vectors (coverage drives
    /// the generalizability experiment).
    pub fn coverage(&self, phrase: &str) -> f64 {
        let normalized = normalize_phrase(phrase);
        let words: Vec<&str> = normalized.split_whitespace().collect();
        if words.is_empty() {
            return 0.0;
        }
        let known = words.iter().filter(|w| self.row_raw(w).is_some()).count();
        known as f64 / words.len() as f64
    }

    /// All vocabulary words whose cosine similarity to `query` is at
    /// least `threshold`, sorted by descending similarity.
    pub fn neighbors_above(&self, query: &Vector, threshold: f64) -> Vec<(&str, f64)> {
        let mut out: Vec<(&str, f64)> = Vec::new();
        self.for_each_row(|w, r| {
            let s = slice_cosine(query.as_slice(), r);
            if s >= threshold {
                out.push((w, s));
            }
        });
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        out
    }

    /// The `k` nearest vocabulary words to `query` by cosine similarity.
    pub fn nearest(&self, query: &Vector, k: usize) -> Vec<(&str, f64)> {
        let mut all: Vec<(&str, f64)> = Vec::new();
        self.for_each_row(|w, r| all.push((w, slice_cosine(query.as_slice(), r))));
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        all.truncate(k);
        all
    }

    /// Serialize as word2vec-style text: first line `<count> <dim>`,
    /// then one `word<TAB>v1 v2 …` line per word, sorted by word.
    /// Identical output on both backings.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    /// FNV-1a of exactly the bytes [`VectorStore::to_text`] renders,
    /// streamed through the hasher without building the text.
    pub fn text_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.write_text(&mut h);
        h.finish()
    }

    /// The one renderer behind [`VectorStore::to_text`] and
    /// [`VectorStore::text_digest`]; neither sink can fail.
    fn write_text(&self, out: &mut impl std::fmt::Write) {
        let _ = writeln!(out, "{} {}", self.len(), self.dim);
        self.for_each_sorted(|w, r| {
            let _ = write!(out, "{w}\t");
            let mut sep = "";
            for x in r {
                let _ = write!(out, "{sep}{x}");
                sep = " ";
            }
            let _ = writeln!(out);
        });
    }

    /// Load a vector file from disk: [`VectorStore::from_text`] with
    /// contextual errors naming the offending path (and line, for parse
    /// failures), behind the `read_vectors` failpoint.
    pub fn load_path(path: &std::path::Path) -> Result<Self, thor_fault::ThorError> {
        thor_fault::fail_point("read_vectors")
            .map_err(|e| e.context(format!("loading vectors from {}", path.display())))?;
        let text = thor_fault::read_to_string(path)?;
        Self::from_text(&text).map_err(|e| e.context(path.display().to_string()))
    }

    /// Parse the format written by [`VectorStore::to_text`]. Failures
    /// are [`thor_fault::ErrorKind::Parse`] errors naming the offending
    /// 1-based line.
    pub fn from_text(text: &str) -> Result<Self, thor_fault::ThorError> {
        use thor_fault::ThorError;
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| ThorError::parse("empty vector file"))?;
        let mut parts = header.split_whitespace();
        let count: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ThorError::parse("bad header count"))?;
        let dim: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ThorError::parse("bad header dim"))?;
        let mut store = VectorStore::new(dim);
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let (word, rest) = line
                .split_once('\t')
                .ok_or_else(|| ThorError::parse(format!("line {}: no tab", i + 2)))?;
            let values: Result<Vec<f32>, _> =
                rest.split_whitespace().map(str::parse::<f32>).collect();
            let values = values.map_err(|e| ThorError::parse(format!("line {}: {e}", i + 2)))?;
            // Pruning bounds and the similarity folds assume finite
            // similarities, so a NaN or infinity is an input error.
            if let Some(x) = values.iter().find(|x| !x.is_finite()) {
                return Err(ThorError::parse(format!(
                    "line {}: word `{word}` has non-finite value {x}",
                    i + 2
                )));
            }
            if values.len() != dim {
                return Err(ThorError::parse(format!(
                    "line {}: expected {dim} values, got {}",
                    i + 2,
                    values.len()
                )));
            }
            store.insert(word, Vector(values));
        }
        if store.len() != count {
            return Err(ThorError::parse(format!(
                "header declared {count} words, found {}",
                store.len()
            )));
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn store() -> VectorStore {
        let mut s = VectorStore::new(3);
        s.insert("brain", Vector(vec![1.0, 0.0, 0.0]));
        s.insert("nerve", Vector(vec![0.9, 0.1, 0.0]));
        s.insert("cancer", Vector(vec![0.0, 1.0, 0.0]));
        s.insert("tumor", Vector(vec![0.1, 0.9, 0.0]));
        s
    }

    #[test]
    fn insert_and_lookup_normalized() {
        let s = store();
        assert!(s.contains("Brain"));
        assert!(s.contains("brain,"));
        assert!(!s.contains("kidney"));
        assert_eq!(s.len(), 4);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn insert_wrong_dim_panics() {
        let mut s = VectorStore::new(3);
        s.insert("x", Vector(vec![1.0]));
    }

    #[test]
    fn embed_phrase_mean() {
        let s = store();
        let v = s.embed_phrase("brain cancer").unwrap();
        assert!((v.0[0] - 0.5).abs() < 1e-6);
        assert!((v.0[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn embed_phrase_skips_oov() {
        let s = store();
        // "malignant" is OOV; the mean uses only "tumor".
        let v = s.embed_phrase("malignant tumor").unwrap();
        assert_eq!(v, s.get("tumor").cloned().unwrap());
        assert!(s.embed_phrase("fully unknown words").is_none());
        assert!(s.embed_phrase("").is_none());
    }

    #[test]
    fn phrase_similarity_clusters() {
        let s = store();
        let anatomy = s.phrase_similarity("brain", "nerve").unwrap();
        let cross = s.phrase_similarity("brain", "cancer").unwrap();
        assert!(anatomy > cross, "same-topic words should be closer");
    }

    #[test]
    fn coverage_fraction() {
        let s = store();
        assert_eq!(s.coverage("brain tumor"), 1.0);
        assert_eq!(s.coverage("brain xyzzy"), 0.5);
        assert_eq!(s.coverage("xyzzy"), 0.0);
        assert_eq!(s.coverage(""), 0.0);
    }

    #[test]
    fn neighbors_above_threshold_sorted() {
        let s = store();
        let q = s.get("brain").unwrap().clone();
        let n = s.neighbors_above(&q, 0.8);
        assert_eq!(n[0].0, "brain");
        assert!(n.iter().any(|(w, _)| *w == "nerve"));
        assert!(n.windows(2).all(|w| w[0].1 >= w[1].1), "descending order");
        assert!(!n.iter().any(|(w, _)| *w == "cancer"));
    }

    #[test]
    fn text_round_trip() {
        let s = store();
        let text = s.to_text();
        let back = VectorStore::from_text(&text).unwrap();
        assert_eq!(back.len(), s.len());
        assert_eq!(back.dim(), s.dim());
        assert_eq!(back.get("brain"), s.get("brain"));
        assert_eq!(back.get("tumor"), s.get("tumor"));
    }

    #[test]
    fn from_text_rejects_malformed() {
        assert!(VectorStore::from_text("").is_err());
        assert!(VectorStore::from_text("notanumber 3\n").is_err());
        assert!(
            VectorStore::from_text("1 3\nword\t1.0 2.0\n").is_err(),
            "dim mismatch"
        );
        assert!(
            VectorStore::from_text("2 2\nword\t1.0 2.0\n").is_err(),
            "count mismatch"
        );
        assert!(
            VectorStore::from_text("1 2\nword 1.0 2.0\n").is_err(),
            "missing tab"
        );
    }

    #[test]
    fn from_text_rejects_non_finite_values_by_name() {
        for (value, shown) in [("NaN", "NaN"), ("inf", "inf"), ("-inf", "-inf")] {
            let text = format!("2 3\nbrain\t1 0 0\nnerve\t0.5 {value} 0\n");
            let err = VectorStore::from_text(&text).unwrap_err();
            assert_eq!(err.kind(), thor_fault::ErrorKind::Parse);
            let msg = err.to_string();
            assert!(msg.contains("line 3"), "{msg}");
            assert!(msg.contains("`nerve`"), "{msg}");
            assert!(msg.contains(&format!("non-finite value {shown}")), "{msg}");
        }
    }

    /// The pre-streaming renderer: one `String` per float, joined.
    /// Kept as the byte oracle for `to_text` and `text_digest`.
    fn to_text_oracle(s: &VectorStore) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} {}", s.len(), s.dim());
        s.for_each_sorted(|w, r| {
            let values: Vec<String> = r.iter().map(|x| format!("{x}")).collect();
            let _ = writeln!(out, "{w}\t{}", values.join(" "));
        });
        out
    }

    /// Values whose rendering has an edge: signed zero, subnormals, the
    /// extremes, integral values (`1.0` renders as `1`).
    const EDGE_VALUES: [f32; 12] = [
        -0.0,
        0.0,
        1.0,
        -3.0,
        1e-45,
        -1.17e-39,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::EPSILON,
        0.1,
        123456.79,
    ];

    /// Word stems, non-ASCII among them.
    const STEMS: [&str; 6] = ["brain", "größe", "naïve", "腫瘍", "ω", "x"];

    proptest::proptest! {
        #[test]
        fn streamed_text_equals_the_joined_oracle(
            rows in proptest::prop::collection::vec(
                (
                    (0usize..STEMS.len(), "[a-z]{0,4}"),
                    proptest::prop::collection::vec((0usize..24, -1e3f32..1e3), 3),
                ),
                0..12,
            ),
        ) {
            let mut s = VectorStore::new(3);
            for ((stem, suffix), values) in rows {
                let v: Vec<f32> = values
                    .into_iter()
                    .map(|(pick, x)| EDGE_VALUES.get(pick).copied().unwrap_or(x))
                    .collect();
                s.insert(&format!("{}{suffix}", STEMS[stem]), Vector(v));
            }
            let oracle = to_text_oracle(&s);
            proptest::prop_assert_eq!(s.to_text(), oracle.clone());
            proptest::prop_assert_eq!(s.freeze().to_text(), oracle.clone());
            proptest::prop_assert_eq!(s.text_digest(), thor_fault::fnv1a(oracle.as_bytes()));
            proptest::prop_assert_eq!(s.freeze().text_digest(), s.text_digest());
        }
    }

    #[test]
    fn text_digest_is_the_digest_of_to_text() {
        let mut dimless = VectorStore::new(0);
        dimless.insert("brain", Vector(vec![]));
        assert_eq!(dimless.to_text(), to_text_oracle(&dimless));
        for s in [store(), VectorStore::new(4), store().freeze(), dimless] {
            assert_eq!(s.text_digest(), thor_fault::fnv1a(s.to_text().as_bytes()));
        }
        let mut edges = VectorStore::new(EDGE_VALUES.len());
        edges.insert("größe", Vector(EDGE_VALUES.to_vec()));
        assert_eq!(edges.to_text(), to_text_oracle(&edges));
        assert!(
            edges.to_text().contains("\t-0 0 1 -3 "),
            "{}",
            edges.to_text()
        );
    }

    #[test]
    fn load_path_names_path_and_line() {
        let dir = std::env::temp_dir().join(format!("thor-embed-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.txt");
        std::fs::write(&good, store().to_text()).unwrap();
        assert_eq!(VectorStore::load_path(&good).unwrap().len(), 4);

        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "1 3\nword\tnot numbers here\n").unwrap();
        let err = VectorStore::load_path(&bad).unwrap_err();
        assert_eq!(err.kind(), thor_fault::ErrorKind::Parse);
        assert!(err.to_string().contains("bad.txt"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");

        let missing = dir.join("missing.txt");
        let err = VectorStore::load_path(&missing).unwrap_err();
        assert_eq!(err.kind(), thor_fault::ErrorKind::Io);

        let _guard = thor_fault::scoped_failpoints("read_vectors:err");
        let err = VectorStore::load_path(&good).unwrap_err();
        assert_eq!(err.kind(), thor_fault::ErrorKind::Injected);
        drop(_guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nearest_k() {
        let s = store();
        let q = s.get("cancer").unwrap().clone();
        let n = s.nearest(&q, 2);
        assert_eq!(n.len(), 2);
        assert_eq!(n[0].0, "cancer");
        assert_eq!(n[1].0, "tumor");
    }

    // --- frozen backing equivalence ---------------------------------

    #[test]
    fn frozen_matches_owned_bit_for_bit() {
        let s = store();
        let f = s.freeze();
        assert_eq!(f.len(), s.len());
        assert_eq!(f.dim(), s.dim());

        for w in ["brain", "Brain", "tumor", "nerve", "xyzzy"] {
            assert_eq!(f.row(w), s.row(w), "row({w})");
            assert_eq!(f.contains(w), s.contains(w));
        }
        for phrase in ["brain cancer", "malignant tumor", "xyzzy", ""] {
            let a = s.embed_phrase(phrase);
            let b = f.embed_phrase(phrase);
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    let bits = |v: &Vector| v.0.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a), bits(&b), "embed({phrase})");
                }
                other => panic!("embed mismatch for {phrase}: {other:?}"),
            }
            assert_eq!(f.coverage(phrase), s.coverage(phrase));
        }
        assert_eq!(f.to_text(), s.to_text());

        let q = s.get("brain").unwrap().clone();
        assert_eq!(f.neighbors_above(&q, 0.5), s.neighbors_above(&q, 0.5));
        assert_eq!(f.nearest(&q, 3), s.nearest(&q, 3));
    }

    #[test]
    fn frozen_section_inconsistency_is_named() {
        let err = VectorStore::from_frozen(
            3,
            FrozenPool::from_items(["a", "b"]),
            vec![0.0f32; 5].into(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("inconsistent"), "{err}");
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn frozen_insert_panics() {
        let mut f = store().freeze();
        f.insert("new", Vector(vec![0.0, 0.0, 0.0]));
    }

    #[test]
    fn for_each_sorted_visits_in_word_order() {
        let s = store();
        let mut owned_order = Vec::new();
        s.for_each_sorted(|w, _| owned_order.push(w.to_string()));
        let mut frozen_order = Vec::new();
        s.freeze()
            .for_each_sorted(|w, _| frozen_order.push(w.to_string()));
        let mut expect: Vec<String> = ["brain", "cancer", "nerve", "tumor"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        expect.sort();
        assert_eq!(owned_order, expect);
        assert_eq!(frozen_order, expect);
    }
}
