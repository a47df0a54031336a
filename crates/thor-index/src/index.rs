//! Structure-of-arrays vector index over concept representatives.
//!
//! The index is an immutable snapshot built once per fine-tune: all
//! representative vectors live in one contiguous `f32` buffer, rows
//! grouped by concept with seeds first, and every row's L2 norm is
//! precomputed. A query is scored with a single fused pass per concept
//! — one dot product per row against a flat slice — which removes the
//! per-pair norm recomputation and `Vector` indirection of the
//! brute-force scan while producing bit-identical similarity values
//! (same `f64` accumulation order over the same `f32` bits).

use std::cmp::Ordering;

use thor_fault::FrozenSlice;

/// One concept's slice of the row buffer.
#[derive(Debug, Clone)]
struct ConceptEntry {
    /// Concept name (display form).
    name: String,
    /// First row index.
    start: usize,
    /// Number of representative rows (seeds first).
    rows: usize,
    /// The first `seed_rows` rows are seed instances; `c_m` is chosen
    /// among them.
    seed_rows: usize,
}

/// Per-concept similarity scores from one fused scan of the index.
#[derive(Debug, Clone, PartialEq)]
pub struct ConceptScores<'a> {
    /// Concept position in the index (stable across scans).
    pub concept: usize,
    /// Concept name (display form).
    pub name: &'a str,
    /// Highest cosine similarity between the query and any row of the
    /// concept; `None` when the concept has no rows.
    pub max: Option<f64>,
    /// Mean cosine similarity between the query and the concept's rows;
    /// `None` when the concept has no rows, `Some(0.0)` for a
    /// zero-norm query.
    pub mean: Option<f64>,
}

/// Immutable structure-of-arrays index of concept representative
/// vectors. Build with [`VectorIndexBuilder`]; query with
/// [`VectorIndex::scan`] and [`VectorIndex::best_seed`].
#[derive(Debug, Clone)]
pub struct VectorIndex {
    dim: usize,
    /// Row-major `rows × dim` buffer, concept-major. Owned after a
    /// build; a zero-copy view into the artifact after a mapped load.
    data: FrozenSlice<f32>,
    /// Precomputed L2 norm per row (f64, same formula as
    /// `thor_embed::Vector::norm`).
    norms: FrozenSlice<f64>,
    /// Cached element-wise `f32` row sums, one `dim`-length row per
    /// concept (accumulated in row order), for O(d) mean-similarity
    /// queries.
    rep_sums: FrozenSlice<f32>,
    /// Word / instance label per row (normalized form).
    words: Vec<String>,
    concepts: Vec<ConceptEntry>,
}

/// Incremental builder for [`VectorIndex`]; concepts are appended in
/// the order they should be scanned.
#[derive(Debug)]
pub struct VectorIndexBuilder {
    dim: usize,
    data: Vec<f32>,
    norms: Vec<f64>,
    rep_sums: Vec<f32>,
    words: Vec<String>,
    concepts: Vec<ConceptEntry>,
}

impl VectorIndexBuilder {
    /// An empty builder for vectors of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            data: Vec::new(),
            norms: Vec::new(),
            rep_sums: Vec::new(),
            words: Vec::new(),
            concepts: Vec::new(),
        }
    }

    /// Append one concept's representative rows. The first `seed_rows`
    /// entries of `rows` must be the concept's seed instances (the rows
    /// eligible as `c_m`). Panics on a dimension mismatch or when
    /// `seed_rows` exceeds the row count.
    pub fn add_concept<'a>(
        &mut self,
        name: &str,
        seed_rows: usize,
        rows: impl IntoIterator<Item = (&'a str, &'a [f32])>,
    ) -> &mut Self {
        let start = self.words.len();
        let mut rep_sum = vec![0.0f32; self.dim];
        for (word, vector) in rows {
            assert_eq!(vector.len(), self.dim, "row dimension mismatch");
            self.data.extend_from_slice(vector);
            self.norms.push(slice_norm(vector));
            self.words.push(word.to_string());
            for (acc, &x) in rep_sum.iter_mut().zip(vector) {
                *acc += x;
            }
        }
        let rows = self.words.len() - start;
        assert!(seed_rows <= rows, "seed_rows {seed_rows} > rows {rows}");
        self.rep_sums.extend_from_slice(&rep_sum);
        self.concepts.push(ConceptEntry {
            name: name.to_string(),
            start,
            rows,
            seed_rows,
        });
        self
    }

    /// Append concept `concept` of `src` verbatim: the rows, norms,
    /// labels and cached rep-sum are block-copied bit-for-bit, so a
    /// delta apply can reuse untouched concepts without rescanning
    /// them. Panics on a dimension mismatch.
    pub fn add_concept_from(&mut self, src: &VectorIndex, concept: usize) -> &mut Self {
        assert_eq!(src.dim(), self.dim, "index dimension mismatch");
        let entry = &src.concepts[concept];
        let start = self.words.len();
        self.data.extend_from_slice(
            &src.data[entry.start * self.dim..(entry.start + entry.rows) * self.dim],
        );
        self.norms
            .extend_from_slice(&src.norms[entry.start..entry.start + entry.rows]);
        self.words.extend(
            src.words[entry.start..entry.start + entry.rows]
                .iter()
                .cloned(),
        );
        self.rep_sums.extend_from_slice(src.rep_sum(concept));
        self.concepts.push(ConceptEntry {
            name: entry.name.clone(),
            start,
            rows: entry.rows,
            seed_rows: entry.seed_rows,
        });
        self
    }

    /// Finish building.
    pub fn build(self) -> VectorIndex {
        VectorIndex {
            dim: self.dim,
            data: self.data.into(),
            norms: self.norms.into(),
            rep_sums: self.rep_sums.into(),
            words: self.words,
            concepts: self.concepts,
        }
    }
}

impl VectorIndex {
    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of concepts.
    pub fn concept_count(&self) -> usize {
        self.concepts.len()
    }

    /// Total representative rows across all concepts.
    pub fn row_count(&self) -> usize {
        self.words.len()
    }

    /// Name of concept `concept`.
    pub fn concept_name(&self, concept: usize) -> &str {
        &self.concepts[concept].name
    }

    /// Seed-row count of concept `concept`.
    pub fn seed_rows(&self, concept: usize) -> usize {
        self.concepts[concept].seed_rows
    }

    /// Word / instance label of row `row` (normalized form).
    pub fn row_word(&self, row: usize) -> &str {
        &self.words[row]
    }

    /// The raw row buffer (`row_count × dim`, row-major), for artifact
    /// serialization.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The precomputed per-row L2 norms, for artifact serialization.
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// The cached per-concept row sums (`concept_count × dim`,
    /// row-major), for artifact serialization.
    pub fn rep_sums(&self) -> &[f32] {
        &self.rep_sums
    }

    /// Per-concept layout `(name, start, rows, seed_rows)` in scan
    /// order, for artifact serialization.
    pub fn concept_layout(&self) -> impl Iterator<Item = (&str, usize, usize, usize)> {
        self.concepts
            .iter()
            .map(|c| (c.name.as_str(), c.start, c.rows, c.seed_rows))
    }

    /// Reassemble an index from its flat arrays (the artifact load
    /// path). The slices may be zero-copy views into a mapped file;
    /// every layout invariant the scan loops rely on is validated here
    /// so corrupt metadata yields a named error instead of a panic.
    pub fn from_parts(
        dim: usize,
        data: FrozenSlice<f32>,
        norms: FrozenSlice<f64>,
        rep_sums: FrozenSlice<f32>,
        words: Vec<String>,
        concepts: Vec<(String, usize, usize, usize)>,
    ) -> Result<Self, String> {
        let rows = words.len();
        if data.len() != rows * dim {
            return Err(format!(
                "index row buffer has {} floats, expected {rows} rows x {dim} dims",
                data.len()
            ));
        }
        if norms.len() != rows {
            return Err(format!("index has {} norms for {rows} rows", norms.len()));
        }
        if rep_sums.len() != concepts.len() * dim {
            return Err(format!(
                "index rep-sum buffer has {} floats, expected {} concepts x {dim} dims",
                rep_sums.len(),
                concepts.len()
            ));
        }
        let mut next = 0usize;
        for (name, start, crows, seed_rows) in &concepts {
            if *start != next || start.checked_add(*crows).is_none_or(|end| end > rows) {
                return Err(format!(
                    "concept `{name}` rows {start}..{} do not tile the {rows}-row buffer",
                    start.saturating_add(*crows)
                ));
            }
            if seed_rows > crows {
                return Err(format!(
                    "concept `{name}` claims {seed_rows} seed rows of {crows}"
                ));
            }
            next = start + crows;
        }
        if next != rows {
            return Err(format!(
                "concepts cover {next} rows but the buffer has {rows}"
            ));
        }
        Ok(Self {
            dim,
            data,
            norms,
            rep_sums,
            words,
            concepts: concepts
                .into_iter()
                .map(|(name, start, rows, seed_rows)| ConceptEntry {
                    name,
                    start,
                    rows,
                    seed_rows,
                })
                .collect(),
        })
    }

    /// Number of representative rows of concept `concept`.
    pub fn concept_rows(&self, concept: usize) -> usize {
        self.concepts[concept].rows
    }

    /// Layout of concept `concept` as `(start, rows, seed_rows)`, for
    /// the pruning structures that address rows globally.
    pub(crate) fn concept_range(&self, concept: usize) -> (usize, usize, usize) {
        let entry = &self.concepts[concept];
        (entry.start, entry.rows, entry.seed_rows)
    }

    /// Precomputed L2 norm of row `row`.
    pub(crate) fn row_norm(&self, row: usize) -> f64 {
        self.norms[row]
    }

    /// Concept `concept`'s cached row sum (`dim` long): its rows added
    /// element-wise in `f32`, in row order.
    pub fn rep_sum(&self, concept: usize) -> &[f32] {
        &self.rep_sums[concept * self.dim..(concept + 1) * self.dim]
    }

    /// Row `row` (`dim` long).
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.dim..(row + 1) * self.dim]
    }

    /// Mean cosine similarity between `query` and concept `concept`'s
    /// rows, bit-identical to the `mean` field produced by
    /// [`VectorIndex::scan`]: `None` when the concept has no rows,
    /// `Some(0.0)` for a zero-norm query.
    pub fn concept_mean(&self, concept: usize, query: &[f32], query_norm: f64) -> Option<f64> {
        let entry = &self.concepts[concept];
        if entry.rows == 0 {
            None
        } else if query_norm == 0.0 {
            Some(0.0)
        } else {
            Some(dot(query, self.rep_sum(concept)) / (query_norm * entry.rows as f64))
        }
    }

    /// Cosine similarity between `query` (with precomputed norm
    /// `query_norm`) and row `row`; 0.0 when either norm is zero.
    pub(crate) fn row_cosine(&self, row: usize, query: &[f32], query_norm: f64) -> f64 {
        cosine_of_dot(dot(query, self.row(row)), query_norm, self.norms[row])
    }

    /// Score `query` against every concept in one fused pass each:
    /// the per-concept max over rows and the O(d) mean via the cached
    /// row sum. `query_norm` must be `query`'s L2 norm (callers compute
    /// it once per query instead of once per pair).
    pub fn scan<'a>(
        &'a self,
        query: &'a [f32],
        query_norm: f64,
    ) -> impl Iterator<Item = ConceptScores<'a>> + 'a {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        self.concepts.iter().enumerate().map(move |(ci, entry)| {
            let mut max: Option<f64> = None;
            for row in entry.start..entry.start + entry.rows {
                let sim = self.row_cosine(row, query, query_norm);
                max = Some(max.map_or(sim, |a: f64| a.max(sim)));
            }
            let mean = if entry.rows == 0 {
                None
            } else if query_norm == 0.0 {
                Some(0.0)
            } else {
                Some(dot(query, self.rep_sum(ci)) / (query_norm * entry.rows as f64))
            };
            ConceptScores {
                concept: ci,
                name: &entry.name,
                max,
                mean,
            }
        })
    }

    /// The seed row of concept `concept` most similar to `query`:
    /// `(instance, sim)`. Ties prefer the lexicographically smaller
    /// instance. `None` when the concept has no seed rows.
    pub fn best_seed(&self, concept: usize, query: &[f32], query_norm: f64) -> Option<(&str, f64)> {
        let entry = &self.concepts[concept];
        let mut best: Option<(&str, f64)> = None;
        for row in entry.start..entry.start + entry.seed_rows {
            let word = self.words[row].as_str();
            let sim = self.row_cosine(row, query, query_norm);
            let replace = match best {
                None => true,
                Some((bw, bs)) => sim.total_cmp(&bs).then_with(|| bw.cmp(word)) != Ordering::Less,
            };
            if replace {
                best = Some((word, sim));
            }
        }
        best
    }
}

/// Dot product of two equal-length slices, accumulated in `f64` in
/// element order (matches `thor_embed::Vector::dot`). The fold starts
/// from `+0.0` rather than `Sum`'s toolchain-dependent identity, so a
/// zero dot is never `-0.0`.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .fold(0.0, |acc, (&x, &y)| acc + x as f64 * y as f64)
}

/// The cosine a row scan reports for a query·row dot: 0.0 when either
/// norm is zero, otherwise `dot / (query_norm * row_norm)` clamped to
/// [-1, 1]. Shared by the per-row scans and the lane kernel's callers,
/// so both turn equal dots into equal bits.
#[inline]
pub(crate) fn cosine_of_dot(dot: f64, query_norm: f64, row_norm: f64) -> f64 {
    if query_norm == 0.0 || row_norm == 0.0 {
        0.0
    } else {
        (dot / (query_norm * row_norm)).clamp(-1.0, 1.0)
    }
}

/// L2 norm of a slice (matches `thor_embed::Vector::norm`).
pub(crate) fn slice_norm(v: &[f32]) -> f64 {
    v.iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cosine_ref(a: &[f32], b: &[f32]) -> f64 {
        let (na, nb) = (slice_norm(a), slice_norm(b));
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
    }

    #[test]
    fn zero_dots_are_positive_zero() {
        for (a, b) in [
            (vec![1.0f32, -0.0], vec![-0.0f32, 1.0]),
            (vec![-0.0], vec![0.0]),
            (vec![], vec![]),
        ] {
            assert_eq!(dot(&a, &b).to_bits(), 0.0f64.to_bits(), "{a:?}·{b:?}");
        }
    }

    fn sample_index() -> VectorIndex {
        let mut b = VectorIndexBuilder::new(3);
        b.add_concept(
            "A",
            2,
            [
                ("a1", &[1.0f32, 0.0, 0.0][..]),
                ("a2", &[0.6, 0.8, 0.0][..]),
                ("ax", &[0.0, 1.0, 0.0][..]),
            ],
        );
        b.add_concept("B", 1, [("b1", &[0.0f32, 0.0, 2.0][..])]);
        b.add_concept("Empty", 0, []);
        b.build()
    }

    #[test]
    fn layout_accessors() {
        let ix = sample_index();
        assert_eq!(ix.dim(), 3);
        assert_eq!(ix.concept_count(), 3);
        assert_eq!(ix.row_count(), 4);
        assert_eq!(ix.concept_name(0), "A");
        assert_eq!(ix.seed_rows(0), 2);
        assert_eq!(ix.seed_rows(2), 0);
    }

    #[test]
    fn scan_matches_reference_cosines() {
        let ix = sample_index();
        let q = [0.5f32, 0.5, 0.1];
        let qn = slice_norm(&q);
        let scores: Vec<ConceptScores> = ix.scan(&q, qn).collect();

        let a_rows: [&[f32]; 3] = [&[1.0, 0.0, 0.0], &[0.6, 0.8, 0.0], &[0.0, 1.0, 0.0]];
        let max_a = a_rows
            .iter()
            .map(|r| cosine_ref(&q, r))
            .fold(f64::MIN, f64::max);
        let mean_a = a_rows.iter().map(|r| cosine_ref(&q, r)).sum::<f64>() / 3.0;
        assert_eq!(scores[0].max, Some(max_a));
        assert!((scores[0].mean.unwrap() - mean_a).abs() < 1e-6);

        assert_eq!(scores[1].name, "B");
        assert_eq!(
            scores[1].max,
            Some(cosine_ref(&q, &[0.0, 0.0, 2.0])),
            "non-unit rows score via their precomputed norm"
        );

        assert_eq!(scores[2].max, None);
        assert_eq!(scores[2].mean, None);
    }

    #[test]
    fn zero_query_scores_zero() {
        let ix = sample_index();
        let q = [0.0f32; 3];
        let scores: Vec<ConceptScores> = ix.scan(&q, slice_norm(&q)).collect();
        assert_eq!(scores[0].max, Some(0.0));
        assert_eq!(scores[0].mean, Some(0.0));
        assert!(ix.best_seed(0, &q, 0.0).is_some());
    }

    #[test]
    fn best_seed_only_considers_seed_prefix() {
        let ix = sample_index();
        // Query aligned with "ax" (an expanded rep, not a seed): the
        // best *seed* must still come from the seed prefix.
        let q = [0.0f32, 1.0, 0.0];
        let qn = slice_norm(&q);
        let (word, sim) = ix.best_seed(0, &q, qn).unwrap();
        assert_eq!(word, "a2");
        assert!((sim - 0.8).abs() < 1e-6);
        assert!(ix.best_seed(2, &q, qn).is_none());
    }

    #[test]
    fn best_seed_tie_prefers_lexicographically_smaller() {
        let mut b = VectorIndexBuilder::new(2);
        let v: &[f32] = &[1.0, 0.0];
        b.add_concept("C", 3, [("zeta", v), ("beta", v), ("gamma", v)]);
        let ix = b.build();
        let (word, _) = ix.best_seed(0, &[2.0, 0.0], 2.0).unwrap();
        assert_eq!(word, "beta");
    }

    #[test]
    fn from_parts_round_trip_scans_identically() {
        let ix = sample_index();
        let rebuilt = VectorIndex::from_parts(
            ix.dim(),
            ix.data().to_vec().into(),
            ix.norms().to_vec().into(),
            ix.rep_sums().to_vec().into(),
            (0..ix.row_count())
                .map(|r| ix.row_word(r).to_string())
                .collect(),
            ix.concept_layout()
                .map(|(n, s, r, k)| (n.to_string(), s, r, k))
                .collect(),
        )
        .expect("valid parts");
        let q = [0.4f32, 0.3, 0.2];
        let qn = slice_norm(&q);
        let a: Vec<ConceptScores> = ix.scan(&q, qn).collect();
        let b: Vec<ConceptScores> = rebuilt.scan(&q, qn).collect();
        assert_eq!(a, b);
        assert_eq!(ix.best_seed(0, &q, qn), rebuilt.best_seed(0, &q, qn));
    }

    #[test]
    fn from_parts_rejects_inconsistent_layout() {
        let ix = sample_index();
        let words: Vec<String> = (0..ix.row_count())
            .map(|r| ix.row_word(r).to_string())
            .collect();
        let concepts: Vec<(String, usize, usize, usize)> = ix
            .concept_layout()
            .map(|(n, s, r, k)| (n.to_string(), s, r, k))
            .collect();
        let build = |data: Vec<f32>,
                     norms: Vec<f64>,
                     reps: Vec<f32>,
                     cs: Vec<(String, usize, usize, usize)>| {
            VectorIndex::from_parts(3, data.into(), norms.into(), reps.into(), words.clone(), cs)
        };
        let (d, n, r) = (
            ix.data().to_vec(),
            ix.norms().to_vec(),
            ix.rep_sums().to_vec(),
        );
        assert!(build(
            d[..d.len() - 1].to_vec(),
            n.clone(),
            r.clone(),
            concepts.clone()
        )
        .is_err());
        assert!(build(
            d.clone(),
            n[..n.len() - 1].to_vec(),
            r.clone(),
            concepts.clone()
        )
        .is_err());
        assert!(build(
            d.clone(),
            n.clone(),
            r[..r.len() - 1].to_vec(),
            concepts.clone()
        )
        .is_err());
        let mut gap = concepts.clone();
        gap[1].1 += 1;
        assert!(build(d.clone(), n.clone(), r.clone(), gap).is_err());
        let mut bad_seeds = concepts.clone();
        bad_seeds[0].3 = 99;
        assert!(build(d.clone(), n.clone(), r.clone(), bad_seeds).is_err());
        let mut short = concepts.clone();
        short.pop();
        assert!(build(d, n, r, short).is_err());
    }

    #[test]
    fn add_concept_from_block_copies_bit_identically() {
        let ix = sample_index();
        // Interleave block-copied concepts with a freshly scanned one.
        let mut b = VectorIndexBuilder::new(3);
        b.add_concept_from(&ix, 0);
        b.add_concept("New", 1, [("n1", &[0.3f32, 0.3, 0.3][..])]);
        b.add_concept_from(&ix, 2);
        let out = b.build();

        let mut fresh = VectorIndexBuilder::new(3);
        fresh.add_concept(
            "A",
            2,
            [
                ("a1", &[1.0f32, 0.0, 0.0][..]),
                ("a2", &[0.6, 0.8, 0.0][..]),
                ("ax", &[0.0, 1.0, 0.0][..]),
            ],
        );
        fresh.add_concept("New", 1, [("n1", &[0.3f32, 0.3, 0.3][..])]);
        fresh.add_concept("Empty", 0, []);
        let fresh = fresh.build();

        assert_eq!(out.data(), fresh.data());
        assert_eq!(out.norms(), fresh.norms());
        assert_eq!(out.rep_sums(), fresh.rep_sums());
        assert_eq!(
            out.concept_layout().collect::<Vec<_>>(),
            fresh.concept_layout().collect::<Vec<_>>()
        );
        assert_eq!(
            (0..out.row_count())
                .map(|r| out.row_word(r))
                .collect::<Vec<_>>(),
            (0..fresh.row_count())
                .map(|r| fresh.row_word(r))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn builder_rejects_wrong_dimension() {
        let mut b = VectorIndexBuilder::new(3);
        b.add_concept("A", 0, [("x", &[1.0f32, 2.0][..])]);
    }
}
