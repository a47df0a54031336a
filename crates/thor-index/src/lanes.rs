//! The four-lane dot kernel under every exact similarity scan of the
//! build and match paths.
//!
//! The per-row `dot` folds in `f64` element order: one dependent add
//! chain, so a 48-dim dot waits on add latency, not on throughput.
//! [`dot4`] runs four such chains side by side over four rows stored
//! **interleaved** — `block[i * LANES + k]` is row `k`'s component `i`
//! — so one pass over the query feeds every lane from a contiguous run
//! of the block. Each lane is exactly `dot`'s fold: start at `+0.0`,
//! add `q[i] * row[i]` for ascending `i`. Lane `k` is therefore
//! bit-identical to `dot(q, row_k)`; the lanes only overlap the
//! latencies of independent chains. (Rust never contracts `a + b * c`
//! into a fused multiply-add, so every step rounds exactly as in the
//! one-row fold.)
//!
//! Interleaved copies are always derived from the row-major data and
//! never persisted: [`PruneIndex`](crate::PruneIndex) keeps them for its
//! members and centroids, and [`LaneRows`] serves callers that score a
//! query against every row of a small index.

use crate::index::{cosine_of_dot, slice_norm, VectorIndex};

/// Rows per interleaved block.
pub(crate) const LANES: usize = 4;

/// The dots of `query` with the four rows interleaved in `block`
/// (`block.len() == query.len() * LANES`). Lane `k` is bit-identical
/// to the in-order fold of `query · row_k`.
#[inline]
pub(crate) fn dot4(query: &[f32], block: &[f32]) -> [f64; LANES] {
    assert_eq!(block.len(), query.len() * LANES, "block dimension mismatch");
    let mut acc = [0.0f64; LANES];
    for (&q, lanes) in query.iter().zip(block.chunks_exact(LANES)) {
        let q = q as f64;
        for (a, &x) in acc.iter_mut().zip(lanes) {
            *a += q * x as f64;
        }
    }
    acc
}

/// Append `rows` (each `dim` long) to `out` interleaved [`LANES`] to a
/// block, zero-filling the missing lanes of the last block. Returns the
/// number of blocks appended.
pub(crate) fn interleave<'a, T: Copy + Default + 'a>(
    out: &mut Vec<T>,
    dim: usize,
    rows: impl IntoIterator<Item = &'a [T]>,
) -> usize {
    let base = out.len();
    let block_len = dim * LANES;
    let mut n = 0usize;
    for row in rows {
        debug_assert_eq!(row.len(), dim);
        let (b, k) = (n / LANES, n % LANES);
        if k == 0 {
            out.resize(base + (b + 1) * block_len, T::default());
        }
        let block = &mut out[base + b * block_len..base + (b + 1) * block_len];
        for (i, &x) in row.iter().enumerate() {
            block[i * LANES + k] = x;
        }
        n += 1;
    }
    n.div_ceil(LANES)
}

/// The length of the interleaved copy of groups of `rows` rows each,
/// every group padded to whole blocks.
pub(crate) fn padded_len(dim: usize, rows: impl IntoIterator<Item = usize>) -> usize {
    rows.into_iter()
        .map(|n| n.next_multiple_of(LANES))
        .sum::<usize>()
        * dim
}

/// An interleaved copy of every row of a [`VectorIndex`], in index
/// order, with the rows' norms: the exact cosine of one query against
/// all rows, four rows per kernel pass. Rows of different concepts may
/// share a block; callers fold the cosines per concept in row order.
#[derive(Debug, Clone)]
pub struct LaneRows {
    dim: usize,
    blocks: Vec<f32>,
    norms: Vec<f64>,
}

impl LaneRows {
    /// The interleaved copy of `ix`'s rows.
    pub fn of_index(ix: &VectorIndex) -> Self {
        Self::from_rows(ix.dim(), (0..ix.row_count()).map(|r| ix.row(r)))
    }

    /// The interleaved copy of `rows`, in order, each with its L2 norm
    /// (`thor_embed::Vector::norm`'s arithmetic). Panics when a row is
    /// not `dim` long.
    pub fn from_rows<'a>(dim: usize, rows: impl IntoIterator<Item = &'a [f32]>) -> Self {
        let mut blocks = Vec::new();
        let mut norms = Vec::new();
        let rows = rows.into_iter().inspect(|row| {
            assert_eq!(row.len(), dim, "row dimension mismatch");
            norms.push(slice_norm(row));
        });
        interleave(&mut blocks, dim, rows);
        Self { dim, blocks, norms }
    }

    /// Replace `out` with the cosine of `query` (L2 norm `query_norm`)
    /// against every row, in row order — each bit-identical to the
    /// index's per-row cosine (0.0 when either norm is zero, clamped to
    /// [-1, 1]).
    pub fn cosines(&self, query: &[f32], query_norm: f64, out: &mut Vec<f64>) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        out.clear();
        let block_len = self.dim * LANES;
        for (b, norms) in self.norms.chunks(LANES).enumerate() {
            let dots = dot4(query, &self.blocks[b * block_len..(b + 1) * block_len]);
            out.extend(
                norms
                    .iter()
                    .zip(dots)
                    .map(|(&rn, d)| cosine_of_dot(d, query_norm, rn)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{dot, VectorIndexBuilder};

    /// SplitMix64 over raw bit patterns: random signs, exponents and
    /// mantissas, so the folds see every rounding situation.
    struct Bits(u64);

    impl Bits {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A finite f32 from one of several regimes: unit-scale,
        /// mixed magnitudes, subnormals and signed zeros.
        fn value(&mut self) -> f32 {
            let r = self.next();
            let unit = (r >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0;
            match r % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits((r >> 8) as u32 & 0x807f_ffff), // subnormal
                3 => unit * 1e30,
                4 => unit * 1e-30,
                5 => unit * 3.0e5,
                _ => unit,
            }
        }
    }

    fn lane_bits(query: &[f32], rows: &[Vec<f32>]) -> Vec<u64> {
        let mut block = Vec::new();
        let blocks = interleave(&mut block, query.len(), rows.iter().map(Vec::as_slice));
        assert_eq!(blocks, rows.len().div_ceil(LANES));
        let block_len = query.len() * LANES;
        (0..blocks)
            .flat_map(|b| dot4(query, &block[b * block_len..(b + 1) * block_len]))
            .take(rows.len())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn every_lane_is_the_per_row_fold_bit_for_bit() {
        let mut bits = Bits(0x1a2e_5eed);
        for dim in 1..=64usize {
            for rows in [1usize, 2, 3, 4, 5, 6, 7, 9] {
                let query: Vec<f32> = (0..dim).map(|_| bits.value()).collect();
                let rows: Vec<Vec<f32>> = (0..rows)
                    .map(|_| (0..dim).map(|_| bits.value()).collect())
                    .collect();
                let want: Vec<u64> = rows.iter().map(|r| dot(&query, r).to_bits()).collect();
                assert_eq!(lane_bits(&query, &rows), want, "dim {dim}");
            }
        }
    }

    #[test]
    fn zero_lanes_are_positive_zero() {
        // The same cases `dot` pins, in every lane position.
        let query = [1.0f32, -0.0];
        let rows = vec![vec![-0.0f32, 1.0], vec![0.0, -0.0], vec![-0.0, -0.0]];
        for want in lane_bits(&query, &rows) {
            assert_eq!(want, 0.0f64.to_bits());
        }
    }

    #[test]
    fn cancellation_order_is_the_fold_order() {
        // Folded in order `((1e30 + 1) - 1e30) + 1` is 1; summed
        // pairwise `(1e30 + 1) + (-1e30 + 1)` is 0. A lane that
        // reassociated would differ.
        let query = [1e30f32, 1.0, -1e30, 1.0];
        let rows = vec![vec![1.0f32; 4]; 4];
        let want = dot(&query, &rows[0]).to_bits();
        assert_eq!(want, 1.0f64.to_bits());
        assert_eq!(lane_bits(&query, &rows), vec![want; 4]);
    }

    #[test]
    fn lane_rows_match_the_per_row_cosine() {
        let mut bits = Bits(99);
        for dim in [1usize, 3, 8, 48] {
            for rows in [1usize, 2, 3, 5, 8, 11] {
                let mut b = VectorIndexBuilder::new(dim);
                let data: Vec<Vec<f32>> = (0..rows)
                    .map(|r| {
                        if r == 1 {
                            vec![0.0; dim] // zero-norm row
                        } else {
                            (0..dim).map(|_| bits.value()).collect()
                        }
                    })
                    .collect();
                // Two concepts, so a block straddles their boundary.
                let split = rows / 2;
                b.add_concept(
                    "A",
                    split,
                    data[..split].iter().map(|v| ("a", v.as_slice())),
                );
                b.add_concept("B", 0, data[split..].iter().map(|v| ("b", v.as_slice())));
                let ix = b.build();
                let lanes = LaneRows::of_index(&ix);
                let mut out = Vec::new();
                for query in [
                    (0..dim).map(|_| bits.value()).collect::<Vec<f32>>(),
                    vec![0.0; dim],
                ] {
                    let qn = slice_norm(&query);
                    lanes.cosines(&query, qn, &mut out);
                    let want: Vec<u64> = (0..rows)
                        .map(|r| ix.row_cosine(r, &query, qn).to_bits())
                        .collect();
                    assert_eq!(out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
                }
            }
        }
    }
}
