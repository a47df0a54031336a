//! Sub-linear candidate generation: clustered bound-pruned scans.
//!
//! The exhaustive [`VectorIndex::scan`] touches every representative
//! row for every query. This module freezes a two-level triage next
//! to the index so the hot paths can skip almost all of that work while
//! staying **bit-identical** to the exhaustive scan:
//!
//! 1. **Concept bounds** — one centroid+radius ball per concept over
//!    its normalized rows. A concept whose bound cannot beat the
//!    admission threshold (τ or the running argmax floor) is skipped
//!    whole, O(d) instead of O(rows·d).
//! 2. **Cluster bounds** — a deterministic k-means (vendored SplitMix64
//!    seeding, fixed iteration count, left early only at a fixed point)
//!    over each concept's seed prefix and expansion suffix, stored as
//!    centroid+radius balls over row blocks. Surviving concepts prune at
//!    block granularity.
//!
//! ## Why the pruned scan is bit-identical
//!
//! For a normalized query `q̂` and normalized member row `r̂` of a ball
//! `(c, radius)`: `cos(q, r) = dot(q̂, r̂) ≤ dot(q̂, c) + ‖r̂ − c‖ ≤
//! dot(q̂, c) + radius` (Cauchy–Schwarz). [`PRUNE_SLACK`] is added on
//! top, which swallows both the floating-point error of the bound
//! arithmetic and the `clamp(-1, 1)` lift of the similarity, so every
//! stored bound is *strictly* greater than every member similarity.
//! Skip decisions compare bounds with strict `<` against a floor that
//! is itself an attained similarity (or τ), so a skipped block can
//! never contain the row that decides the result; the surviving rows
//! are folded with the very same `f64` operations as the exhaustive
//! scan. Similarities here are never `-0.0` (accumulation starts at
//! `+0.0` and IEEE-754 round-to-nearest sums that hit zero produce
//! `+0.0`), so equal values are bit-equal and the fold's result does
//! not depend on traversal order.
//!
//! The rows, cluster centroids and concept centroids are read through
//! the four-lane kernel (`lanes.rs`) from interleaved copies that
//! `build` and `from_parts` derive and nothing persists. Each lane is
//! the per-row fold, and the walks consume lanes in stored order, so
//! every fold, gate and tie rule sees the same values in the same
//! sequence as a per-row loop.
//!
//! The whole structure is a pure deterministic function of the
//! [`VectorIndex`] bits, and each concept's part of it a function of
//! that concept's rows and position alone. That is what lets a delta
//! apply copy every untouched concept's balls ([`PruneIndex::evolve`])
//! and still match a fresh build byte-for-byte.

use std::cmp::Ordering;
use std::ops::{ControlFlow, Range};

use thor_fault::{ByteReader, ByteWriter, FrozenSlice};

use crate::index::{cosine_of_dot, dot, VectorIndex};
use crate::lanes::{dot4, interleave, padded_len, LANES};

/// Additive slack on every stored bound: strictly larger than the
/// floating-point error of the bound arithmetic (dots of unit-scale
/// values at embedding dimensionality are exact to ~1e-12), so a bound
/// is always *strictly* above every member similarity.
pub const PRUNE_SLACK: f64 = 1e-7;

/// Target rows per cluster; `k = rows.div_ceil(CLUSTER_TARGET)`.
const CLUSTER_TARGET: usize = 16;

/// Fixed k-means iteration count — never data-dependent, so the stored
/// sections (and with them the artifact bytes) are stable. (A run that
/// reaches its fixed point early stops there; every later iteration
/// would repeat it bit for bit.)
const KMEANS_ITERS: usize = 8;

/// Base seed for the deterministic k-means initialization.
const KMEANS_SEED: u64 = 0x7468_6f72_2d70_7231;

/// Counters accumulated by one pruned operation, flushed into
/// `PipelineMetrics` by the matcher.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    /// Whole concepts skipped via their concept-level bound.
    pub concepts: u64,
    /// Cluster blocks skipped via their centroid+radius bound.
    pub clusters: u64,
    /// Rows never scored (covered by a skipped concept or cluster).
    pub rows: u64,
}

impl PruneStats {
    /// Fold `other` into `self`.
    pub fn absorb(&mut self, other: &PruneStats) {
        self.concepts += other.concepts;
        self.clusters += other.clusters;
        self.rows += other.rows;
    }
}

/// Structural summary of a frozen [`PruneIndex`], decodable from the
/// `prune.meta` section bytes alone (for `thor inspect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneSummary {
    /// Vector dimensionality the structure was built for.
    pub dim: usize,
    /// Total representative rows covered.
    pub rows: usize,
    /// Concepts covered.
    pub concepts: usize,
    /// Total clusters across all concepts.
    pub clusters: usize,
    /// Rows of the largest single cluster.
    pub max_cluster_rows: usize,
}

/// The frozen pruning structure: concept balls and cluster balls with
/// their member row lists. Built once at prepare time (or rebuilt
/// deterministically on delta), immutable afterwards; the flat arrays
/// may be zero-copy views into a mapped artifact.
#[derive(Debug, Clone)]
pub struct PruneIndex {
    dim: usize,
    /// Per concept: `(first_cluster, clusters, seed_clusters)`. The
    /// first `seed_clusters` clusters cover exactly the concept's seed
    /// prefix; the rest cover the expansion suffix.
    concept_clusters: Vec<(usize, usize, usize)>,
    /// Per cluster: `(member_start, member_len)` into `members`.
    clusters: Vec<(usize, usize)>,
    /// Global row ids, ascending within each cluster.
    members: FrozenSlice<u32>,
    /// Cluster centroids over normalized rows, `clusters × dim`.
    centroids: FrozenSlice<f32>,
    /// Cluster ball radii (f64, computed against the stored f32
    /// centroid so the query-time bound uses the exact same values).
    radii: FrozenSlice<f64>,
    /// Concept centroids over normalized rows, `concepts × dim`.
    concept_centroids: FrozenSlice<f32>,
    /// Concept ball radii.
    concept_radii: FrozenSlice<f64>,
    /// Derived, never persisted: the interleaved copies the lane kernel
    /// scans.
    lanes: ScanLanes,
}

/// The interleaved copies an exact scan reads, [`LANES`] rows to a
/// block, derived from the index and the stored sections by `build`
/// and `from_parts` and never persisted. Every group is padded to whole
/// blocks and keeps its stored order, so the kernel's lanes come back
/// in exactly the sequence the per-row loops visited.
#[derive(Debug, Clone)]
struct ScanLanes {
    /// Each cluster's member rows, in member order.
    members: Vec<f32>,
    /// First block of each cluster in `members`.
    member_blocks: Vec<usize>,
    /// Each concept's cluster centroids, in cluster order.
    centroids: Vec<f32>,
    /// First block of each concept in `centroids`.
    centroid_blocks: Vec<usize>,
    /// The concept centroids, in concept order.
    concept_centroids: Vec<f32>,
}

impl ScanLanes {
    fn derive(
        ix: &VectorIndex,
        concept_clusters: &[(usize, usize, usize)],
        clusters: &[(usize, usize)],
        members: &[u32],
        centroids: &[f32],
        concept_centroids: &[f32],
    ) -> Self {
        let dim = ix.dim();
        // Exact capacities: these copies live as long as the index.
        let mut lanes = ScanLanes {
            members: Vec::with_capacity(padded_len(dim, clusters.iter().map(|&(_, n)| n))),
            member_blocks: Vec::with_capacity(clusters.len()),
            centroids: Vec::with_capacity(padded_len(
                dim,
                concept_clusters.iter().map(|&(_, n, _)| n),
            )),
            centroid_blocks: Vec::with_capacity(concept_clusters.len()),
            concept_centroids: Vec::with_capacity(padded_len(dim, [concept_clusters.len()])),
        };
        let mut next = 0usize;
        for &(mstart, mlen) in clusters {
            lanes.member_blocks.push(next);
            next += interleave(
                &mut lanes.members,
                dim,
                members[mstart..mstart + mlen]
                    .iter()
                    .map(|&r| ix.row(r as usize)),
            );
        }
        let mut next = 0usize;
        for &(first, count, _) in concept_clusters {
            lanes.centroid_blocks.push(next);
            next += interleave(
                &mut lanes.centroids,
                dim,
                (first..first + count).map(|k| &centroids[k * dim..(k + 1) * dim]),
            );
        }
        interleave(
            &mut lanes.concept_centroids,
            dim,
            (0..concept_clusters.len()).map(|ci| &concept_centroids[ci * dim..(ci + 1) * dim]),
        );
        lanes
    }
}

/// The ball bound `dot(q̂, c) + radius + PRUNE_SLACK` from the raw
/// query·centroid dot.
#[inline]
fn ball_bound(dot: f64, query_norm: f64, radius: f64) -> f64 {
    dot / query_norm + radius + PRUNE_SLACK
}

/// The flat arrays of a [`PruneIndex`] under construction, appended
/// concept by concept — by k-means over the concept's rows, or copied
/// from a parent structure — in the order the index lists them.
#[derive(Default)]
struct PruneParts {
    concept_clusters: Vec<(usize, usize, usize)>,
    clusters: Vec<(usize, usize)>,
    members: Vec<u32>,
    centroids: Vec<f32>,
    radii: Vec<f64>,
    concept_centroids: Vec<f32>,
    concept_radii: Vec<f64>,
}

impl PruneParts {
    /// Cluster concept `ci` of `ix`: its concept ball, then k-means
    /// over its seed prefix and its expansion suffix, seeded per
    /// (concept, group). Reads only the concept's own rows, normalized
    /// to f64 (zero-norm rows as the zero vector, which every ball then
    /// contains, keeping the bound valid for their defined similarity
    /// of 0.0).
    ///
    /// With a `parent` structure (and the index it was built for), a
    /// group whose rows and norms are bit-identical to the same group
    /// of the parent's concept `ci` is copied from it, member row ids
    /// rebased from the group's start there to its start here: k-means
    /// reads only the group's rows and is seeded by (concept, group),
    /// so it would find the same clusters. The concept ball still
    /// covers all of the concept's rows.
    fn add_concept(
        &mut self,
        ix: &VectorIndex,
        ci: usize,
        parent: Option<(&PruneIndex, &VectorIndex)>,
    ) {
        let dim = ix.dim();
        let (start, crows, seed_rows) = ix.concept_range(ci);
        let mut unit = vec![0.0f64; crows * dim];
        for local in 0..crows {
            let rn = ix.row_norm(start + local);
            if rn != 0.0 {
                let u = &mut unit[local * dim..(local + 1) * dim];
                for (u, &x) in u.iter_mut().zip(ix.row(start + local)) {
                    *u = x as f64 / rn;
                }
            }
        }
        let centroid = mean_centroid(&unit, dim, 0..crows);
        self.concept_radii
            .push(ball_radius(&unit, dim, 0..crows, &centroid));
        self.concept_centroids.extend_from_slice(&centroid);

        let first = self.clusters.len();
        let mut seed_clusters = 0usize;
        for (group, range) in [(0u64, 0..seed_rows), (1u64, seed_rows..crows)] {
            let to = start + range.start;
            let same = parent.and_then(|(src, src_ix)| {
                src.same_group(src_ix, ix, ci, group, to..start + range.end)
                    .map(|(clusters, from)| (src, clusters, from))
            });
            if let Some((src, clusters, from)) = same {
                self.copy_clusters(src, clusters, from, to);
            } else {
                let seed = KMEANS_SEED ^ (((ci as u64) << 1) | group);
                for group_members in kmeans_groups(&unit, dim, range, seed) {
                    let rows = group_members.iter().map(|&r| r as usize);
                    let centroid = mean_centroid(&unit, dim, rows.clone());
                    self.radii.push(ball_radius(&unit, dim, rows, &centroid));
                    self.clusters
                        .push((self.members.len(), group_members.len()));
                    self.members
                        .extend(group_members.iter().map(|&r| (start + r as usize) as u32));
                    self.centroids.extend_from_slice(&centroid);
                }
            }
            if group == 0 {
                seed_clusters = self.clusters.len() - first;
            }
        }
        self.concept_clusters
            .push((first, self.clusters.len() - first, seed_clusters));
    }

    /// Append concept `ci` of `src` (built for `src_ix`) verbatim, its
    /// member row ids rebased from the concept's start in `src_ix` to
    /// `start`. Bit-identical to clustering the same rows afresh:
    /// k-means reads only the concept's rows and is seeded by the
    /// concept's position, not by where its rows sit.
    fn add_concept_from(
        &mut self,
        src: &PruneIndex,
        src_ix: &VectorIndex,
        ci: usize,
        start: usize,
    ) {
        let dim = src.dim;
        let (src_start, _, _) = src_ix.concept_range(ci);
        let (first, count, seed_clusters) = src.concept_clusters[ci];
        self.concept_centroids
            .extend_from_slice(&src.concept_centroids[ci * dim..(ci + 1) * dim]);
        self.concept_radii.push(src.concept_radii[ci]);
        let new_first = self.clusters.len();
        self.copy_clusters(src, first..first + count, src_start, start);
        self.concept_clusters
            .push((new_first, count, seed_clusters));
    }

    /// Append clusters `clusters` of `src` verbatim, each member row id
    /// `r` rebased to `r - from + to`.
    fn copy_clusters(&mut self, src: &PruneIndex, clusters: Range<usize>, from: usize, to: usize) {
        let dim = src.dim;
        for &(mstart, mlen) in &src.clusters[clusters.clone()] {
            self.clusters.push((self.members.len(), mlen));
            self.members.extend(
                src.members[mstart..mstart + mlen]
                    .iter()
                    .map(|&r| (r as usize - from + to) as u32),
            );
        }
        self.centroids
            .extend_from_slice(&src.centroids[clusters.start * dim..clusters.end * dim]);
        self.radii.extend_from_slice(&src.radii[clusters]);
    }

    /// Freeze the parts for `ix`, deriving the scan lanes.
    fn finish(self, ix: &VectorIndex) -> PruneIndex {
        let lanes = ScanLanes::derive(
            ix,
            &self.concept_clusters,
            &self.clusters,
            &self.members,
            &self.centroids,
            &self.concept_centroids,
        );
        PruneIndex {
            dim: ix.dim(),
            concept_clusters: self.concept_clusters,
            clusters: self.clusters,
            members: self.members.into(),
            centroids: self.centroids.into(),
            radii: self.radii.into(),
            concept_centroids: self.concept_centroids.into(),
            concept_radii: self.concept_radii.into(),
            lanes,
        }
    }
}

impl PruneIndex {
    /// Build the pruning structure for `ix`. Pure and deterministic:
    /// the same index bits always produce the same structure.
    pub fn build(ix: &VectorIndex) -> Self {
        assert!(
            ix.row_count() <= u32::MAX as usize,
            "row ids must fit in u32"
        );
        let mut parts = PruneParts::default();
        for ci in 0..ix.concept_count() {
            parts.add_concept(ix, ci, None);
        }
        parts.finish(ix)
    }

    /// The structure [`PruneIndex::build`] makes for `ix`, an index
    /// evolved from `parent_ix` (this structure's index) by a delta:
    /// the concepts marked in `kept` (one flag per concept of `ix`) are
    /// copied with their member row ids rebased. Every other concept
    /// gets a fresh concept ball over all its rows, but k-means runs
    /// only on the groups (seed prefix, expansion suffix) whose rows
    /// changed: a group whose rows and norms are bit-identical to the
    /// same group of the parent's concept is copied, its member row ids
    /// rebased from the group's start in `parent_ix` to its start in
    /// `ix`. Bit-identical to `build(ix)` as long as every kept
    /// concept's rows are the same in both indices, which is what
    /// `VectorIndexBuilder::add_concept_from` produces, and concepts
    /// keep their positions (k-means is seeded by concept and group).
    ///
    /// Panics if `kept` does not have one flag per concept of `ix`, or
    /// marks a concept that `parent_ix` lacks or whose row layout
    /// differs between the two indices.
    pub fn evolve(&self, parent_ix: &VectorIndex, ix: &VectorIndex, kept: &[bool]) -> Self {
        assert!(
            ix.row_count() <= u32::MAX as usize,
            "row ids must fit in u32"
        );
        assert_eq!(kept.len(), ix.concept_count(), "one flag per concept");
        let mut parts = PruneParts::default();
        for (ci, &keep) in kept.iter().enumerate() {
            if keep {
                let (start, rows, seed_rows) = ix.concept_range(ci);
                let (_, parent_rows, parent_seed_rows) = parent_ix.concept_range(ci);
                assert_eq!(
                    (rows, seed_rows),
                    (parent_rows, parent_seed_rows),
                    "kept concept {ci} changed its rows"
                );
                parts.add_concept_from(self, parent_ix, ci, start);
            } else {
                parts.add_concept(ix, ci, Some((self, parent_ix)));
            }
        }
        parts.finish(ix)
    }

    /// The clusters this structure (built for `ix_self`) holds for
    /// group `group` (0 the seed prefix, 1 the expansion suffix) of
    /// concept `ci`, with the group's first row in `ix_self` — if the
    /// concept exists there and that group's rows and norms are
    /// bit-identical to rows `rows` of `ix`.
    fn same_group(
        &self,
        ix_self: &VectorIndex,
        ix: &VectorIndex,
        ci: usize,
        group: u64,
        rows: Range<usize>,
    ) -> Option<(Range<usize>, usize)> {
        if ci >= ix_self.concept_count() {
            return None;
        }
        let (start, crows, seed_rows) = ix_self.concept_range(ci);
        let (first, count, seed_clusters) = self.concept_clusters[ci];
        let (own, clusters) = if group == 0 {
            (start..start + seed_rows, first..first + seed_clusters)
        } else {
            (
                start + seed_rows..start + crows,
                first + seed_clusters..first + count,
            )
        };
        let dim = ix.dim();
        let same = own.len() == rows.len()
            && same_bits(
                &ix_self.data()[own.start * dim..own.end * dim],
                &ix.data()[rows.start * dim..rows.end * dim],
            )
            && ix_self.norms()[own.clone()]
                .iter()
                .zip(&ix.norms()[rows])
                .all(|(a, b)| a.to_bits() == b.to_bits());
        same.then_some((clusters, own.start))
    }

    /// Global row ids, cluster-major, for artifact serialization.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Cluster centroids (`clusters × dim`), for artifact serialization.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Cluster ball radii, for artifact serialization.
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// Concept centroids (`concepts × dim`), for artifact serialization.
    pub fn concept_centroids(&self) -> &[f32] {
        &self.concept_centroids
    }

    /// Concept ball radii, for artifact serialization.
    pub fn concept_radii(&self) -> &[f64] {
        &self.concept_radii
    }

    /// Encode the structural layout (everything not carried by the flat
    /// arrays) for the `prune.meta` artifact section.
    pub fn meta_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.dim as u64);
        w.put_u64(self.members.len() as u64);
        w.put_u64(self.concept_clusters.len() as u64);
        w.put_u64(self.clusters.len() as u64);
        for &(_, count, seed_count) in &self.concept_clusters {
            w.put_u64(count as u64);
            w.put_u64(seed_count as u64);
        }
        for &(_, len) in &self.clusters {
            w.put_u64(len as u64);
        }
        w.into_bytes()
    }

    /// Decode a [`PruneSummary`] from `prune.meta` section bytes.
    pub fn summarize_meta(meta: &[u8]) -> Result<PruneSummary, String> {
        let mut r = ByteReader::new(meta);
        let e = |err: thor_fault::ThorError| format!("prune.meta: {err}");
        let dim = r.get_u64().map_err(e)? as usize;
        let rows = r.get_u64().map_err(e)? as usize;
        let concepts = r.get_u64().map_err(e)? as usize;
        let clusters = r.get_u64().map_err(e)? as usize;
        for _ in 0..concepts {
            r.get_u64().map_err(e)?;
            r.get_u64().map_err(e)?;
        }
        let mut max_cluster_rows = 0usize;
        for _ in 0..clusters {
            max_cluster_rows = max_cluster_rows.max(r.get_u64().map_err(e)? as usize);
        }
        Ok(PruneSummary {
            dim,
            rows,
            concepts,
            clusters,
            max_cluster_rows,
        })
    }

    /// Reassemble a pruning structure from its artifact sections,
    /// validating every layout invariant the query loops rely on
    /// against `ix` — corrupt or mismatched sections yield a named
    /// error instead of a panic or a silently different scan.
    pub fn from_parts(
        ix: &VectorIndex,
        meta: &[u8],
        members: FrozenSlice<u32>,
        centroids: FrozenSlice<f32>,
        radii: FrozenSlice<f64>,
        concept_centroids: FrozenSlice<f32>,
        concept_radii: FrozenSlice<f64>,
    ) -> Result<Self, String> {
        let mut r = ByteReader::new(meta);
        let e = |err: thor_fault::ThorError| format!("prune.meta: {err}");
        let dim = r.get_u64().map_err(e)? as usize;
        let rows = r.get_u64().map_err(e)? as usize;
        let concepts = r.get_u64().map_err(e)? as usize;
        let cluster_total = r.get_u64().map_err(e)? as usize;
        if dim != ix.dim() || rows != ix.row_count() || concepts != ix.concept_count() {
            return Err(format!(
                "prune structure shape ({concepts} concepts, {rows} rows, dim {dim}) \
                 does not match the index ({} concepts, {} rows, dim {})",
                ix.concept_count(),
                ix.row_count(),
                ix.dim()
            ));
        }
        let mut concept_clusters = Vec::with_capacity(concepts);
        let mut next = 0usize;
        for ci in 0..concepts {
            let count = r.get_u64().map_err(e)? as usize;
            let seed_count = r.get_u64().map_err(e)? as usize;
            if seed_count > count {
                return Err(format!(
                    "prune concept {ci} claims {seed_count} seed clusters of {count}"
                ));
            }
            concept_clusters.push((next, count, seed_count));
            next += count;
        }
        if next != cluster_total {
            return Err(format!(
                "prune concepts claim {next} clusters but the structure has {cluster_total}"
            ));
        }
        let mut clusters = Vec::with_capacity(cluster_total);
        let mut mstart = 0usize;
        for _ in 0..cluster_total {
            let len = r.get_u64().map_err(e)? as usize;
            clusters.push((mstart, len));
            mstart += len;
        }
        if mstart != rows || members.len() != rows {
            return Err(format!(
                "prune clusters cover {mstart} member rows, section has {}, index has {rows}",
                members.len()
            ));
        }
        for (name, have, want) in [
            ("prune.centroids", centroids.len(), cluster_total * dim),
            ("prune.radii", radii.len(), cluster_total),
            (
                "prune.concept_centroids",
                concept_centroids.len(),
                concepts * dim,
            ),
            ("prune.concept_radii", concept_radii.len(), concepts),
        ] {
            if have != want {
                return Err(format!("{name} has {have} entries, expected {want}"));
            }
        }
        // Every cluster must hold ascending row ids inside its
        // concept's seed prefix or expansion suffix, and together the
        // clusters must cover each concept's rows exactly once.
        let mut seen = vec![false; rows];
        for (ci, &(first, count, seed_count)) in concept_clusters.iter().enumerate() {
            let (start, crows, seed_rows) = ix.concept_range(ci);
            for (k, &(cstart, clen)) in clusters[first..first + count].iter().enumerate() {
                let range = if k < seed_count {
                    start..start + seed_rows
                } else {
                    start + seed_rows..start + crows
                };
                let mut prev: Option<u32> = None;
                for &row in &members[cstart..cstart + clen] {
                    let r = row as usize;
                    if !range.contains(&r) || seen[r] || prev.is_some_and(|p| p >= row) {
                        return Err(format!(
                            "prune cluster {} of concept {ci} does not partition rows \
                             {}..{} of the index",
                            first + k,
                            start,
                            start + crows
                        ));
                    }
                    seen[r] = true;
                    prev = Some(row);
                }
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("prune clusters do not cover every index row".to_string());
        }
        let lanes = ScanLanes::derive(
            ix,
            &concept_clusters,
            &clusters,
            &members,
            &centroids,
            &concept_centroids,
        );
        Ok(Self {
            dim,
            concept_clusters,
            clusters,
            members,
            centroids,
            radii,
            concept_centroids,
            concept_radii,
            lanes,
        })
    }

    /// Upper bound on `cos(query, row)` over all rows of `concept`;
    /// `f64::MIN` for an empty concept. `query_norm` must be non-zero.
    fn concept_bound(
        &self,
        ix: &VectorIndex,
        concept: usize,
        query: &[f32],
        query_norm: f64,
    ) -> f64 {
        let (_, rows, _) = ix.concept_range(concept);
        if rows == 0 {
            return f64::MIN;
        }
        let c = &self.concept_centroids[concept * self.dim..(concept + 1) * self.dim];
        ball_bound(dot(query, c), query_norm, self.concept_radii[concept])
    }

    /// [`concept_bound`](Self::concept_bound) of every concept, in
    /// concept order, four centroids per lane-kernel pass.
    fn concept_bounds(
        &self,
        ix: &VectorIndex,
        query: &[f32],
        query_norm: f64,
    ) -> Vec<(f64, usize)> {
        let concepts = ix.concept_count();
        let block_len = self.dim * LANES;
        let mut bounds = Vec::with_capacity(concepts);
        for (b, first) in (0..concepts).step_by(LANES).enumerate() {
            let dots = dot4(
                query,
                &self.lanes.concept_centroids[b * block_len..(b + 1) * block_len],
            );
            for (ci, d) in (first..concepts.min(first + LANES)).zip(dots) {
                let bound = if ix.concept_rows(ci) == 0 {
                    f64::MIN
                } else {
                    ball_bound(d, query_norm, self.concept_radii[ci])
                };
                bounds.push((bound, ci));
            }
        }
        bounds
    }

    /// The upper bound on `cos(query, row)` over the member rows of each
    /// of the first `count` clusters of `concept`, handed to `visit` as
    /// `(cluster, bound)` in cluster order — four centroids per
    /// lane-kernel pass. `query_norm` must be non-zero. Stops at the
    /// first `Break` from `visit`.
    fn cluster_bounds(
        &self,
        concept: usize,
        count: usize,
        query: &[f32],
        query_norm: f64,
        mut visit: impl FnMut(usize, f64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let (first, _, _) = self.concept_clusters[concept];
        let block_len = self.dim * LANES;
        let mut at = self.lanes.centroid_blocks[concept] * block_len;
        for start in (first..first + count).step_by(LANES) {
            let dots = dot4(query, &self.lanes.centroids[at..at + block_len]);
            at += block_len;
            for (k, d) in (start..(first + count).min(start + LANES)).zip(dots) {
                visit(k, ball_bound(d, query_norm, self.radii[k]))?;
            }
        }
        ControlFlow::Continue(())
    }

    /// The exact cosine of `query` with each member row of cluster `k`,
    /// handed to `visit` as `(row, sim)` in stored member order — four
    /// rows per lane-kernel pass, each bit-identical to the index's
    /// per-row cosine. Stops at the first `Break` from `visit`.
    fn member_cosines(
        &self,
        ix: &VectorIndex,
        k: usize,
        query: &[f32],
        query_norm: f64,
        mut visit: impl FnMut(usize, f64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let (mstart, mlen) = self.clusters[k];
        let block_len = self.dim * LANES;
        let mut at = self.lanes.member_blocks[k] * block_len;
        for rows in self.members[mstart..mstart + mlen].chunks(LANES) {
            let dots = dot4(query, &self.lanes.members[at..at + block_len]);
            at += block_len;
            for (&row, d) in rows.iter().zip(dots) {
                let row = row as usize;
                visit(row, cosine_of_dot(d, query_norm, ix.row_norm(row)))?;
            }
        }
        ControlFlow::Continue(())
    }

    /// The τ-admission gate of `match_phrase`, pruned: does `concept`
    /// hold any row with `sim + 1e-9 >= tau`? Answers identically to
    /// folding the exhaustive scan's max.
    pub fn gate(
        &self,
        ix: &VectorIndex,
        concept: usize,
        query: &[f32],
        query_norm: f64,
        tau: f64,
        stats: &mut PruneStats,
    ) -> bool {
        let (_, crows, _) = ix.concept_range(concept);
        if crows == 0 {
            return false;
        }
        if query_norm == 0.0 {
            // All similarities are exactly 0.0 for a zero-norm query.
            return 0.0 + 1e-9 >= tau;
        }
        if self.concept_bound(ix, concept, query, query_norm) + 1e-9 < tau {
            stats.concepts += 1;
            stats.rows += crows as u64;
            return false;
        }
        let (_, count, _) = self.concept_clusters[concept];
        self.cluster_bounds(concept, count, query, query_norm, |k, bound| {
            if bound + 1e-9 < tau {
                stats.clusters += 1;
                stats.rows += self.clusters[k].1 as u64;
                return ControlFlow::Continue(());
            }
            self.member_cosines(ix, k, query, query_norm, |_, sim| {
                if sim + 1e-9 >= tau {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
        })
        .is_break()
    }

    /// The cross-concept argmax of the fine-tune τ-expansion, pruned:
    /// equivalent to folding `scan`'s per-concept max with strict `>`
    /// in index order (ties keep the lowest concept), with `f64::MIN`
    /// standing in for empty concepts. Results whose similarity falls
    /// below `floor` may carry an under-reported value (their blocks
    /// are dropped unscanned); callers must only consume results `>=
    /// floor`. Pass `f64::MIN` for the unrestricted argmax.
    pub fn best_concept(
        &self,
        ix: &VectorIndex,
        query: &[f32],
        query_norm: f64,
        floor: f64,
        stats: &mut PruneStats,
    ) -> Option<(usize, f64)> {
        let concepts = ix.concept_count();
        if concepts == 0 {
            return None;
        }
        if query_norm == 0.0 {
            // Exhaustive-fold semantics at zero cost: every similarity
            // is 0.0, empty concepts stand at f64::MIN.
            let mut best: Option<(usize, f64)> = None;
            for ci in 0..concepts {
                let sim = if ix.concept_rows(ci) > 0 {
                    0.0
                } else {
                    f64::MIN
                };
                if best.is_none_or(|(_, b)| sim > b) {
                    best = Some((ci, sim));
                }
            }
            return best;
        }
        let mut order = self.concept_bounds(ix, query, query_norm);
        order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let mut best: Option<(usize, f64)> = None;
        for (pos, &(bound, ci)) in order.iter().enumerate() {
            let eff = match best {
                None => floor,
                Some((_, bs)) => {
                    if bs > floor {
                        bs
                    } else {
                        floor
                    }
                }
            };
            if bound < eff {
                // Bounds are sorted descending: everything from here on
                // is dominated.
                for &(_, rest) in &order[pos..] {
                    stats.concepts += 1;
                    stats.rows += ix.concept_rows(rest) as u64;
                }
                break;
            }
            if let Some((bi, bs)) = best {
                if bound == bs && ci > bi {
                    // Every member sim is strictly below the bound, so
                    // this concept cannot displace an equal-valued,
                    // lower-indexed incumbent.
                    stats.concepts += 1;
                    stats.rows += ix.concept_rows(ci) as u64;
                    continue;
                }
            }
            let Some(m) = self.concept_max(ix, ci, query, query_norm, eff, stats) else {
                continue;
            };
            let replace = match best {
                None => true,
                Some((bi, bs)) => m > bs || (m == bs && ci < bi),
            };
            if replace {
                best = Some((ci, m));
            }
        }
        best
    }

    /// Max member similarity of `concept` with cluster blocks below
    /// `floor` dropped. `Some(f64::MIN)` for an empty concept; `None`
    /// when every block was dropped. The fold over surviving rows uses
    /// the same operations as the exhaustive scan, and every row that
    /// can decide a result `>= floor` survives (its block's bound is
    /// strictly above its similarity), so the returned bits equal the
    /// exhaustive max whenever that max is `>= floor`.
    fn concept_max(
        &self,
        ix: &VectorIndex,
        concept: usize,
        query: &[f32],
        query_norm: f64,
        floor: f64,
        stats: &mut PruneStats,
    ) -> Option<f64> {
        let (_, crows, _) = ix.concept_range(concept);
        if crows == 0 {
            return Some(f64::MIN);
        }
        let (_, count, _) = self.concept_clusters[concept];
        let mut max: Option<f64> = None;
        let _ = self.cluster_bounds(concept, count, query, query_norm, |k, bound| {
            let eff = match max {
                Some(m) if m > floor => m,
                _ => floor,
            };
            if bound < eff {
                stats.clusters += 1;
                stats.rows += self.clusters[k].1 as u64;
                return ControlFlow::Continue(());
            }
            self.member_cosines(ix, k, query, query_norm, |_, sim| {
                max = Some(max.map_or(sim, |a: f64| a.max(sim)));
                ControlFlow::Continue(())
            })
        });
        max
    }

    /// The best-seed lookup of `match_phrase`, pruned over the seed
    /// clusters only: identical to [`VectorIndex::best_seed`] (ties
    /// prefer the lexicographically smaller instance — a total order,
    /// so traversal order does not matter).
    pub fn best_seed<'a>(
        &self,
        ix: &'a VectorIndex,
        concept: usize,
        query: &[f32],
        query_norm: f64,
        stats: &mut PruneStats,
    ) -> Option<(&'a str, f64)> {
        if query_norm == 0.0 {
            return ix.best_seed(concept, query, query_norm);
        }
        let (_, _, seed_count) = self.concept_clusters[concept];
        let mut best: Option<(&str, f64)> = None;
        let _ = self.cluster_bounds(concept, seed_count, query, query_norm, |k, bound| {
            if let Some((_, bs)) = best {
                if bound < bs {
                    stats.clusters += 1;
                    stats.rows += self.clusters[k].1 as u64;
                    return ControlFlow::Continue(());
                }
            }
            self.member_cosines(ix, k, query, query_norm, |row, sim| {
                let word = ix.row_word(row);
                let replace = match best {
                    None => true,
                    Some((bw, bs)) => {
                        sim.total_cmp(&bs).then_with(|| bw.cmp(word)) != Ordering::Less
                    }
                };
                if replace {
                    best = Some((word, sim));
                }
                ControlFlow::Continue(())
            })
        });
        best
    }
}

/// Mean of the normalized rows in `rows`, stored in f32 (the query-time
/// bound widens the stored values back to f64, and the radius below is
/// computed against the *stored* centroid, so precision loss here can
/// never invalidate a bound).
fn mean_centroid(unit: &[f64], dim: usize, rows: impl Iterator<Item = usize> + Clone) -> Vec<f32> {
    let mut acc = vec![0.0f64; dim];
    let mut count = 0usize;
    for r in rows {
        count += 1;
        for (a, &x) in acc.iter_mut().zip(&unit[r * dim..(r + 1) * dim]) {
            *a += x;
        }
    }
    if count == 0 {
        return vec![0.0f32; dim];
    }
    acc.iter().map(|&x| (x / count as f64) as f32).collect()
}

/// Max L2 distance from the stored f32 centroid to any normalized row
/// in `rows`.
fn ball_radius(
    unit: &[f64],
    dim: usize,
    rows: impl Iterator<Item = usize>,
    centroid: &[f32],
) -> f64 {
    let mut worst = 0.0f64;
    for r in rows {
        let d2: f64 = unit[r * dim..(r + 1) * dim]
            .iter()
            .zip(centroid)
            .map(|(&x, &c)| {
                let d = x - c as f64;
                d * d
            })
            .sum();
        worst = worst.max(d2.sqrt());
    }
    worst
}

/// Whether two row slices hold the same `f32` bit patterns.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Deterministic fixed-iteration k-means over the rows of `range`,
/// returning non-empty member groups (ascending row ids within each).
fn kmeans_groups(unit: &[f64], dim: usize, range: Range<usize>, seed: u64) -> Vec<Vec<u32>> {
    let rows: Vec<usize> = range.collect();
    let n = rows.len();
    if n == 0 {
        return Vec::new();
    }
    let k = n.div_ceil(CLUSTER_TARGET);
    let mut rng = SplitMix64::new(seed);
    let mut picks: Vec<usize> = Vec::with_capacity(k);
    while picks.len() < k {
        let p = (rng.next() % n as u64) as usize;
        if !picks.contains(&p) {
            picks.push(p);
        }
    }
    let mut cents = vec![0.0f64; k * dim];
    for (c, &p) in picks.iter().enumerate() {
        cents[c * dim..(c + 1) * dim].copy_from_slice(&unit[rows[p] * dim..(rows[p] + 1) * dim]);
    }
    // The rows interleaved four to a block, assigned four per pass.
    let mut blocks: Vec<f64> = Vec::with_capacity(padded_len(dim, [n]));
    interleave(
        &mut blocks,
        dim,
        rows.iter().map(|&r| &unit[r * dim..(r + 1) * dim]),
    );
    let assign_all = |cents: &[f64], assign: &mut [usize]| {
        for (chunk, block) in assign
            .chunks_mut(LANES)
            .zip(blocks.chunks_exact(dim * LANES))
        {
            let nearest = nearest_centroids(block, cents, dim);
            chunk.copy_from_slice(&nearest[..chunk.len()]);
        }
    };
    // `KMEANS_ITERS` updates, each from the assignment to the current
    // centroids, then the final assignment. Once an assignment repeats
    // the previous one, the centroids it yields are bit-identical to the
    // ones it was made from (non-empty clusters average the same members
    // in the same order; empty ones keep their centroid), so every later
    // assignment repeats it too: stop at that fixed point.
    let mut assign = vec![0usize; n];
    let mut prev = vec![usize::MAX; n];
    for iter in 0..=KMEANS_ITERS {
        assign_all(&cents, &mut assign);
        if iter == KMEANS_ITERS || assign == prev {
            break;
        }
        let mut acc = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for (i, &r) in rows.iter().enumerate() {
            let c = assign[i];
            counts[c] += 1;
            for (a, &x) in acc[c * dim..(c + 1) * dim]
                .iter_mut()
                .zip(&unit[r * dim..(r + 1) * dim])
            {
                *a += x;
            }
        }
        for c in 0..k {
            // An emptied cluster keeps its previous centroid.
            if counts[c] > 0 {
                for d in 0..dim {
                    cents[c * dim + d] = acc[c * dim + d] / counts[c] as f64;
                }
            }
        }
        std::mem::swap(&mut assign, &mut prev);
    }
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (&r, &c) in rows.iter().zip(&assign) {
        groups[c].push(r as u32);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// Index of the nearest centroid by squared L2 distance, ties keeping
/// the lowest index, for each of the four rows interleaved in `block`
/// (`block[i * LANES + k]` is row `k`'s component `i`). Each lane folds
/// its distance over the components in order and compares centroids in
/// order, exactly as a one-row scan would.
fn nearest_centroids(block: &[f64], cents: &[f64], dim: usize) -> [usize; LANES] {
    let k = cents.len() / dim;
    let mut best = [0usize; LANES];
    let mut best_d2 = [f64::INFINITY; LANES];
    for c in 0..k {
        let mut d2 = [0.0f64; LANES];
        for (&y, xs) in cents[c * dim..(c + 1) * dim]
            .iter()
            .zip(block.chunks_exact(LANES))
        {
            for (acc, &x) in d2.iter_mut().zip(xs) {
                *acc += (x - y) * (x - y);
            }
        }
        for lane in 0..LANES {
            if d2[lane] < best_d2[lane] {
                best_d2[lane] = d2[lane];
                best[lane] = c;
            }
        }
    }
    best
}

/// The vendored SplitMix64 generator (Steele, Lea & Flood 2014): a
/// tiny, dependency-free stream with fixed constants, used only to
/// seed the k-means picks deterministically.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::index::{slice_norm, VectorIndexBuilder};

    /// A deterministic index with enough rows per concept to form
    /// multiple clusters, plus an empty concept and a zero-norm row.
    fn fixture(dim: usize, concepts: usize, rows_per: usize) -> VectorIndex {
        let mut rng = SplitMix64::new(42);
        let mut next = move || (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        let mut b = VectorIndexBuilder::new(dim);
        for ci in 0..concepts {
            let mut rows: Vec<(String, Vec<f32>)> = Vec::new();
            for r in 0..rows_per {
                let v: Vec<f32> = if ci == 0 && r == 3 {
                    vec![0.0; dim] // a zero-norm row
                } else {
                    (0..dim).map(|_| next() as f32).collect()
                };
                rows.push((format!("w{ci}-{r}"), v));
            }
            let seed_rows = rows_per / 2;
            b.add_concept(
                &format!("C{ci}"),
                seed_rows,
                rows.iter().map(|(w, v)| (w.as_str(), v.as_slice())),
            );
        }
        b.add_concept("Empty", 0, []);
        b.build()
    }

    fn queries(dim: usize, n: usize) -> Vec<Vec<f32>> {
        let mut rng = SplitMix64::new(7);
        let mut next = move || (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        let mut out: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| next() as f32).collect())
            .collect();
        out.push(vec![0.0; dim]); // zero-norm query
        out
    }

    /// The exhaustive gate: does the scan's max pass τ?
    fn gate_reference(ix: &VectorIndex, ci: usize, q: &[f32], qn: f64, tau: f64) -> bool {
        ix.scan(q, qn)
            .nth(ci)
            .and_then(|s| s.max)
            .is_some_and(|m| m + 1e-9 >= tau)
    }

    /// The exhaustive argmax fold of the fine-tune τ-expansion.
    fn best_concept_reference(ix: &VectorIndex, q: &[f32], qn: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for scores in ix.scan(q, qn) {
            let sim = scores.max.unwrap_or(f64::MIN);
            if sim.is_finite() && best.is_none_or(|(_, b)| sim > b) {
                best = Some((scores.concept, sim));
            }
        }
        best
    }

    #[test]
    fn exact_gate_matches_exhaustive_everywhere() {
        let ix = fixture(16, 5, 40);
        let pr = PruneIndex::build(&ix);
        for q in queries(16, 24) {
            let qn = slice_norm(&q);
            for tau in [0.0, 0.05, 0.1, 0.3, 0.7, 1.0] {
                for ci in 0..ix.concept_count() {
                    let mut stats = PruneStats::default();
                    assert_eq!(
                        pr.gate(&ix, ci, &q, qn, tau, &mut stats),
                        gate_reference(&ix, ci, &q, qn, tau),
                        "gate diverged at tau {tau} concept {ci}"
                    );
                }
            }
        }
    }

    #[test]
    fn best_concept_matches_exhaustive_fold_bit_for_bit() {
        let ix = fixture(16, 5, 40);
        let pr = PruneIndex::build(&ix);
        for q in queries(16, 24) {
            let qn = slice_norm(&q);
            let mut stats = PruneStats::default();
            let got = pr.best_concept(&ix, &q, qn, f64::MIN, &mut stats);
            let want = best_concept_reference(&ix, &q, qn);
            match (got, want) {
                (Some((gc, gs)), Some((wc, ws))) => {
                    assert_eq!(gc, wc);
                    assert_eq!(gs.to_bits(), ws.to_bits(), "value bits diverged");
                }
                (g, w) => assert_eq!(g.is_some(), w.is_some()),
            }
        }
    }

    #[test]
    fn best_concept_with_floor_agrees_above_the_floor() {
        let ix = fixture(12, 4, 32);
        let pr = PruneIndex::build(&ix);
        for q in queries(12, 16) {
            let qn = slice_norm(&q);
            for floor in [0.0, 0.2, 0.5] {
                let mut stats = PruneStats::default();
                let got = pr.best_concept(&ix, &q, qn, floor, &mut stats);
                let want = best_concept_reference(&ix, &q, qn);
                if let Some((wc, ws)) = want {
                    if ws >= floor {
                        let (gc, gs) = got.expect("winner above the floor must survive");
                        assert_eq!(gc, wc);
                        assert_eq!(gs.to_bits(), ws.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn best_seed_matches_exhaustive() {
        let ix = fixture(16, 5, 40);
        let pr = PruneIndex::build(&ix);
        for q in queries(16, 24) {
            let qn = slice_norm(&q);
            for ci in 0..ix.concept_count() {
                let mut stats = PruneStats::default();
                let got = pr.best_seed(&ix, ci, &q, qn, &mut stats);
                let want = ix.best_seed(ci, &q, qn);
                match (got, want) {
                    (Some((gw, gs)), Some((ww, ws))) => {
                        assert_eq!(gw, ww);
                        assert_eq!(gs.to_bits(), ws.to_bits());
                    }
                    (g, w) => assert_eq!(g.is_some(), w.is_some()),
                }
            }
        }
    }

    /// Concepts as tight balls around distinct directions — the shape
    /// real topic embeddings have, and the one pruning exists for.
    fn clustered_fixture(dim: usize, concepts: usize, rows_per: usize) -> VectorIndex {
        let mut rng = SplitMix64::new(11);
        let mut next = move || (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        let mut b = VectorIndexBuilder::new(dim);
        for ci in 0..concepts {
            let rows: Vec<(String, Vec<f32>)> = (0..rows_per)
                .map(|r| {
                    let v: Vec<f32> = (0..dim)
                        .map(|d| {
                            let base = if d == ci % dim { 1.0 } else { 0.0 };
                            (base + next() * 0.05) as f32
                        })
                        .collect();
                    (format!("w{ci}-{r}"), v)
                })
                .collect();
            b.add_concept(
                &format!("C{ci}"),
                rows_per / 2,
                rows.iter().map(|(w, v)| (w.as_str(), v.as_slice())),
            );
        }
        b.build()
    }

    #[test]
    fn pruning_actually_skips_work() {
        let ix = clustered_fixture(16, 8, 48);
        let pr = PruneIndex::build(&ix);
        let mut stats = PruneStats::default();
        for ci in 0..8usize {
            // Queries aligned with one concept's direction: every other
            // concept's bound falls below the floor.
            let q: Vec<f32> = (0..16).map(|d| if d == ci { 1.0 } else { 0.0 }).collect();
            let qn = slice_norm(&q);
            pr.best_concept(&ix, &q, qn, 0.5, &mut stats);
            let mut gs = PruneStats::default();
            pr.gate(&ix, (ci + 1) % 8, &q, qn, 0.7, &mut gs);
            stats.absorb(&gs);
        }
        assert!(stats.concepts > 0, "no concepts were ever pruned");
        assert!(stats.rows > 0, "no rows were ever pruned");
    }

    /// `n` deterministic rows labelled `{tag}-{r}`; row `zero` (if
    /// any) is the zero vector.
    fn rows(tag: &str, dim: usize, n: usize, zero: Option<usize>) -> Vec<(String, Vec<f32>)> {
        let seed = tag
            .bytes()
            .fold(5u64, |h, b| h.wrapping_mul(31) ^ u64::from(b));
        let mut rng = SplitMix64::new(seed);
        let mut next = move || (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        (0..n)
            .map(|r| {
                let v = if zero == Some(r) {
                    vec![0.0; dim]
                } else {
                    (0..dim).map(|_| next() as f32).collect()
                };
                (format!("{tag}-{r}"), v)
            })
            .collect()
    }

    fn add(b: &mut VectorIndexBuilder, name: &str, seed_rows: usize, rows: &[(String, Vec<f32>)]) {
        b.add_concept(
            name,
            seed_rows,
            rows.iter().map(|(w, v)| (w.as_str(), v.as_slice())),
        );
    }

    #[test]
    fn evolve_equals_a_fresh_build_bit_for_bit() {
        let dim = 12;
        // Parent: a concept with no expansion rows (C1) and one holding
        // a zero-norm row (C3), both left untouched by the delta.
        let c0 = rows("c0", dim, 30, None);
        let c2 = rows("c2", dim, 40, None);
        let mut b = VectorIndexBuilder::new(dim);
        add(&mut b, "C0", 10, &c0);
        add(&mut b, "C1", 20, &rows("c1", dim, 20, None));
        add(&mut b, "C2", 12, &c2);
        add(&mut b, "C3", 5, &rows("c3", dim, 17, Some(4)));
        let parent_ix = b.build();
        let parent = PruneIndex::build(&parent_ix);

        // Child: C0 grows, C2 loses two expansion rows and gains a seed,
        // C1 and C3 are block-copied at shifted starts, C4 is appended.
        let mut c0_grown = c0.clone();
        c0_grown.splice(3..3, rows("c0-new", dim, 4, None));
        let mut c2_edited = c2[..38].to_vec();
        c2_edited.insert(0, rows("c2-new", dim, 1, None).remove(0));
        let mut b = VectorIndexBuilder::new(dim);
        add(&mut b, "C0", 14, &c0_grown);
        b.add_concept_from(&parent_ix, 1);
        add(&mut b, "C2", 13, &c2_edited);
        b.add_concept_from(&parent_ix, 3);
        add(&mut b, "C4", 9, &rows("c4", dim, 25, None));
        let ix = b.build();

        let evolved = parent.evolve(&parent_ix, &ix, &[false, true, false, true, false]);
        let fresh = PruneIndex::build(&ix);
        assert_eq!(evolved.meta_bytes(), fresh.meta_bytes());
        assert_eq!(evolved.members(), fresh.members());
        let bits32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let bits64 = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits32(evolved.centroids()), bits32(fresh.centroids()));
        assert_eq!(bits64(evolved.radii()), bits64(fresh.radii()));
        assert_eq!(
            bits32(evolved.concept_centroids()),
            bits32(fresh.concept_centroids())
        );
        assert_eq!(
            bits64(evolved.concept_radii()),
            bits64(fresh.concept_radii())
        );

        let concept_bits = |r: Option<(usize, f64)>| r.map(|(c, s)| (c, s.to_bits()));
        let seed_bits = |r: Option<(&str, f64)>| r.map(|(w, s)| (w.to_string(), s.to_bits()));
        for q in queries(dim, 24) {
            let qn = slice_norm(&q);
            let (mut se, mut sf) = (PruneStats::default(), PruneStats::default());
            for floor in [f64::MIN, 0.0, 0.3] {
                assert_eq!(
                    concept_bits(evolved.best_concept(&ix, &q, qn, floor, &mut se)),
                    concept_bits(fresh.best_concept(&ix, &q, qn, floor, &mut sf))
                );
            }
            for ci in 0..ix.concept_count() {
                for tau in [0.0, 0.2, 0.5, 0.9] {
                    assert_eq!(
                        evolved.gate(&ix, ci, &q, qn, tau, &mut se),
                        fresh.gate(&ix, ci, &q, qn, tau, &mut sf),
                        "gate, concept {ci}, tau {tau}"
                    );
                }
                assert_eq!(
                    seed_bits(evolved.best_seed(&ix, ci, &q, qn, &mut se)),
                    seed_bits(fresh.best_seed(&ix, ci, &q, qn, &mut sf))
                );
            }
            assert_eq!(se, sf, "the same work was pruned");
        }
    }

    #[test]
    fn build_is_deterministic_and_round_trips_through_parts() {
        let ix = fixture(12, 3, 24);
        let a = PruneIndex::build(&ix);
        let b = PruneIndex::build(&ix);
        assert_eq!(a.meta_bytes(), b.meta_bytes());
        assert_eq!(a.members(), b.members());
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.radii(), b.radii());

        let rt = PruneIndex::from_parts(
            &ix,
            &a.meta_bytes(),
            a.members().to_vec().into(),
            a.centroids().to_vec().into(),
            a.radii().to_vec().into(),
            a.concept_centroids().to_vec().into(),
            a.concept_radii().to_vec().into(),
        )
        .expect("valid parts");
        for q in queries(12, 8) {
            let qn = slice_norm(&q);
            let mut s1 = PruneStats::default();
            let mut s2 = PruneStats::default();
            assert_eq!(
                a.best_concept(&ix, &q, qn, f64::MIN, &mut s1),
                rt.best_concept(&ix, &q, qn, f64::MIN, &mut s2)
            );
        }

        let summary = PruneIndex::summarize_meta(&a.meta_bytes()).expect("valid meta");
        assert_eq!(summary.dim, 12);
        assert_eq!(summary.rows, ix.row_count());
        assert_eq!(summary.concepts, ix.concept_count());
        assert_eq!(summary.clusters, a.clusters.len());
        assert!(summary.max_cluster_rows > 0);
    }

    #[test]
    fn from_parts_rejects_mismatched_sections_by_name() {
        let ix = fixture(12, 3, 24);
        let a = PruneIndex::build(&ix);
        let parts = |meta: Vec<u8>, members: Vec<u32>, radii: Vec<f64>| {
            PruneIndex::from_parts(
                &ix,
                &meta,
                members.into(),
                a.centroids().to_vec().into(),
                radii.into(),
                a.concept_centroids().to_vec().into(),
                a.concept_radii().to_vec().into(),
            )
        };
        // Truncated meta.
        let meta = a.meta_bytes();
        assert!(parts(
            meta[..meta.len() - 4].to_vec(),
            a.members().to_vec(),
            a.radii().to_vec()
        )
        .is_err());
        // Short radii section.
        let err = parts(
            meta.clone(),
            a.members().to_vec(),
            a.radii()[..a.radii().len() - 1].to_vec(),
        )
        .unwrap_err();
        assert!(err.contains("prune.radii"), "{err}");
        // A member row swapped across clusters breaks the partition.
        let mut bad = a.members().to_vec();
        let last = bad.len() - 1;
        bad.swap(0, last);
        let err = parts(meta.clone(), bad, a.radii().to_vec()).unwrap_err();
        assert!(err.contains("partition"), "{err}");
        // A structure built for a different index shape is named.
        let other = fixture(12, 2, 10);
        let err = PruneIndex::from_parts(
            &other,
            &meta,
            a.members().to_vec().into(),
            a.centroids().to_vec().into(),
            a.radii().to_vec().into(),
            a.concept_centroids().to_vec().into(),
            a.concept_radii().to_vec().into(),
        )
        .unwrap_err();
        assert!(err.contains("does not match the index"), "{err}");
    }

    #[test]
    fn zero_norm_query_keeps_exhaustive_semantics() {
        let ix = fixture(12, 3, 24);
        let pr = PruneIndex::build(&ix);
        let q = vec![0.0f32; 12];
        let mut stats = PruneStats::default();
        let got = pr.best_concept(&ix, &q, 0.0, f64::MIN, &mut stats);
        assert_eq!(got, best_concept_reference(&ix, &q, 0.0));
        assert!(pr.gate(&ix, 0, &q, 0.0, 0.0, &mut stats));
        assert!(!pr.gate(&ix, 0, &q, 0.0, 0.5, &mut stats));
        assert_eq!(
            pr.best_seed(&ix, 0, &q, 0.0, &mut stats),
            ix.best_seed(0, &q, 0.0)
        );
    }

    /// The one-row nearest-centroid scan the four-lane assignment
    /// replaced, kept as its oracle.
    fn nearest_centroid_oracle(v: &[f64], cents: &[f64], dim: usize) -> usize {
        let mut best = 0usize;
        let mut best_d2 = f64::INFINITY;
        for c in 0..cents.len() / dim {
            let d2: f64 = v
                .iter()
                .zip(&cents[c * dim..(c + 1) * dim])
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum();
            if d2 < best_d2 {
                best_d2 = d2;
                best = c;
            }
        }
        best
    }

    /// The fixed-iteration, one-row-at-a-time k-means the lane
    /// assignment and the fixed-point stop replaced, kept as their
    /// oracle.
    fn kmeans_groups_oracle(
        unit: &[f64],
        dim: usize,
        range: Range<usize>,
        seed: u64,
    ) -> Vec<Vec<u32>> {
        let rows: Vec<usize> = range.collect();
        let n = rows.len();
        if n == 0 {
            return Vec::new();
        }
        let k = n.div_ceil(CLUSTER_TARGET);
        let mut rng = SplitMix64::new(seed);
        let mut picks: Vec<usize> = Vec::with_capacity(k);
        while picks.len() < k {
            let p = (rng.next() % n as u64) as usize;
            if !picks.contains(&p) {
                picks.push(p);
            }
        }
        let mut cents = vec![0.0f64; k * dim];
        for (c, &p) in picks.iter().enumerate() {
            cents[c * dim..(c + 1) * dim]
                .copy_from_slice(&unit[rows[p] * dim..(rows[p] + 1) * dim]);
        }
        let row = |r: usize| &unit[r * dim..(r + 1) * dim];
        let mut assign = vec![0usize; n];
        for _ in 0..KMEANS_ITERS {
            for (i, &r) in rows.iter().enumerate() {
                assign[i] = nearest_centroid_oracle(row(r), &cents, dim);
            }
            let mut acc = vec![0.0f64; k * dim];
            let mut counts = vec![0usize; k];
            for (i, &r) in rows.iter().enumerate() {
                let c = assign[i];
                counts[c] += 1;
                for (a, &x) in acc[c * dim..(c + 1) * dim].iter_mut().zip(row(r)) {
                    *a += x;
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for d in 0..dim {
                        cents[c * dim + d] = acc[c * dim + d] / counts[c] as f64;
                    }
                }
            }
        }
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); k];
        for &r in &rows {
            groups[nearest_centroid_oracle(row(r), &cents, dim)].push(r as u32);
        }
        groups.retain(|g| !g.is_empty());
        groups
    }

    #[test]
    fn kmeans_equals_the_fixed_iteration_one_row_oracle() {
        let mut rng = SplitMix64::new(17);
        let mut next = move || (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        for dim in [1usize, 2, 3, 7, 16, 48] {
            for n in [1usize, 2, 5, 16, 17, 33, 70, 150] {
                // Tight groups converge early; pure noise tends to run
                // all iterations. Duplicated rows make exact ties.
                for spread in [0.02, 1.0] {
                    let mut unit: Vec<f64> = Vec::with_capacity((n + 3) * dim);
                    for r in 0..n + 3 {
                        let centre = (r % 4) as f64;
                        for d in 0..dim {
                            let v = if r % 9 == 4 && r >= 9 {
                                unit[(r - 9) * dim + d]
                            } else if d == r % dim {
                                centre + spread * next()
                            } else {
                                spread * next()
                            };
                            unit.push(v);
                        }
                    }
                    for seed in 0..3u64 {
                        // An offset range, as concepts after the first have.
                        assert_eq!(
                            kmeans_groups(&unit, dim, 3..n + 3, seed),
                            kmeans_groups_oracle(&unit, dim, 3..n + 3, seed),
                            "dim {dim} n {n} spread {spread} seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_assignment_equals_the_one_row_scan() {
        let mut rng = SplitMix64::new(5);
        let mut next = move || (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        for dim in 1..=24usize {
            for k in 1..=6usize {
                let mut cents: Vec<f64> = (0..k * dim).map(|_| next()).collect();
                // A duplicated centroid: ties must keep the lower index.
                if k > 2 {
                    let (head, tail) = cents.split_at_mut(2 * dim);
                    tail[..dim].copy_from_slice(&head[dim..2 * dim]);
                }
                for n in 1..=9usize {
                    let rows: Vec<f64> = (0..n * dim)
                        .map(|i| {
                            // Some rows sit exactly on a centroid.
                            if i / dim == 1 {
                                cents[(k - 1) * dim + i % dim]
                            } else {
                                next()
                            }
                        })
                        .collect();
                    let mut blocks = Vec::new();
                    interleave(&mut blocks, dim, rows.chunks_exact(dim));
                    for (b, block) in blocks.chunks_exact(dim * LANES).enumerate() {
                        let got = nearest_centroids(block, &cents, dim);
                        for (lane, row) in rows
                            .chunks_exact(dim)
                            .skip(b * LANES)
                            .take(LANES)
                            .enumerate()
                        {
                            assert_eq!(got[lane], nearest_centroid_oracle(row, &cents, dim));
                        }
                    }
                }
            }
        }
    }

    /// Concepts whose seed prefix and expansion suffix each form one
    /// cluster of 1, 2, 3, 5, 6, 7, 9, 10 or 11 rows — every member
    /// count ≡ 1, 2 or 3 (mod 4), so every cluster ends in a padded
    /// lane block — plus one concept large enough for several clusters.
    fn ragged_fixture(dim: usize) -> VectorIndex {
        let mut rng = SplitMix64::new(23);
        let mut next = move || (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        let mut b = VectorIndexBuilder::new(dim);
        for (ci, (seeds, rest)) in [(1, 2), (3, 5), (6, 7), (9, 10), (11, 1), (37, 22)]
            .into_iter()
            .enumerate()
        {
            let rows: Vec<(String, Vec<f32>)> = (0..seeds + rest)
                .map(|r| {
                    let v: Vec<f32> = (0..dim)
                        .map(|d| (next() * 0.3 + if d % 6 == ci { 1.0 } else { 0.0 }) as f32)
                        .collect();
                    (format!("w{ci}-{r}"), v)
                })
                .collect();
            b.add_concept(
                &format!("C{ci}"),
                seeds,
                rows.iter().map(|(w, v)| (w.as_str(), v.as_slice())),
            );
        }
        b.build()
    }

    fn le<T: Copy, const N: usize>(v: &[T], bytes: impl Fn(T) -> [u8; N]) -> Vec<u8> {
        v.iter().flat_map(|&x| bytes(x)).collect()
    }

    #[test]
    fn loaded_structures_answer_like_build_and_the_exhaustive_scan() {
        let dim = 13;
        let ix = ragged_fixture(dim);
        let built = PruneIndex::build(&ix);
        let sizes: BTreeSet<usize> = built.clusters.iter().map(|&(_, n)| n % LANES).collect();
        assert!(
            [1, 2, 3].iter().all(|r| sizes.contains(r)),
            "fixture must exercise padded lanes: {sizes:?}"
        );
        // The derived copies are allocated once, at their exact size.
        for copy in [
            &built.lanes.members,
            &built.lanes.centroids,
            &built.lanes.concept_centroids,
        ] {
            assert_eq!(copy.len(), copy.capacity());
        }

        // The index and pruning sections as an artifact stores them,
        // read back owned and mapped.
        let mut w = thor_fault::SectionWriter::new();
        w.add("rows", 1, &le(ix.data(), f32::to_le_bytes));
        w.add("norms", 1, &le(ix.norms(), f64::to_le_bytes));
        w.add("sums", 1, &le(ix.rep_sums(), f32::to_le_bytes));
        w.add("members", 1, &le(built.members(), u32::to_le_bytes));
        w.add("centroids", 1, &le(built.centroids(), f32::to_le_bytes));
        w.add("radii", 1, &le(built.radii(), f64::to_le_bytes));
        w.add(
            "concept_centroids",
            1,
            &le(built.concept_centroids(), f32::to_le_bytes),
        );
        w.add(
            "concept_radii",
            1,
            &le(built.concept_radii(), f64::to_le_bytes),
        );
        let path = std::env::temp_dir().join(format!("thor-index-lanes-{}", std::process::id()));
        std::fs::write(&path, w.finish()).unwrap();

        let mut loaded = Vec::new();
        for mode in [thor_fault::MapMode::Owned, thor_fault::MapMode::Mapped] {
            let file = thor_fault::SectionFile::open(&path, mode).unwrap();
            let lix = VectorIndex::from_parts(
                dim,
                file.frozen_slice("rows").unwrap(),
                file.frozen_slice("norms").unwrap(),
                file.frozen_slice("sums").unwrap(),
                (0..ix.row_count())
                    .map(|r| ix.row_word(r).to_string())
                    .collect(),
                ix.concept_layout()
                    .map(|(n, s, r, k)| (n.to_string(), s, r, k))
                    .collect(),
            )
            .unwrap();
            let lpr = PruneIndex::from_parts(
                &lix,
                &built.meta_bytes(),
                file.frozen_slice("members").unwrap(),
                file.frozen_slice("centroids").unwrap(),
                file.frozen_slice("radii").unwrap(),
                file.frozen_slice("concept_centroids").unwrap(),
                file.frozen_slice("concept_radii").unwrap(),
            )
            .unwrap();
            assert_eq!(lpr.lanes.members, built.lanes.members);
            loaded.push((lix, lpr));
        }
        std::fs::remove_file(&path).ok();

        // Random queries, the zero query, and every row itself (exact
        // maxima and ties).
        let mut qs = queries(dim, 24);
        qs.extend((0..ix.row_count()).map(|r| ix.row(r).to_vec()));
        let bits = |r: Option<(usize, f64)>| r.map(|(c, s)| (c, s.to_bits()));
        let seed_bits = |r: Option<(&str, f64)>| r.map(|(w, s)| (w.to_string(), s.to_bits()));
        let mut want = PruneStats::default();
        let mut got = [PruneStats::default(); 2];
        for q in &qs {
            let qn = slice_norm(q);
            let reference = best_concept_reference(&ix, q, qn);
            for floor in [f64::MIN, 0.3, 0.6] {
                let b = built.best_concept(&ix, q, qn, floor, &mut want);
                if floor == f64::MIN {
                    assert_eq!(bits(b), bits(reference), "best_concept vs exhaustive");
                }
                for ((lix, lpr), got) in loaded.iter().zip(&mut got) {
                    assert_eq!(bits(lpr.best_concept(lix, q, qn, floor, got)), bits(b));
                }
            }
            for ci in 0..ix.concept_count() {
                let b = seed_bits(built.best_seed(&ix, ci, q, qn, &mut want));
                assert_eq!(
                    b,
                    seed_bits(ix.best_seed(ci, q, qn)),
                    "best_seed vs exhaustive"
                );
                for tau in [0.0, 0.4, 0.8, 0.95] {
                    let g = built.gate(&ix, ci, q, qn, tau, &mut want);
                    assert_eq!(g, gate_reference(&ix, ci, q, qn, tau), "gate vs exhaustive");
                    for ((lix, lpr), got) in loaded.iter().zip(&mut got) {
                        assert_eq!(lpr.gate(lix, ci, q, qn, tau, got), g);
                    }
                }
                for ((lix, lpr), got) in loaded.iter().zip(&mut got) {
                    assert_eq!(seed_bits(lpr.best_seed(lix, ci, q, qn, got)), b);
                }
            }
        }
        assert!(want.rows > 0, "the fixture never pruned");
        assert_eq!(got, [want; 2], "loaded structures pruned differently");
    }
}
