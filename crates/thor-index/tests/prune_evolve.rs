//! `PruneIndex::evolve` equals `PruneIndex::build` bit for bit over
//! random indices and random per-concept edits. A kept concept is
//! copied whole; every other concept gets a fresh concept ball, and
//! k-means runs only on its groups (seed prefix, expansion suffix)
//! whose rows changed, the others copied from the parent with their
//! member rows rebased to the group's new start.

use proptest::prelude::*;

use thor_index::{PruneIndex, VectorIndex, VectorIndexBuilder};

/// SplitMix64: the cases are drawn from one seed per property case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A row of values in [-1, 1); one in twelve is the zero vector.
    fn row(&mut self, dim: usize) -> Vec<f32> {
        if self.below(12) == 0 {
            return vec![0.0; dim];
        }
        (0..dim)
            .map(|_| ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32)
            .collect()
    }

    fn rows(&mut self, dim: usize, n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|_| self.row(dim)).collect()
    }
}

/// One concept's rows: the seed prefix and the expansion suffix.
#[derive(Clone)]
struct Concept {
    seeds: Vec<Vec<f32>>,
    expansion: Vec<Vec<f32>>,
}

impl Concept {
    fn add_to(&self, b: &mut VectorIndexBuilder, name: &str) {
        let words: Vec<String> = (0..self.seeds.len() + self.expansion.len())
            .map(|r| format!("{name}-{r}"))
            .collect();
        b.add_concept(
            name,
            self.seeds.len(),
            words
                .iter()
                .map(String::as_str)
                .zip(self.seeds.iter().chain(&self.expansion).map(Vec::as_slice)),
        );
    }
}

fn index(dim: usize, concepts: &[Concept]) -> VectorIndex {
    let mut b = VectorIndexBuilder::new(dim);
    for (ci, c) in concepts.iter().enumerate() {
        c.add_to(&mut b, &format!("C{ci}"));
    }
    b.build()
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Insert one to four new rows at random positions of `rows`.
fn grow(rng: &mut Rng, rows: &mut Vec<Vec<f32>>, dim: usize) {
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(rows.len() + 1);
        let row = rng.row(dim);
        rows.insert(at, row);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn evolve_equals_build_under_random_group_edits(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let dim = 1 + rng.below(8);
        // Groups of up to 40 rows: k-means forms up to three clusters.
        let parent_concepts: Vec<Concept> = (0..1 + rng.below(5))
            .map(|_| {
                let (s, e) = (rng.below(41), rng.below(41));
                Concept { seeds: rng.rows(dim, s), expansion: rng.rows(dim, e) }
            })
            .collect();
        let parent_ix = index(dim, &parent_concepts);
        let parent = PruneIndex::build(&parent_ix);

        let mut b = VectorIndexBuilder::new(dim);
        let mut kept = Vec::new();
        let mut edits = Vec::new();
        for (ci, c) in parent_concepts.iter().enumerate() {
            let mut c = c.clone();
            let edit = rng.below(6);
            match edit {
                // Kept: block-copied by the index, copied whole here.
                0 => {
                    b.add_concept_from(&parent_ix, ci);
                    kept.push(true);
                    edits.push(edit);
                    continue;
                }
                // Touched, yet its rows are unchanged.
                1 => {}
                // The seed group grows; the expansion rows shift.
                2 => grow(&mut rng, &mut c.seeds, dim),
                // The expansion group grows.
                3 => grow(&mut rng, &mut c.expansion, dim),
                // The expansion group shrinks.
                4 => {
                    for _ in 0..1 + rng.below(3) {
                        if !c.expansion.is_empty() {
                            let at = rng.below(c.expansion.len());
                            c.expansion.remove(at);
                        }
                    }
                }
                // One bit of one row flips.
                _ => {
                    let rows = c.seeds.len() + c.expansion.len();
                    if rows > 0 {
                        let r = rng.below(rows);
                        let row = if r < c.seeds.len() {
                            &mut c.seeds[r]
                        } else {
                            &mut c.expansion[r - c.seeds.len()]
                        };
                        let d = rng.below(dim);
                        row[d] = f32::from_bits(row[d].to_bits() ^ (1 << rng.below(32)));
                    }
                }
            }
            c.add_to(&mut b, &format!("C{ci}"));
            kept.push(false);
            edits.push(edit);
        }
        // Appended concepts.
        for ci in parent_concepts.len()..parent_concepts.len() + rng.below(3) {
            let (s, e) = (rng.below(41), rng.below(41));
            Concept { seeds: rng.rows(dim, s), expansion: rng.rows(dim, e) }
                .add_to(&mut b, &format!("C{ci}"));
            kept.push(false);
        }
        let ix = b.build();

        let evolved = parent.evolve(&parent_ix, &ix, &kept);
        let fresh = PruneIndex::build(&ix);
        let case = format!("seed {seed}, dim {dim}, edits {edits:?}");
        prop_assert_eq!(evolved.meta_bytes(), fresh.meta_bytes(), "{}", case);
        prop_assert_eq!(evolved.members(), fresh.members(), "{}", case);
        prop_assert_eq!(bits32(evolved.centroids()), bits32(fresh.centroids()), "{}", case);
        prop_assert_eq!(bits64(evolved.radii()), bits64(fresh.radii()), "{}", case);
        prop_assert_eq!(
            bits32(evolved.concept_centroids()),
            bits32(fresh.concept_centroids()),
            "{}",
            case
        );
        prop_assert_eq!(
            bits64(evolved.concept_radii()),
            bits64(fresh.concept_radii()),
            "{}",
            case
        );
    }
}
