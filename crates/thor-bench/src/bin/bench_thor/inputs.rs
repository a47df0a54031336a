//! The four workloads and the inputs each runs on. Inputs are generated
//! with thor-datagen from the seed and written to a work directory; the
//! measured process reads them back from disk, as `thor enrich` does.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use thor_core::Document;
use thor_data::{from_csv, to_csv, CorpusDir, Table};
use thor_datagen::{generate, DatasetSpec, Split};

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The largest table the generator makes, every document, two
    /// threads: segmentation dominates and thread scaling shows.
    BatchWide,
    /// A small table at a low τ, one thread: chunking, matching and
    /// refinement dominate; a segmentation fix should not move it.
    BatchNarrow,
    /// `batch-wide`'s engine behind the HTTP server, one test document
    /// per request, 3 `/extract` : 1 `/enrich`.
    ServeMixed,
    /// Seed deltas applied and saved onto a chain, each followed by a
    /// mapped chain load and a read of the test documents.
    EvolveChain,
}

/// Share of the table's concept instances (distinct values of a
/// non-subject column) one evolve delta adds back; [`EVOLVE_DELTAS`] of
/// them are withheld from the base table.
const EVOLVE_DELTA_SHARE: f64 = 0.025;
/// Deltas per evolve chain.
pub const EVOLVE_DELTAS: usize = 8;
/// Dataset scale of every workload in `--smoke` mode.
const SMOKE_SCALE: f64 = 0.05;

impl Workload {
    /// Every workload, in the order `run` measures them.
    pub const ALL: [Workload; 4] = [
        Workload::BatchWide,
        Workload::BatchNarrow,
        Workload::ServeMixed,
        Workload::EvolveChain,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchWide => "batch-wide",
            Workload::BatchNarrow => "batch-narrow",
            Workload::ServeMixed => "serve-mixed",
            Workload::EvolveChain => "evolve-chain",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Disease A–Z scale. 1.0 (314 table rows) is the largest the
    /// generator accepts; 0.1 gives a 31-row table.
    pub fn scale(self, smoke: bool) -> f64 {
        match (smoke, self) {
            (true, _) => SMOKE_SCALE,
            (false, Workload::BatchNarrow) => 0.1,
            (false, _) => 1.0,
        }
    }

    /// Similarity threshold τ of the engine. 0.5 maximises candidates.
    pub fn tau(self) -> f64 {
        match self {
            Workload::BatchNarrow => 0.5,
            _ => 0.7,
        }
    }

    /// Worker threads of the timed (untraced) run.
    pub fn threads(self) -> usize {
        match self {
            Workload::BatchWide => 2,
            _ => 1,
        }
    }

    /// Whether the workload reads every split (batch) or only the test
    /// documents (serve, evolve).
    fn all_splits(self) -> bool {
        matches!(self, Workload::BatchWide | Workload::BatchNarrow)
    }
}

/// Generate `workload`'s inputs from `seed` into `dir`:
///
/// * `table.csv` — the engine's table (for evolve-chain, the base with
///   the delta instances withheld) and `vectors.txt`;
/// * `docs/<id>.txt` — the corpus;
/// * evolve-chain only: `delta_<i>.csv` and `full_table.csv`, the table
///   the chain must end at.
pub fn write_inputs(workload: Workload, seed: u64, smoke: bool, dir: &Path) -> io::Result<()> {
    let dataset = generate(&DatasetSpec::disease_az(seed, workload.scale(smoke)));
    let table = dataset.enrichment_table();
    let docs_dir = dir.join("docs");
    fs::create_dir_all(&docs_dir)?;
    fs::write(dir.join("vectors.txt"), dataset.store.to_text())?;
    let splits: &[Split] = if workload.all_splits() {
        &[Split::Train, Split::Validation, Split::Test]
    } else {
        &[Split::Test]
    };
    for &split in splits {
        for d in dataset.docs(split) {
            fs::write(docs_dir.join(format!("{}.txt", d.doc.id)), &d.doc.text)?;
        }
    }
    if workload == Workload::EvolveChain {
        let (base, deltas) = withhold(&table, seed);
        fs::write(dir.join("table.csv"), to_csv(&base))?;
        fs::write(dir.join("full_table.csv"), to_csv(&table))?;
        for (i, delta) in deltas.iter().enumerate() {
            fs::write(dir.join(format!("delta_{i}.csv")), to_csv(delta))?;
        }
    } else {
        fs::write(dir.join("table.csv"), to_csv(&table))?;
    }
    Ok(())
}

/// Split `table` into a base that lacks [`EVOLVE_DELTAS`] ×
/// [`EVOLVE_DELTA_SHARE`] of its concept instances — every occurrence
/// of each — and the deltas that add them back, chosen by a shuffle
/// seeded with `seed`. Withholding whole instances makes each delta add
/// new seeds, the change delta engines exist for.
fn withhold(table: &Table, seed: u64) -> (Table, Vec<Table>) {
    let schema = table.schema();
    let mut occurrences: BTreeMap<(&str, &str), Vec<&str>> = BTreeMap::new();
    for (ri, row) in table.rows().iter().enumerate() {
        for (ci, concept) in schema.concepts().iter().enumerate() {
            if ci != schema.subject_index() {
                for value in row.cell(ci).values() {
                    occurrences
                        .entry((concept.name(), value))
                        .or_default()
                        .push(table.subject_of(ri));
                }
            }
        }
    }
    let mut instances: Vec<(&str, &str)> = occurrences.keys().copied().collect();
    let mut rng = SplitMix64(seed ^ 0x5EED_DE17A);
    for i in (1..instances.len()).rev() {
        instances.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let per_delta = ((instances.len() as f64 * EVOLVE_DELTA_SHARE).round() as usize).max(1);
    let withheld = (per_delta * EVOLVE_DELTAS).min(instances.len());
    let fill = |target: &mut Table, chosen: &[(&str, &str)]| {
        for &(concept, value) in chosen {
            for subject in &occurrences[&(concept, value)] {
                target.fill_slot(subject, concept, value);
            }
        }
    };
    let mut base = Table::new(schema.clone());
    for subject in table.subjects() {
        base.row_for_subject(subject);
    }
    fill(&mut base, &instances[withheld..]);
    let deltas = instances[..withheld]
        .chunks(per_delta)
        .map(|chunk| {
            let mut delta = Table::new(schema.clone());
            fill(&mut delta, chunk);
            delta
        })
        .collect();
    (base, deltas)
}

/// SplitMix64: the seeded stream behind every random choice the
/// benchmark makes outside thor-datagen.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A workload's inputs as read back by the measured process.
pub struct Inputs {
    /// The work directory the inputs live in; artifacts go here too.
    pub dir: PathBuf,
}

impl Inputs {
    /// Path of an input or artifact file in the work directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Read every corpus document, sorted by id.
    pub fn read_docs(&self) -> Result<Vec<Document>, String> {
        let docs_dir = self.path("docs");
        let corpus =
            CorpusDir::discover(&docs_dir).map_err(|e| format!("{}: {e}", docs_dir.display()))?;
        corpus
            .iter()
            .map(|(id, path)| {
                fs::read_to_string(path)
                    .map(|text| Document::new(id.clone(), text))
                    .map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect()
    }

    /// Read a table file of the work directory.
    pub fn read_table(&self, name: &str) -> Result<Table, String> {
        let path = self.path(name);
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        from_csv(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}
