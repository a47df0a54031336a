//! Shared experiment harness.

use std::time::{Duration, Instant};

use thor_baselines::{
    DictionaryBaseline, Extractor, LlmProfile, PerceptronTagger, SimulatedLlm, TaggerConfig,
};
use thor_core::{ExtractedEntity, PreparedEngine, Thor, ThorConfig};
use thor_datagen::{generate, DatasetSpec, GeneratedDataset, Split};
use thor_eval::{dedup_annotations, evaluate, Annotation, EvalReport};

/// The paper's τ sweep — 0.5, 0.6, …, 1.0 (Table V, Figs. 5–6). The
/// single source of the experiment grid: binaries that run THOR across
/// the full threshold range iterate this instead of hard-coding the
/// endpoints. Validity of an individual τ is enforced separately by
/// [`thor_match::TAU_RANGE`].
pub fn tau_sweep() -> impl Iterator<Item = f64> {
    (5..=10).map(|t| t as f64 / 10.0)
}

/// The Disease A–Z dataset at the given scale.
pub fn disease_dataset(seed: u64, scale: f64) -> GeneratedDataset {
    generate(&DatasetSpec::disease_az(seed, scale))
}

/// The Résumé dataset at the given scale.
pub fn resume_dataset(seed: u64, scale: f64) -> GeneratedDataset {
    generate(&DatasetSpec::resume(seed, scale))
}

/// A system under evaluation.
pub enum System {
    /// THOR at a given τ.
    Thor(f64),
    /// THOR with a custom configuration (ablations).
    ThorWith(Box<ThorConfig>, String),
    /// The Aho–Corasick dictionary baseline.
    Baseline,
    /// Perceptron tagger trained on weak (table-projected) labels.
    LmSd,
    /// Perceptron tagger trained on gold annotations of the first
    /// `usize` train documents (`usize::MAX` = all).
    LmHuman(usize),
    /// Simulated GPT-4.
    Gpt4,
    /// Simulated UniversalNER.
    UniNer,
}

impl System {
    /// Display name as used in the paper's tables.
    pub fn name(&self) -> String {
        match self {
            System::Thor(tau) => format!("THOR (tau={tau:.1})"),
            System::ThorWith(_, name) => name.clone(),
            System::Baseline => "Baseline".into(),
            System::LmSd => "LM-SD".into(),
            System::LmHuman(n) if *n == usize::MAX => "LM-Human".into(),
            System::LmHuman(n) => format!("LM-Human-{n}"),
            System::Gpt4 => "GPT-4".into(),
            System::UniNer => "UniNER".into(),
        }
    }
}

/// Outcome of one system run on one dataset.
pub struct RunOutcome {
    /// System display name.
    pub system: String,
    /// Evaluation report against the test gold.
    pub report: EvalReport,
    /// Wall-clock time (training/fine-tuning + inference), as in the
    /// paper's Table V. `None` for the simulated LLMs — their timing
    /// would be an artifact of the simulation, the paper reports "-"
    /// for GPT-4 too.
    pub time: Option<Duration>,
    /// The raw predictions (for slot-filling demos).
    pub predictions: Vec<ExtractedEntity>,
}

/// Gold annotations of a split at evaluation granularity.
pub fn gold_annotations(dataset: &GeneratedDataset, split: Split) -> Vec<Annotation> {
    dedup_annotations(
        dataset
            .docs(split)
            .iter()
            .flat_map(|d| {
                d.gold
                    .iter()
                    .map(|g| Annotation::new(d.doc.id.clone(), &g.concept, &g.phrase))
            })
            .collect(),
    )
}

/// Convert predictions to evaluation annotations.
pub fn to_annotations(entities: &[ExtractedEntity]) -> Vec<Annotation> {
    entities
        .iter()
        .map(|e| Annotation::new(e.doc_id.clone(), &e.concept, &e.phrase))
        .collect()
}

/// Build the [`PreparedEngine`] for a dataset's enrichment table at
/// `tau` — the one-time Preparation pass sweep runs amortize.
pub fn prepare_engine(dataset: &GeneratedDataset, tau: f64) -> PreparedEngine {
    Thor::new(dataset.store.clone(), ThorConfig::with_tau(tau)).prepare(&dataset.enrichment_table())
}

/// Run THOR across a τ sweep off **one** Preparation pass: the engine is
/// built once at the lowest τ and each sweep point is derived with
/// [`PreparedEngine::with_tau`] (bit-identical to a fresh fine-tune at
/// that τ, by τ-monotonicity). Reported `time` per point is the
/// derivation cost plus inference — the amortized serving cost the
/// build/serve split exists for.
pub fn run_thor_sweep(dataset: &GeneratedDataset, taus: &[f64]) -> Vec<RunOutcome> {
    match taus.iter().copied().min_by(f64::total_cmp) {
        Some(base_tau) => sweep_engine(&prepare_engine(dataset, base_tau), dataset, taus),
        None => Vec::new(),
    }
}

/// Run THOR at each of `taus` off `engine`, deriving each point with
/// [`PreparedEngine::with_tau`]; every τ must be at least the engine's.
/// Reported `time` per point is the derivation cost plus inference.
pub fn sweep_engine(
    engine: &PreparedEngine,
    dataset: &GeneratedDataset,
    taus: &[f64],
) -> Vec<RunOutcome> {
    let docs = dataset.documents(Split::Test);
    let gold = gold_annotations(dataset, Split::Test);
    taus.iter()
        .map(|&tau| {
            let served = engine.with_tau(tau);
            let (predictions, infer) = served.extract(&docs);
            let report = evaluate(&to_annotations(&predictions), &gold);
            RunOutcome {
                system: System::Thor(tau).name(),
                report,
                time: Some(served.prepare_time() + infer),
                predictions,
            }
        })
        .collect()
}

/// Run one system on the dataset's test split and evaluate.
pub fn run_system(system: &System, dataset: &GeneratedDataset) -> RunOutcome {
    let table = dataset.enrichment_table();
    let docs = dataset.documents(Split::Test);
    let gold = gold_annotations(dataset, Split::Test);
    let name = system.name();

    let run_thor = |thor: Thor| {
        let engine = thor.prepare(&table);
        let (entities, infer) = engine.extract(&docs);
        (entities, Some(engine.prepare_time() + infer))
    };
    let (predictions, time) = match system {
        System::Thor(tau) => run_thor(Thor::new(dataset.store.clone(), ThorConfig::with_tau(*tau))),
        System::ThorWith(config, _) => {
            run_thor(Thor::new(dataset.store.clone(), (**config).clone()))
        }
        System::Baseline => {
            let t0 = Instant::now();
            let baseline = DictionaryBaseline::from_table(&table);
            let preds = baseline.extract(&table, &docs);
            (preds, Some(t0.elapsed()))
        }
        System::LmSd => {
            let t0 = Instant::now();
            let tagger = PerceptronTagger::train_weak(
                "LM-SD",
                &dataset.table,
                &dataset.train,
                &TaggerConfig::default(),
            );
            let preds = tagger.extract(&table, &docs);
            (preds, Some(t0.elapsed()))
        }
        System::LmHuman(n) => {
            let t0 = Instant::now();
            let count = (*n).min(dataset.train.len());
            let tagger = PerceptronTagger::train_gold(
                "LM-Human",
                &dataset.train[..count],
                &TaggerConfig::default(),
            );
            let preds = tagger.extract(&table, &docs);
            (preds, Some(t0.elapsed()))
        }
        System::Gpt4 => {
            let llm = SimulatedLlm::new(LlmProfile::gpt4(dataset.seed), &dataset.test);
            (llm.extract(&table, &docs), None)
        }
        System::UniNer => {
            let llm = SimulatedLlm::new(LlmProfile::uniner(dataset.seed), &dataset.test);
            (llm.extract(&table, &docs), None)
        }
    };

    let report = evaluate(&to_annotations(&predictions), &gold);
    RunOutcome {
        system: name,
        report,
        time,
        predictions,
    }
}
