#![warn(missing_docs)]
//! # thor-baselines
//!
//! Every comparison system of the paper's evaluation (Table IV), rebuilt
//! or simulated so the full harness runs offline:
//!
//! * [`dictionary`] — **Baseline**: exact syntactic matching with the
//!   Aho–Corasick automaton ([`automata`]), dictionary built from the
//!   structured table;
//! * [`tagger`] — **LM-SD / LM-Human**: a from-scratch averaged-
//!   perceptron BIO sequence tagger. *LM-Human* trains on gold-annotated
//!   text; *LM-SD* trains on weak annotations projected from the
//!   structured table onto unannotated text (distant supervision) — the
//!   practical reading of "fine-tuned with the structured data sources".
//!   Unlike the transformer originals, it is CPU-cheap, but it exhibits
//!   the behaviours the paper reports: weak labels inflate false
//!   positives and bias toward the most frequent class; gold labels win
//!   precision but cost annotation time (Experiment 2);
//! * [`llm_sim`] — **GPT-4 / UniversalNER**: *simulated* zero-shot LLMs.
//!   We obviously cannot run the originals; the simulator reproduces
//!   their documented failure modes mechanically (per-concept recall,
//!   label confusion, hallucination, context-window truncation,
//!   sampling nondeterminism), calibrated to the paper's Table VII. It
//!   reads the gold annotations — treat its rows as a *behavioural
//!   reference*, not a measurement of any real model.
//!
//! All systems implement [`Extractor`], the harness's common interface.
//! The dictionary and the tagger also answer per-phrase `candidates`
//! queries, and their `extract` implementations are thin
//! document/subject loops over them.
//!
//! The automaton lives here, not in THOR's crates: THOR's pipeline
//! never runs it, so nothing on its path links it.

pub mod automata;
pub mod dictionary;
pub mod llm_sim;
pub mod subject;
pub mod tagger;

pub use dictionary::DictionaryBaseline;
pub use llm_sim::{LlmProfile, SimulatedLlm};
pub use tagger::{PerceptronTagger, TaggerConfig};

use thor_core::{Document, ExtractedEntity};
use thor_data::Table;

/// A system that extracts conceptualized entities from documents given
/// the integrated table (its schema and, depending on the system, its
/// instances).
pub trait Extractor {
    /// Human-readable system name (as printed in the result tables).
    fn name(&self) -> &str;

    /// Extract entities from `docs` against `table`.
    fn extract(&self, table: &Table, docs: &[Document]) -> Vec<ExtractedEntity>;
}
