#![warn(missing_docs)]
//! # thor-eval
//!
//! Evaluation machinery for the entity-centric slot-filling task.
//!
//! The paper scores systems with the SemEval-2013 Task 9 metric (as
//! implemented by `nervaluate`): predictions are aligned to ground-truth
//! entities and classified as **COR**rect (boundary and type match),
//! **PAR**tial (boundary overlap, same type), **INC**orrect (boundary
//! overlap, wrong type), **SPU**rious (no gold counterpart), with
//! unmatched gold entities counted **MIS**sing. Precision and recall
//! award partial matches half credit:
//!
//! ```text
//! P = (COR + 0.5·PAR) / (COR + INC + PAR + SPU)
//! R = (COR + 0.5·PAR) / (COR + INC + PAR + MIS)
//! ```
//!
//! The crate also computes the *sensitivity* score of Table VIII
//! (recognized gold entities per concept, counting partial hits), the
//! raw TP/FP/FN counts of Tables VI/VII, and precision–recall curve
//! points for Fig. 5.

pub mod align;
pub mod curve;
pub mod metrics;
pub mod schemas;

pub use align::{dedup_annotations, Annotation, MatchClass};
pub use curve::{PrCurve, PrPoint};
pub use metrics::{evaluate, ConceptReport, EvalReport};
pub use schemas::{schema_scores, Prf, SchemaScores};
