#![warn(missing_docs)]
//! # thor-data
//!
//! The structured-data substrate: concept-oriented schemas, multi-valued
//! tables with labeled nulls, the integration operators that *create* the
//! data sparsity problem, and sparsity statistics.
//!
//! The paper's setting: "Data integration … typically combines the
//! underlying datasets with operators that allow for partial matches,
//! such as outer join or full disjunction. The consequence, however, is
//! the generation of a large number of missing values (a.k.a. labeled
//! nulls, denoted by ⊥)". This crate implements:
//!
//! * [`schema`] — concepts `C`, the subject concept `C*`, schemas `𝒞`;
//! * [`table`] — tables `R` whose rows have a single-valued subject and
//!   multi-valued cells for every other concept, with ⊥ as the empty
//!   cell;
//! * [`integrate`] — full outer join and (star-schema) full disjunction
//!   over partial sources, producing the sparse integrated table;
//! * [`csv`] — plain-text serialization for artifacts;
//! * [`corpus`] — streaming corpus discovery (sorted ids, no document
//!   bodies in memory) for out-of-core enrichment;
//! * [`stats`] — sparsity measurements (the "15% of the values" figure).

pub mod corpus;
pub mod csv;
pub mod integrate;
pub mod schema;
pub mod stats;
pub mod table;

pub use corpus::CorpusDir;
pub use csv::{from_csv, from_csv_lenient, to_csv, CsvError, LenientCsv, SkippedRow};
pub use integrate::{full_disjunction, outer_join};
pub use schema::{Concept, Schema};
pub use stats::{sparsity, SparsityReport};
pub use table::{Cell, Row, SlotWriter, Table};
