#![warn(missing_docs)]
//! # thor-fault
//!
//! The fault-tolerance substrate of the THOR reproduction: everything
//! the pipeline needs to *tunnel through* dirty inputs and survive
//! crashes instead of aborting on the first malformed byte.
//!
//! Its pieces, all std-only (no registry deps, matching the vendored
//! shim convention):
//!
//! - [`error`] — the workspace-wide [`ThorError`] taxonomy with
//!   source/context chaining, replacing `Result<_, String>` plumbing.
//! - [`failpoint`] — named, deterministic fault-injection points
//!   (`THOR_FAILPOINTS=read_doc:err@3,extract:panic@7`) compiled into
//!   I/O and pipeline seams; zero-cost when unarmed.
//! - [`atomic_io`] — atomic file writes (temp file + fsync + rename +
//!   parent-directory fsync) so a kill never leaves truncated artifacts
//!   behind and a completed rename survives power loss.
//! - [`cancel`] — the cooperative [`CancelToken`] checked between
//!   pipeline stages, backing per-request deadline budgets.
//! - [`artifact`] — the byte-level primitives under every persisted
//!   artifact: FNV-1a digests ([`fnv1a`], [`fnv1a_many`]) and the
//!   bounds-checked little-endian payload codec ([`ByteWriter`],
//!   [`ByteReader`]).
//! - [`section`] — the sectioned artifact container engine bundles are
//!   stored in: 64-byte-aligned named sections with per-section
//!   checksums and a checksummed directory, designed so hot arrays can
//!   be used in place from a memory-mapped file; rejects corrupt,
//!   truncated and stale-version files by name before any payload
//!   parsing runs.
//! - [`chain`] — delta chains over the sectioned container: a base
//!   artifact plus stacked per-section patches ([`DeltaMeta`] parent
//!   links), resolved topmost-wins on open and foldable back into a
//!   single base via [`SectionChain::compact_bytes`].
//! - [`mmap`] — the std-only read-only mapping shim ([`MappedBuf`])
//!   with an aligned heap fallback.
//! - [`view`] — owned-or-mapped array views ([`FrozenSlice`],
//!   [`FrozenPool`]) the engine structs hold their hot arrays in.
//! - [`validate`] — document admission control: UTF-8 decoding with
//!   byte offsets, size caps, empty/garbage detection.
//! - [`quarantine`] — the per-document failure ledger (doc id, stage,
//!   error, byte offset) lenient runs report instead of dying.
//! - [`checkpoint`] — the resumable-run state file: processed-doc set,
//!   partial slot-fills, quarantine entries, and a metrics snapshot.

pub mod artifact;
pub mod atomic_io;
pub mod cancel;
pub mod chain;
pub mod checkpoint;
pub mod error;
pub mod failpoint;
pub mod mmap;
pub mod quarantine;
pub mod section;
pub mod validate;
pub mod view;

pub use artifact::{fnv1a, fnv1a_many, ByteReader, ByteWriter, Fnv1a};
pub use atomic_io::{atomic_write, read_bytes, read_to_string};
pub use cancel::CancelToken;
pub use chain::{DeltaMeta, SectionChain, DELTA_META_SECTION, DELTA_META_VERSION, MAX_CHAIN_DEPTH};
pub use checkpoint::{fingerprint, Checkpoint, EntityRecord};
pub use error::{ErrorKind, ResultExt, ThorError, ThorResult};
pub use failpoint::{
    fail_point, failpoints_armed, install_from_env, scoped_failpoints, FailAction, FailpointsGuard,
};
pub use mmap::MappedBuf;
pub use quarantine::{QuarantineEntry, QuarantineReport};
pub use section::{
    MapMode, SectionEntry, SectionFile, SectionWriter, CONTAINER_VERSION, SECTION_ALIGN,
    SECTION_MAGIC,
};
pub use validate::{decode_document, validate_text, DocumentPolicy};
pub use view::{FrozenPool, FrozenSlice, Pod};
