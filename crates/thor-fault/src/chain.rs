//! Delta chains over the sectioned container.
//!
//! A **delta artifact** is an ordinary [`SectionFile`] that carries a
//! [`DELTA_META_SECTION`] naming its parent artifact (path, directory
//! checksum, engine fingerprint, chain depth) plus the subset of engine
//! sections that *changed* relative to that parent, each under its
//! original name and version. Unchanged sections are not repeated — a
//! reader resolves every section against the **topmost** chain file
//! that provides it, so a base plus N deltas behaves exactly like the
//! artifact a fresh build of the final state would have written.
//!
//! [`SectionChain::open`] walks parent links from the file it is given
//! down to the base, re-using the container's structural validation at
//! every hop and link-checking each delta's recorded parent directory
//! checksum against the actual parent (a mismatch is a named
//! [`ThorError::delta_base_mismatch`], never a checksum panic later).
//! [`SectionChain::compact_bytes`] folds the chain back into a single
//! base artifact: because the writer is deterministic and sections are
//! assembled in base order from their topmost providers, compaction of
//! a chain is byte-identical to a fresh save of the same engine state.

use std::path::{Path, PathBuf};

use crate::artifact::{fnv1a_many, ByteReader, ByteWriter};
use crate::error::{ResultExt, ThorError, ThorResult};
use crate::section::{MapMode, SectionEntry, SectionFile, SectionWriter};
use crate::view::{FrozenPool, FrozenSlice, Pod};

/// Name of the section that marks a file as a delta and links it to
/// its parent artifact.
pub const DELTA_META_SECTION: &str = "delta.meta";

/// Format version of the [`DELTA_META_SECTION`] payload.
pub const DELTA_META_VERSION: u32 = 1;

/// Maximum number of deltas a chain may stack on one base. The cap
/// bounds open cost, doubles as cycle protection for corrupt parent
/// links, and nudges operators toward `thor compact`.
pub const MAX_CHAIN_DEPTH: usize = 64;

/// The parent link stored in a delta artifact's [`DELTA_META_SECTION`].
/// Fields are public (with explicit [`encode`](Self::encode) /
/// [`parse`](Self::parse)) so tests and tools can craft or inspect
/// links directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaMeta {
    /// Path of the parent artifact; relative paths resolve against the
    /// delta file's own directory, so a chain stays valid when the
    /// directory moves as a unit.
    pub parent: String,
    /// The parent's header directory checksum
    /// ([`SectionFile::dir_checksum`]) — the byte-level identity the
    /// chain walk link-checks.
    pub parent_dir_checksum: u64,
    /// The parent *engine* fingerprint (config + data digests), the
    /// semantic identity the engine loader link-checks.
    pub parent_fingerprint: String,
    /// Position in the chain: 1 for a delta on the base, 2 for a delta
    /// on that, …
    pub depth: u64,
    /// Free-form provenance note (e.g. the CLI invocation).
    pub note: String,
}

impl DeltaMeta {
    /// Serialize the link for a [`DELTA_META_SECTION`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(&self.parent);
        w.put_u64(self.parent_dir_checksum);
        w.put_str(&self.parent_fingerprint);
        w.put_u64(self.depth);
        w.put_str(&self.note);
        w.into_bytes()
    }

    /// Parse a [`DELTA_META_SECTION`] payload.
    pub fn parse(bytes: &[u8]) -> ThorResult<Self> {
        let mut r = ByteReader::new(bytes);
        let parent = r.get_str().ctx(|| DELTA_META_SECTION.to_string())?;
        let parent_dir_checksum = r.get_u64().ctx(|| DELTA_META_SECTION.to_string())?;
        let parent_fingerprint = r.get_str().ctx(|| DELTA_META_SECTION.to_string())?;
        let depth = r.get_u64().ctx(|| DELTA_META_SECTION.to_string())?;
        let note = r.get_str().ctx(|| DELTA_META_SECTION.to_string())?;
        r.finish(DELTA_META_SECTION)?;
        Ok(Self {
            parent,
            parent_dir_checksum,
            parent_fingerprint,
            depth,
            note,
        })
    }
}

/// A base artifact plus zero or more stacked deltas, opened and
/// link-verified as one unit. Section lookups resolve against the
/// topmost file that provides the section.
#[derive(Debug)]
pub struct SectionChain {
    /// `files[0]` is the base; the last entry is the file that was
    /// opened.
    files: Vec<SectionFile>,
    /// Paths in the same order as `files`.
    paths: Vec<PathBuf>,
    /// `metas[i]` is the parent link carried by `files[i + 1]`.
    metas: Vec<DeltaMeta>,
}

impl SectionChain {
    /// Open `path` and every ancestor it links to, all with the same
    /// backing `mode`. Structural validation runs per file exactly as
    /// in [`SectionFile::open`]; additionally each delta's
    /// `delta.meta` section is checksum-verified and its recorded
    /// parent directory checksum compared to the actual parent.
    pub fn open(path: &Path, mode: MapMode) -> ThorResult<Self> {
        let mut files: Vec<SectionFile> = Vec::new();
        let mut paths: Vec<PathBuf> = Vec::new();
        let mut metas: Vec<DeltaMeta> = Vec::new();
        let mut current = path.to_path_buf();
        loop {
            if files.len() > MAX_CHAIN_DEPTH {
                return Err(ThorError::validation(format!(
                    "delta chain under {} exceeds {MAX_CHAIN_DEPTH} deltas (or links form a \
                     cycle); fold it with `thor compact`",
                    path.display()
                )));
            }
            let file = SectionFile::open(&current, mode)?;
            let meta = if file.entry(DELTA_META_SECTION).is_some() {
                file.verify_section(DELTA_META_SECTION)
                    .ctx(|| format!("delta artifact {}", current.display()))?;
                Some(
                    DeltaMeta::parse(file.bytes(DELTA_META_SECTION)?)
                        .ctx(|| format!("delta artifact {}", current.display()))?,
                )
            } else {
                None
            };
            files.push(file);
            paths.push(current.clone());
            match meta {
                Some(m) => {
                    let parent = Path::new(&m.parent);
                    current = if parent.is_absolute() {
                        parent.to_path_buf()
                    } else {
                        current
                            .parent()
                            .unwrap_or_else(|| Path::new("."))
                            .join(parent)
                    };
                    metas.push(m);
                }
                None => break,
            }
        }
        files.reverse();
        paths.reverse();
        metas.reverse();
        let chain = Self {
            files,
            paths,
            metas,
        };
        for (i, meta) in chain.metas.iter().enumerate() {
            let found = chain.files[i].dir_checksum();
            if meta.parent_dir_checksum != found {
                return Err(ThorError::delta_base_mismatch(
                    chain.paths[i].display(),
                    format!("directory checksum {:#018x}", meta.parent_dir_checksum),
                    format!("directory checksum {found:#018x}"),
                ));
            }
        }
        Ok(chain)
    }

    /// Number of deltas stacked on the base (0 for a plain artifact).
    pub fn depth(&self) -> usize {
        self.files.len() - 1
    }

    /// The chain's files, base first.
    pub fn files(&self) -> &[SectionFile] {
        &self.files
    }

    /// The chain's file paths, base first.
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }

    /// Parent links, base-most first: `metas()[i]` is carried by
    /// `files()[i + 1]`.
    pub fn metas(&self) -> &[DeltaMeta] {
        &self.metas
    }

    /// The base artifact.
    pub fn base(&self) -> &SectionFile {
        &self.files[0]
    }

    /// The topmost artifact (the file that was opened).
    pub fn top(&self) -> &SectionFile {
        self.files.last().expect("chains are non-empty")
    }

    /// Whether any file in the chain is a kernel memory map.
    pub fn is_mapped(&self) -> bool {
        self.files.iter().any(SectionFile::is_mapped)
    }

    /// The topmost file providing `name` among `files()[..=upto]`.
    fn provider_upto(&self, name: &str, upto: usize) -> Option<&SectionFile> {
        self.files[..=upto]
            .iter()
            .rev()
            .find(|f| f.entry(name).is_some())
    }

    /// The resolved directory entry for `name` (topmost provider).
    pub fn entry(&self, name: &str) -> Option<&SectionEntry> {
        self.provider_upto(name, self.files.len() - 1)
            .and_then(|f| f.entry(name))
    }

    /// Resolved payload bytes for `name` (topmost provider).
    pub fn bytes(&self, name: &str) -> ThorResult<&[u8]> {
        match self.provider_upto(name, self.files.len() - 1) {
            Some(f) => f.bytes(name),
            None => Err(ThorError::validation(format!("missing section `{name}`"))),
        }
    }

    /// Payload bytes for `name` as the chain *prefix* ending at file
    /// `upto` would resolve them — what a reader of that prefix saw
    /// before later deltas stacked on. The engine loader uses this to
    /// link-check each delta's recorded parent fingerprint against the
    /// meta section of the prefix below it.
    pub fn bytes_upto(&self, name: &str, upto: usize) -> ThorResult<&[u8]> {
        match self.provider_upto(name, upto) {
            Some(f) => f.bytes(name),
            None => Err(ThorError::validation(format!("missing section `{name}`"))),
        }
    }

    /// A zero-copy typed view of the resolved section.
    pub fn frozen_slice<T: Pod>(&self, name: &str) -> ThorResult<FrozenSlice<T>> {
        match self.provider_upto(name, self.files.len() - 1) {
            Some(f) => f.frozen_slice(name),
            None => Err(ThorError::validation(format!("missing section `{name}`"))),
        }
    }

    /// A string/byte pool from an offsets section and a bytes section —
    /// each resolved independently, since a delta may patch one half of
    /// a pool without the other.
    pub fn pool(&self, offsets: &str, bytes: &str) -> ThorResult<FrozenPool> {
        Ok(FrozenPool::new(
            self.frozen_slice::<u64>(offsets)?,
            self.frozen_slice::<u8>(bytes)?,
        ))
    }

    /// Full verification of every file in the chain (checksums plus
    /// padding) — the owned-load and `thor inspect` policy.
    pub fn verify_all(&self) -> ThorResult<()> {
        self.verify_except(&[])
    }

    /// Verify every file, skipping sections named in `lazy` in each —
    /// the mapped-load policy. `delta.meta` sections were already
    /// verified during [`open`](Self::open).
    ///
    /// The checked sections of all files are hashed in one
    /// [`fnv1a_many`] call, then compared file by file, base first, in
    /// the order a file-at-a-time walk would, so the first error is the
    /// same.
    pub fn verify_except(&self, lazy: &[&str]) -> ThorResult<()> {
        let payloads: Vec<&[u8]> = self
            .files
            .iter()
            .flat_map(|f| f.checked_payloads(lazy))
            .collect();
        let mut sums = fnv1a_many(&payloads).into_iter();
        for (f, p) in self.files.iter().zip(&self.paths) {
            f.verify_sums(lazy, &mut sums)
                .ctx(|| format!("engine artifact {}", p.display()))?;
        }
        Ok(())
    }

    /// Fold the chain into a single base artifact: every base section,
    /// in base order, taken from its topmost provider. Deterministic —
    /// byte-identical to what a fresh save of the resolved state
    /// produces. Errors if a delta patches a section the base does not
    /// have (nothing defines its position in the canonical order).
    pub fn compact_bytes(&self) -> ThorResult<Vec<u8>> {
        for (i, f) in self.files.iter().enumerate().skip(1) {
            for e in f.entries() {
                if e.name != DELTA_META_SECTION && self.files[0].entry(&e.name).is_none() {
                    return Err(ThorError::validation(format!(
                        "delta {} patches section `{}` which the base does not have",
                        self.paths[i].display(),
                        e.name
                    )));
                }
            }
        }
        let mut w = SectionWriter::new();
        for base_entry in self.files[0].entries() {
            let f = self
                .provider_upto(&base_entry.name, self.files.len() - 1)
                .expect("the base itself provides this section");
            let e = f.entry(&base_entry.name).expect("provider has the entry");
            w.add(&base_entry.name, e.version, f.bytes(&base_entry.name)?);
        }
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::fnv1a;

    fn tmp() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "thor-chain-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_base(dir: &Path) -> PathBuf {
        let mut w = SectionWriter::new();
        w.add("alpha", 1, b"base alpha");
        w.add("beta", 2, b"base beta");
        let path = dir.join("base.eng");
        std::fs::write(&path, w.finish()).unwrap();
        path
    }

    fn write_delta(
        dir: &Path,
        name: &str,
        parent: &Path,
        depth: u64,
        patches: &[(&str, u32, &[u8])],
    ) -> PathBuf {
        let parent_file = SectionFile::open(parent, MapMode::Owned).unwrap();
        let meta = DeltaMeta {
            parent: parent.file_name().unwrap().to_string_lossy().into_owned(),
            parent_dir_checksum: parent_file.dir_checksum(),
            parent_fingerprint: "fp".to_string(),
            depth,
            note: String::new(),
        };
        let mut w = SectionWriter::new();
        w.add(DELTA_META_SECTION, DELTA_META_VERSION, &meta.encode());
        for (sec, version, payload) in patches {
            w.add(sec, *version, payload);
        }
        let path = dir.join(name);
        std::fs::write(&path, w.finish()).unwrap();
        path
    }

    #[test]
    fn meta_round_trips() {
        let meta = DeltaMeta {
            parent: "base.eng".into(),
            parent_dir_checksum: 0xDEAD_BEEF,
            parent_fingerprint: "abc123".into(),
            depth: 2,
            note: "thor delta --add-seeds x.csv".into(),
        };
        assert_eq!(DeltaMeta::parse(&meta.encode()).unwrap(), meta);
        assert!(DeltaMeta::parse(&meta.encode()[..5]).is_err());
    }

    #[test]
    fn chain_resolves_topmost_and_compacts_deterministically() {
        let dir = tmp();
        let base = write_base(&dir);
        let d1 = write_delta(&dir, "d1.eng", &base, 1, &[("beta", 2, b"d1 beta")]);
        let d2 = write_delta(&dir, "d2.eng", &d1, 2, &[("alpha", 1, b"d2 alpha")]);

        let chain = SectionChain::open(&d2, MapMode::Owned).unwrap();
        chain.verify_all().unwrap();
        assert_eq!(chain.depth(), 2);
        assert_eq!(chain.files().len(), 3);
        assert_eq!(chain.metas().len(), 2);
        assert_eq!(chain.metas()[0].depth, 1);
        assert_eq!(chain.bytes("alpha").unwrap(), b"d2 alpha");
        assert_eq!(chain.bytes("beta").unwrap(), b"d1 beta");
        // Prefix resolution: the chain up to d1 still sees base alpha.
        assert_eq!(chain.bytes_upto("alpha", 1).unwrap(), b"base alpha");
        assert_eq!(chain.bytes_upto("beta", 0).unwrap(), b"base beta");
        assert!(chain.bytes("gamma").is_err());

        // Compaction assembles topmost payloads in base section order
        // and is bit-identical to writing that state fresh.
        let compacted = chain.compact_bytes().unwrap();
        let mut fresh = SectionWriter::new();
        fresh.add("alpha", 1, b"d2 alpha");
        fresh.add("beta", 2, b"d1 beta");
        assert_eq!(compacted, fresh.finish());

        // A plain base opens as a depth-0 chain.
        let plain = SectionChain::open(&base, MapMode::Mapped).unwrap();
        assert_eq!(plain.depth(), 0);
        assert_eq!(plain.bytes("alpha").unwrap(), b"base alpha");
    }

    #[test]
    fn stale_parent_is_a_named_base_mismatch() {
        let dir = tmp();
        let base = write_base(&dir);
        let d1 = write_delta(&dir, "stale.eng", &base, 1, &[("beta", 2, b"new beta")]);
        // Rewrite the base after the delta was cut: its directory
        // checksum changes, so the link must fail by name.
        let mut w = SectionWriter::new();
        w.add("alpha", 1, b"rebuilt alpha");
        w.add("beta", 2, b"rebuilt beta");
        std::fs::write(&base, w.finish()).unwrap();
        let err = SectionChain::open(&d1, MapMode::Owned).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("delta base mismatch"), "{msg}");
        assert!(msg.contains("thor compact"), "{msg}");
    }

    #[test]
    fn corrupt_delta_meta_is_a_named_rejection() {
        let dir = tmp();
        let base = write_base(&dir);
        let d1 = write_delta(&dir, "corrupt.eng", &base, 1, &[("beta", 2, b"x")]);
        let mut bytes = std::fs::read(&d1).unwrap();
        let f = SectionFile::from_bytes(bytes.clone()).unwrap();
        let meta_off = f.entry(DELTA_META_SECTION).unwrap().offset as usize;
        drop(f);
        bytes[meta_off] ^= 0xff;
        std::fs::write(&d1, bytes).unwrap();
        let err = SectionChain::open(&d1, MapMode::Owned).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn self_referential_chain_hits_the_depth_cap() {
        let dir = tmp();
        let base = write_base(&dir);
        let d1 = write_delta(&dir, "loop.eng", &base, 1, &[]);
        // Point the delta at itself: re-cut it with parent = loop.eng.
        let loop_delta = write_delta(&dir, "loop.eng", &d1, 1, &[]);
        let err = SectionChain::open(&loop_delta, MapMode::Owned);
        // Either the self-link's recorded checksum no longer matches
        // (the rewrite changed the file) or the walk hits the cap; both
        // are named rejections, never a hang.
        assert!(err.is_err());
    }

    #[test]
    fn delta_with_unknown_section_cannot_compact() {
        let dir = tmp();
        let base = write_base(&dir);
        let d1 = write_delta(&dir, "extra.eng", &base, 1, &[("gamma", 1, b"new")]);
        let chain = SectionChain::open(&d1, MapMode::Owned).unwrap();
        let err = chain.compact_bytes().unwrap_err();
        assert!(err.to_string().contains("gamma"), "{err}");
    }

    #[test]
    fn dir_checksum_matches_header_field() {
        let dir = tmp();
        let base = write_base(&dir);
        let bytes = std::fs::read(&base).unwrap();
        let f = SectionFile::from_bytes(bytes.clone()).unwrap();
        let dir_off = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let dir_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        assert_eq!(f.dir_checksum(), fnv1a(&bytes[dir_off..dir_off + dir_len]));
    }
}
