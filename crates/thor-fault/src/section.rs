//! The sectioned artifact container: mmap-native, alignment-padded,
//! checksummed.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [ 0.. 8]  magic            b"THORENG\0"
//! [ 8..12]  container version u32   (= 4)
//! [12..16]  section count     u32
//! [16..24]  directory offset  u64
//! [24..32]  directory length  u64
//! [32..40]  directory FNV-1a  u64
//! [40..48]  total file length u64
//! [48..56]  header FNV-1a     u64   (over bytes 0..48)
//! [56.. ]   sections, each zero-padded to a 64-byte boundary
//! [dir.. ]  section directory (written last, ends the file)
//! ```
//!
//! Each directory entry records `(name, offset, length, alignment,
//! section version, FNV-1a checksum)`. Section payloads are the *exact
//! in-memory layout* of the hot arrays (raw `f32`/`f64`/`u64` little-
//! endian scalars), so a reader can hand out typed views straight into
//! the mapped file.
//!
//! Verification is layered deliberately:
//!
//! * [`SectionFile::open`] always performs **structural** validation —
//!   header magic/version/checksum, exact file length, directory
//!   checksum, and per-entry bounds/alignment/ordering/uniqueness.
//!   Corruption anywhere in the header or directory is a named
//!   [`ThorError`], never a panic and never a silent fallback.
//! * [`SectionFile::verify_except`] additionally checksums every
//!   section *except* a caller-supplied lazy set — the mapped load
//!   policy: O(vocabulary) payloads stay untouched so startup cost
//!   stays flat, while every small section is still verified.
//! * [`SectionFile::verify_all`] checksums everything plus the
//!   inter-section zero padding — the owned load policy and what
//!   `thor inspect --engine` runs.
//!
//! Both hash their sections with [`fnv1a_many`], four FNV-1a chains at
//! a time; the values, and the first mismatch reported, are those of a
//! section-at-a-time walk.

// `u64::is_multiple_of` would read better but lands in 1.87; the
// workspace MSRV is 1.82.
#![allow(clippy::manual_is_multiple_of)]

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use crate::artifact::{fnv1a, fnv1a_many, ByteReader, ByteWriter};
use crate::error::{ResultExt, ThorError, ThorResult};
use crate::mmap::MappedBuf;
use crate::view::{FrozenPool, FrozenSlice, Pod};

/// Magic opening every engine artifact, shared with the pre-sectioned
/// v1 format so its files are still recognized and refused by name.
pub const SECTION_MAGIC: &[u8; 8] = b"THORENG\0";

/// The sectioned container version this module reads and writes, which
/// is also the engine format version. v1 (pre-sectioned), v2 and v3
/// (the same layout, older engine sections) are refused by name.
pub const CONTAINER_VERSION: u32 = 4;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 56;

/// Every section payload starts on a multiple of this (zero-padded),
/// matching [`crate::mmap::BUF_ALIGN`] so mapped sections are aligned
/// for any stored scalar type.
pub const SECTION_ALIGN: usize = 64;

/// How to back a [`SectionFile`]'s bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapMode {
    /// Read the whole file into an owned (64-byte-aligned) heap buffer.
    Owned,
    /// `mmap(2)` the file read-only (zero-copy; heap fallback only on
    /// non-unix targets).
    Mapped,
}

/// One row of the section directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section name (unique within the artifact).
    pub name: String,
    /// Byte offset of the payload from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Alignment the payload was written at.
    pub align: u32,
    /// Section format version (bumped independently of the container).
    pub version: u32,
    /// FNV-1a checksum of the payload bytes.
    pub checksum: u64,
}

/// Serializer for the sectioned container: append sections, then
/// [`finish`](Self::finish) writes the directory and header.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
    entries: Vec<SectionEntry>,
}

impl SectionWriter {
    /// Start an empty artifact.
    pub fn new() -> Self {
        Self {
            buf: vec![0u8; HEADER_LEN],
            entries: Vec::new(),
        }
    }

    /// Append one section. Names must be non-empty and unique; this is
    /// a writer-side programming contract, so violations panic.
    pub fn add(&mut self, name: &str, version: u32, payload: &[u8]) {
        assert!(!name.is_empty(), "section name must be non-empty");
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "duplicate section name `{name}`"
        );
        while self.buf.len() % SECTION_ALIGN != 0 {
            self.buf.push(0);
        }
        self.entries.push(SectionEntry {
            name: name.to_string(),
            offset: self.buf.len() as u64,
            len: payload.len() as u64,
            align: SECTION_ALIGN as u32,
            version,
            // Filled in by `finish`, all sections in one pass.
            checksum: 0,
        });
        self.buf.extend_from_slice(payload);
    }

    /// Checksum every section, then write the directory and header;
    /// returns the finished artifact bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let payloads: Vec<&[u8]> = self
            .entries
            .iter()
            .map(|e| &self.buf[e.offset as usize..(e.offset + e.len) as usize])
            .collect();
        for (e, sum) in self.entries.iter_mut().zip(fnv1a_many(&payloads)) {
            e.checksum = sum;
        }
        while self.buf.len() % SECTION_ALIGN != 0 {
            self.buf.push(0);
        }
        let dir_offset = self.buf.len() as u64;
        let mut dir = ByteWriter::new();
        for e in &self.entries {
            dir.put_str(&e.name);
            dir.put_u64(e.offset);
            dir.put_u64(e.len);
            dir.put_u32(e.align);
            dir.put_u32(e.version);
            dir.put_u64(e.checksum);
        }
        let dir = dir.into_bytes();
        let dir_checksum = fnv1a(&dir);
        self.buf.extend_from_slice(&dir);
        let total_len = self.buf.len() as u64;

        let h = &mut self.buf[..HEADER_LEN];
        h[0..8].copy_from_slice(SECTION_MAGIC);
        h[8..12].copy_from_slice(&CONTAINER_VERSION.to_le_bytes());
        h[12..16].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        h[16..24].copy_from_slice(&dir_offset.to_le_bytes());
        h[24..32].copy_from_slice(&(dir.len() as u64).to_le_bytes());
        h[32..40].copy_from_slice(&dir_checksum.to_le_bytes());
        h[40..48].copy_from_slice(&total_len.to_le_bytes());
        let header_checksum = fnv1a(&self.buf[..48]);
        self.buf[48..56].copy_from_slice(&header_checksum.to_le_bytes());
        self.buf
    }
}

/// A structurally-validated sectioned artifact, ready to hand out raw
/// bytes or typed [`FrozenSlice`] views. See the module docs for the
/// verification policy split.
#[derive(Debug)]
pub struct SectionFile {
    buf: Arc<MappedBuf>,
    entries: Vec<SectionEntry>,
}

impl SectionFile {
    /// Open `path` with the requested backing and run structural
    /// validation. Checksum policy is the caller's next move:
    /// [`verify_all`](Self::verify_all) (owned loads, `thor inspect`)
    /// or [`verify_except`](Self::verify_except) (mapped loads).
    pub fn open(path: &Path, mode: MapMode) -> ThorResult<Self> {
        let buf = match mode {
            MapMode::Owned => MappedBuf::read_file(path)?,
            MapMode::Mapped => MappedBuf::map_file(path)?,
        };
        Self::parse(Arc::new(buf)).ctx(|| format!("engine artifact {}", path.display()))
    }

    /// Validate and index an in-memory artifact (tests, proptests).
    /// The bytes are copied into a 64-byte-aligned buffer so alignment
    /// behavior matches file loads exactly.
    pub fn from_bytes(bytes: Vec<u8>) -> ThorResult<Self> {
        let mut buf = MappedBuf::alloc_heap(bytes.len());
        // SAFETY: freshly allocated, not yet shared.
        unsafe { buf.as_mut_slice() }.copy_from_slice(&bytes);
        Self::parse(Arc::new(buf))
    }

    fn parse(buf: Arc<MappedBuf>) -> ThorResult<Self> {
        if cfg!(target_endian = "big") {
            return Err(ThorError::validation(
                "sectioned engine artifacts are little-endian; this host is big-endian",
            ));
        }
        let d = buf.as_slice();
        if d.len() < HEADER_LEN {
            return Err(ThorError::validation(format!(
                "truncated: {} bytes, need at least the {HEADER_LEN}-byte header",
                d.len()
            )));
        }
        if &d[0..8] != SECTION_MAGIC {
            return Err(ThorError::validation("bad magic (not a THORENG artifact)"));
        }
        let version = read_u32(d, 8);
        let stale = match version {
            1 => Some("1 (pre-sectioned THORENG)"),
            2 => Some("2 (optional pruning sections, unescaped `|` in table values)"),
            3 => Some("3 (dictionary Baseline automaton section)"),
            _ => None,
        };
        if let Some(stale) = stale {
            return Err(ThorError::parse(format!(
                "format version {stale} is not readable by the v{CONTAINER_VERSION} loader; \
                 rebuild the artifact with `thor build --engine`"
            )));
        }
        if version != CONTAINER_VERSION {
            return Err(ThorError::parse(format!(
                "unsupported container version {version} (supported: {CONTAINER_VERSION})"
            )));
        }
        let stored_header = read_u64(d, 48);
        let computed_header = fnv1a(&d[..48]);
        if stored_header != computed_header {
            return Err(ThorError::validation(format!(
                "header checksum mismatch (stored {stored_header:#018x}, computed {computed_header:#018x})"
            )));
        }
        let section_count = read_u32(d, 12) as usize;
        let dir_offset = read_u64(d, 16);
        let dir_len = read_u64(d, 24);
        let dir_checksum = read_u64(d, 32);
        let total_len = read_u64(d, 40);
        if total_len != d.len() as u64 {
            return Err(ThorError::validation(format!(
                "truncated or length mismatch: header records {total_len} bytes, file has {}",
                d.len()
            )));
        }
        let dir_end = dir_offset
            .checked_add(dir_len)
            .filter(|&e| e == total_len && dir_offset >= HEADER_LEN as u64);
        let Some(_) = dir_end else {
            return Err(ThorError::validation(format!(
                "section directory out of bounds (offset {dir_offset}, length {dir_len}, file {total_len})"
            )));
        };
        let dir_bytes = &d[dir_offset as usize..(dir_offset + dir_len) as usize];
        let computed_dir = fnv1a(dir_bytes);
        if computed_dir != dir_checksum {
            return Err(ThorError::validation(format!(
                "section-directory checksum mismatch (stored {dir_checksum:#018x}, computed {computed_dir:#018x})"
            )));
        }

        let mut r = ByteReader::new(dir_bytes);
        let mut entries = Vec::with_capacity(section_count.min(1024));
        let mut names: HashSet<String> = HashSet::new();
        let mut prev_end = HEADER_LEN as u64;
        for _ in 0..section_count {
            let name = r.get_str().ctx(|| "section directory".to_string())?;
            let offset = r.get_u64().ctx(|| "section directory".to_string())?;
            let len = r.get_u64().ctx(|| "section directory".to_string())?;
            let align = r.get_u32().ctx(|| "section directory".to_string())?;
            let sec_version = r.get_u32().ctx(|| "section directory".to_string())?;
            let checksum = r.get_u64().ctx(|| "section directory".to_string())?;
            if align == 0 || !align.is_power_of_two() {
                return Err(ThorError::validation(format!(
                    "section `{name}` has invalid alignment {align}"
                )));
            }
            if offset % SECTION_ALIGN as u64 != 0 || offset % align as u64 != 0 {
                return Err(ThorError::validation(format!(
                    "section `{name}` misaligned: offset {offset} is not {SECTION_ALIGN}-byte aligned"
                )));
            }
            let end = offset.checked_add(len);
            let Some(end) = end.filter(|&e| e <= dir_offset && offset >= HEADER_LEN as u64) else {
                return Err(ThorError::validation(format!(
                    "section `{name}` out of bounds (offset {offset}, length {len})"
                )));
            };
            if offset < prev_end {
                return Err(ThorError::validation(format!(
                    "sections overlap or are out of order at `{name}`"
                )));
            }
            if !names.insert(name.clone()) {
                return Err(ThorError::validation(format!("duplicate section `{name}`")));
            }
            prev_end = end;
            entries.push(SectionEntry {
                name,
                offset,
                len,
                align,
                version: sec_version,
                checksum,
            });
        }
        r.finish("section directory")?;
        Ok(Self { buf, entries })
    }

    /// The directory, in file order.
    pub fn entries(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// Whether the backing bytes are a kernel memory map.
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped()
    }

    /// Total artifact size in bytes.
    pub fn total_len(&self) -> usize {
        self.buf.len()
    }

    /// The directory FNV-1a checksum from the header — a cheap identity
    /// for the whole artifact (it covers every section's name, layout
    /// and payload checksum), used to link delta files to their parent.
    pub fn dir_checksum(&self) -> u64 {
        read_u64(self.buf.as_slice(), 32)
    }

    /// The directory entry for `name`, if present.
    pub fn entry(&self, name: &str) -> Option<&SectionEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    fn require(&self, name: &str) -> ThorResult<&SectionEntry> {
        self.entry(name)
            .ok_or_else(|| ThorError::validation(format!("missing section `{name}`")))
    }

    /// A section's raw payload bytes.
    pub fn bytes(&self, name: &str) -> ThorResult<&[u8]> {
        Ok(self.payload(self.require(name)?))
    }

    fn payload(&self, e: &SectionEntry) -> &[u8] {
        &self.buf.as_slice()[e.offset as usize..(e.offset + e.len) as usize]
    }

    /// A zero-copy typed view of a section. The payload length must
    /// divide evenly into `T`-sized elements (alignment is implied by
    /// the 64-byte section grid).
    pub fn frozen_slice<T: Pod>(&self, name: &str) -> ThorResult<FrozenSlice<T>> {
        let e = self.require(name)?;
        let size = std::mem::size_of::<T>();
        if e.len as usize % size != 0 {
            return Err(ThorError::validation(format!(
                "section `{name}` length {} is not a multiple of its {size}-byte element size",
                e.len
            )));
        }
        let base = self.buf.as_slice().as_ptr() as usize;
        if (base + e.offset as usize) % std::mem::align_of::<T>() != 0 {
            return Err(ThorError::validation(format!(
                "section `{name}` is misaligned for {size}-byte elements"
            )));
        }
        Ok(FrozenSlice::view(
            Arc::clone(&self.buf),
            e.offset as usize,
            e.len as usize / size,
        ))
    }

    /// A string/byte pool assembled from an offsets section and a
    /// bytes section.
    pub fn pool(&self, offsets: &str, bytes: &str) -> ThorResult<FrozenPool> {
        Ok(FrozenPool::new(
            self.frozen_slice::<u64>(offsets)?,
            self.frozen_slice::<u8>(bytes)?,
        ))
    }

    /// Recompute and compare one section's checksum.
    pub fn verify_section(&self, name: &str) -> ThorResult<()> {
        check_sum(self.require(name)?, fnv1a(self.bytes(name)?))
    }

    /// Verify that every inter-section padding byte is zero (a flipped
    /// padding byte is corruption even though no section covers it).
    pub fn verify_padding(&self) -> ThorResult<()> {
        let d = self.buf.as_slice();
        let dir_offset = read_u64(d, 16);
        let mut prev_end = HEADER_LEN as u64;
        let mut gaps: Vec<(u64, u64)> = Vec::new();
        for e in &self.entries {
            gaps.push((prev_end, e.offset));
            prev_end = e.offset + e.len;
        }
        gaps.push((prev_end, dir_offset));
        for (lo, hi) in gaps {
            if let Some(pos) = d[lo as usize..hi as usize].iter().position(|&b| b != 0) {
                return Err(ThorError::validation(format!(
                    "nonzero padding byte at offset {}",
                    lo + pos as u64
                )));
            }
        }
        Ok(())
    }

    /// Full verification: every section checksum plus zero padding.
    /// This is the owned-load and `thor inspect` policy.
    pub fn verify_all(&self) -> ThorResult<()> {
        self.verify_except(&[])
    }

    /// Verify padding and every section *not* named in `lazy`. Mapped
    /// loads pass their O(vocabulary) section names here so cold-start
    /// cost stays independent of artifact size.
    pub fn verify_except(&self, lazy: &[&str]) -> ThorResult<()> {
        let sums = fnv1a_many(&self.checked_payloads(lazy).collect::<Vec<_>>());
        self.verify_sums(lazy, &mut sums.into_iter())
    }

    /// The sections [`verify_except`](Self::verify_except) checksums,
    /// in directory order.
    fn checked<'a>(&'a self, lazy: &'a [&str]) -> impl Iterator<Item = &'a SectionEntry> + 'a {
        self.entries
            .iter()
            .filter(move |e| !lazy.contains(&e.name.as_str()))
    }

    /// The payloads of [`checked`](Self::checked), in the same order.
    pub(crate) fn checked_payloads<'a>(
        &'a self,
        lazy: &'a [&str],
    ) -> impl Iterator<Item = &'a [u8]> + 'a {
        self.checked(lazy).map(|e| self.payload(e))
    }

    /// The padding check, then each checked section against the next of
    /// `sums` (its computed checksum), in directory order: the first
    /// mismatch is the error, as if each were hashed in turn.
    pub(crate) fn verify_sums(
        &self,
        lazy: &[&str],
        sums: &mut impl Iterator<Item = u64>,
    ) -> ThorResult<()> {
        self.verify_padding()?;
        for e in self.checked(lazy) {
            check_sum(
                e,
                sums.next().expect("one computed sum per checked section"),
            )?;
        }
        Ok(())
    }
}

fn check_sum(e: &SectionEntry, computed: u64) -> ThorResult<()> {
    if computed != e.checksum {
        return Err(ThorError::validation(format!(
            "section `{}` checksum mismatch (stored {:#018x}, computed {computed:#018x})",
            e.name, e.checksum
        )));
    }
    Ok(())
}

fn read_u32(d: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(d[at..at + 4].try_into().expect("bounds checked"))
}

fn read_u64(d: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(d[at..at + 8].try_into().expect("bounds checked"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SectionWriter::new();
        w.add("meta", 1, b"hello meta");
        w.add(
            "rows",
            1,
            &[1.0f32, -2.5, 3.25]
                .iter()
                .flat_map(|x| x.to_le_bytes())
                .collect::<Vec<u8>>(),
        );
        w.add("empty", 3, b"");
        w.finish()
    }

    #[test]
    fn round_trip_entries_and_views() {
        let bytes = sample();
        let f = SectionFile::from_bytes(bytes).unwrap();
        f.verify_all().unwrap();
        assert_eq!(f.entries().len(), 3);
        assert_eq!(f.bytes("meta").unwrap(), b"hello meta");
        let rows: FrozenSlice<f32> = f.frozen_slice("rows").unwrap();
        assert_eq!(&*rows, &[1.0, -2.5, 3.25]);
        assert!(rows.is_view() || !f.is_mapped());
        assert_eq!(f.entry("empty").unwrap().version, 3);
        assert!(f
            .bytes("nope")
            .unwrap_err()
            .to_string()
            .contains("missing section"));
    }

    /// The writer as it was before checksums moved into `finish`: each
    /// section is hashed on its own as it is added.
    fn one_at_a_time_writer(sections: &[(String, u32, Vec<u8>)]) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN];
        let mut dir = ByteWriter::new();
        for (name, version, payload) in sections {
            while buf.len() % SECTION_ALIGN != 0 {
                buf.push(0);
            }
            dir.put_str(name);
            dir.put_u64(buf.len() as u64);
            dir.put_u64(payload.len() as u64);
            dir.put_u32(SECTION_ALIGN as u32);
            dir.put_u32(*version);
            dir.put_u64(fnv1a(payload));
            buf.extend_from_slice(payload);
        }
        while buf.len() % SECTION_ALIGN != 0 {
            buf.push(0);
        }
        let dir = dir.into_bytes();
        let dir_offset = buf.len() as u64;
        buf.extend_from_slice(&dir);
        let total_len = buf.len() as u64;
        buf[0..8].copy_from_slice(SECTION_MAGIC);
        buf[8..12].copy_from_slice(&CONTAINER_VERSION.to_le_bytes());
        buf[12..16].copy_from_slice(&(sections.len() as u32).to_le_bytes());
        buf[16..24].copy_from_slice(&dir_offset.to_le_bytes());
        buf[24..32].copy_from_slice(&(dir.len() as u64).to_le_bytes());
        buf[32..40].copy_from_slice(&fnv1a(&dir).to_le_bytes());
        buf[40..48].copy_from_slice(&total_len.to_le_bytes());
        let header_checksum = fnv1a(&buf[..48]);
        buf[48..56].copy_from_slice(&header_checksum.to_le_bytes());
        buf
    }

    #[test]
    fn finish_writes_the_bytes_of_a_writer_that_checksums_in_add() {
        let mut state = 11u64;
        for count in 0..12usize {
            for round in 0..8 {
                let sections: Vec<(String, u32, Vec<u8>)> = (0..count)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let len = match round {
                            0 => 0,
                            1 => 64,
                            2 if i == 0 => 4096,
                            _ => (state >> 33) as usize % 700,
                        };
                        let payload = (0..len).map(|j| (state >> (j % 56)) as u8).collect();
                        (format!("s{i}"), (i % 3) as u32, payload)
                    })
                    .collect();
                let mut w = SectionWriter::new();
                for (name, version, payload) in &sections {
                    w.add(name, *version, payload);
                }
                let lens: Vec<usize> = sections.iter().map(|s| s.2.len()).collect();
                assert!(
                    w.finish() == one_at_a_time_writer(&sections),
                    "section lengths {lens:?}"
                );
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected_by_full_verification() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let outcome = SectionFile::from_bytes(corrupt).and_then(|f| f.verify_all());
            assert!(outcome.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected_at_any_length() {
        let bytes = sample();
        for keep in [
            0,
            1,
            HEADER_LEN - 1,
            HEADER_LEN,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let outcome = SectionFile::from_bytes(bytes[..keep].to_vec());
            assert!(outcome.is_err(), "truncation to {keep} bytes accepted");
        }
    }

    #[test]
    fn stale_and_future_versions_are_named_rejections() {
        for stale in [1u32, 2, 3] {
            let mut bytes = sample();
            bytes[8..12].copy_from_slice(&stale.to_le_bytes());
            let fixed = fnv1a(&bytes[..48]);
            bytes[48..56].copy_from_slice(&fixed.to_le_bytes());
            let err = SectionFile::from_bytes(bytes).unwrap_err().to_string();
            assert!(err.contains(&format!("format version {stale}")), "{err}");
            assert!(err.contains("rebuild"), "{err}");
        }

        let mut v9 = sample();
        v9[8..12].copy_from_slice(&9u32.to_le_bytes());
        let fixed = fnv1a(&v9[..48]);
        v9[48..56].copy_from_slice(&fixed.to_le_bytes());
        let err = SectionFile::from_bytes(v9).unwrap_err();
        assert!(
            err.to_string().contains("unsupported container version 9"),
            "{err}"
        );
    }

    #[test]
    fn misaligned_section_is_a_named_rejection() {
        // Hand-corrupt the first entry's offset to 57 (not 64-aligned)
        // and re-seal the directory + header checksums, so the *only*
        // defect left is the misalignment itself.
        let bytes = sample();
        let f = SectionFile::from_bytes(bytes.clone()).unwrap();
        let dir_offset = f.entries()[0].offset; // first section at 64
        assert_eq!(dir_offset, 64);
        drop(f);

        let mut w = SectionWriter::new();
        w.add("meta", 1, b"hello meta");
        let mut evil = w.finish();
        let dir_off = u64::from_le_bytes(evil[16..24].try_into().unwrap()) as usize;
        let dir_len = u64::from_le_bytes(evil[24..32].try_into().unwrap()) as usize;
        // Directory entry layout: str(len u64 + "meta") then offset u64.
        let entry_offset_pos = dir_off + 8 + 4;
        evil[entry_offset_pos..entry_offset_pos + 8].copy_from_slice(&57u64.to_le_bytes());
        let dir_sum = fnv1a(&evil[dir_off..dir_off + dir_len]);
        evil[32..40].copy_from_slice(&dir_sum.to_le_bytes());
        let head_sum = fnv1a(&evil[..48]);
        evil[48..56].copy_from_slice(&head_sum.to_le_bytes());
        let err = SectionFile::from_bytes(evil).unwrap_err();
        assert!(err.to_string().contains("misaligned"), "{err}");
    }

    #[test]
    fn lazy_verification_skips_named_sections_only() {
        let bytes = sample();
        let rows_entry_offset;
        {
            let f = SectionFile::from_bytes(bytes.clone()).unwrap();
            rows_entry_offset = f.entry("rows").unwrap().offset as usize;
        }
        let mut corrupt = bytes;
        corrupt[rows_entry_offset] ^= 0xff; // inside the rows payload
        let f = SectionFile::from_bytes(corrupt).unwrap();
        f.verify_except(&["rows"]).unwrap();
        assert!(f.verify_all().is_err());
        assert!(f
            .verify_section("rows")
            .unwrap_err()
            .to_string()
            .contains("checksum mismatch"));
    }

    #[test]
    fn file_round_trip_owned_and_mapped() {
        let dir = std::env::temp_dir().join(format!("thor-section-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.thoreng");
        std::fs::write(&path, sample()).unwrap();
        for mode in [MapMode::Owned, MapMode::Mapped] {
            let f = SectionFile::open(&path, mode).unwrap();
            f.verify_all().unwrap();
            assert_eq!(f.bytes("meta").unwrap(), b"hello meta");
        }
        #[cfg(unix)]
        assert!(SectionFile::open(&path, MapMode::Mapped)
            .unwrap()
            .is_mapped());
        assert!(!SectionFile::open(&path, MapMode::Owned)
            .unwrap()
            .is_mapped());
    }
}
