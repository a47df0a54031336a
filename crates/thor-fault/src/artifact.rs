//! The byte-level primitives under every persisted artifact: FNV-1a
//! digests and a little-endian payload encoder/decoder.
//!
//! * [`fnv1a`], [`fnv1a_many`] and the streaming [`Fnv1a`] hash section
//!   payloads, the container header and directory, and the semantic
//!   fingerprints of engines and run checkpoints.
//! * [`ByteWriter`] and [`ByteReader`] encode and decode the small
//!   structured sections (an engine's `meta`, its index labels, a delta
//!   link) and checkpoint payloads. Every read is bounds-checked, so a
//!   truncated or corrupt payload is a named [`ThorError`] carrying its
//!   byte offset, never a panic.
//!
//! The container these payloads live in is [`crate::section`].

use crate::error::{ThorError, ThorResult};

/// 64-bit FNV-1a over `bytes` — the same hash family the checkpoint
/// fingerprint uses. Every input byte goes through
/// `state = (state ^ b) * PRIME`, a bijection of the 64-bit state, so
/// any single-byte change changes the digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// [`fnv1a`] of every slice: output `i` is exactly `fnv1a(inputs[i])`.
///
/// Each FNV-1a step depends on the previous one through a 64-bit
/// multiply, so one chain runs at the multiply's latency. Here four
/// independent chains advance in lock-step, one byte each per step, and
/// their multiplies overlap. Slices go to the lanes longest-first, and a
/// lane takes the next slice as soon as its own ends; once fewer than
/// four slices are left, each finishes on its own.
pub fn fnv1a_many(inputs: &[&[u8]]) -> Vec<u64> {
    const LANES: usize = 4;
    let mut out = vec![FNV_OFFSET; inputs.len()];
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(inputs[i].len()));
    let mut queue = order.into_iter();
    // Lane `k` hashes input `slot[k]`, of which `rest[k]` is unread.
    let mut slot = [0usize; LANES];
    let mut rest: [&[u8]; LANES] = [&[]; LANES];
    let mut h = [FNV_OFFSET; LANES];
    let mut live = 0;
    loop {
        while live < LANES {
            let Some(i) = queue.next() else { break };
            slot[live] = i;
            rest[live] = inputs[i];
            h[live] = FNV_OFFSET;
            live += 1;
        }
        if live < LANES {
            break;
        }
        let n = rest.iter().map(|r| r.len()).min().unwrap_or(0);
        let [mut h0, mut h1, mut h2, mut h3] = h;
        let lanes = rest[0][..n]
            .iter()
            .zip(&rest[1][..n])
            .zip(&rest[2][..n])
            .zip(&rest[3][..n]);
        for (((&b0, &b1), &b2), &b3) in lanes {
            h0 = (h0 ^ u64::from(b0)).wrapping_mul(FNV_PRIME);
            h1 = (h1 ^ u64::from(b1)).wrapping_mul(FNV_PRIME);
            h2 = (h2 ^ u64::from(b2)).wrapping_mul(FNV_PRIME);
            h3 = (h3 ^ u64::from(b3)).wrapping_mul(FNV_PRIME);
        }
        h = [h0, h1, h2, h3];
        // Retire the lanes whose slice ended, compacting the live ones
        // to the front so the refill above fills the gaps.
        let mut kept = 0;
        for k in 0..LANES {
            rest[k] = &rest[k][n..];
            if rest[k].is_empty() {
                out[slot[k]] = h[k];
            } else {
                slot[kept] = slot[k];
                rest[kept] = rest[k];
                h[kept] = h[k];
                kept += 1;
            }
        }
        live = kept;
    }
    for k in 0..live {
        let mut tail = Fnv1a(h[k]);
        tail.update(rest[k]);
        out[slot[k]] = tail.finish();
    }
    out
}

/// The FNV-1a 64-bit offset basis (the digest of no bytes) and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming [`fnv1a`]: feeding the same bytes in any number of pieces
/// gives the same digest as hashing them in one slice. As a
/// [`std::fmt::Write`] sink it digests formatted text without
/// rendering it into a buffer first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The FNV-1a offset basis: the digest of no bytes.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Fold `bytes` into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of every byte fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Append-only little-endian payload encoder, the writing half of
/// [`ByteReader`].
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Consume the writer, returning the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequential little-endian payload decoder. Every read is
/// bounds-checked; running off the end yields an [`ErrorKind::Parse`]
/// error carrying the byte offset where data ran out.
///
/// [`ErrorKind::Parse`]: crate::ErrorKind::Parse
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> ThorResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(ThorError::parse(format!(
                "truncated payload: needed {n} bytes for {what}, {} left",
                self.remaining()
            ))
            .with_offset(self.pos));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> ThorResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> ThorResult<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> ThorResult<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> ThorResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> ThorResult<String> {
        let len = self.get_u64()? as usize;
        // Guard against absurd lengths from corrupted prefixes before
        // attempting the slice.
        if len > self.remaining() {
            return Err(ThorError::parse(format!(
                "truncated payload: string length {len} exceeds {} remaining bytes",
                self.remaining()
            ))
            .with_offset(self.pos));
        }
        let bytes = self.take(len, "string")?;
        String::from_utf8(bytes.to_vec()).map_err(|e| {
            ThorError::parse(format!("payload string is not UTF-8: {e}")).with_offset(self.pos)
        })
    }

    /// Assert the payload has been fully consumed (catches format
    /// drift where a writer appends fields a reader ignores).
    pub fn finish(self, what: &str) -> ThorResult<()> {
        if self.remaining() != 0 {
            return Err(ThorError::parse(format!(
                "{what}: {} trailing bytes after payload",
                self.remaining()
            ))
            .with_offset(self.pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(42);
        w.put_u64(u64::MAX);
        w.put_f64(0.7);
        w.put_str("naïve phrase");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 42);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap().to_bits(), 0.7f64.to_bits());
        assert_eq!(r.get_str().unwrap(), "naïve phrase");
        r.finish("test payload").unwrap();
    }

    #[test]
    fn reader_names_truncation_offset() {
        let mut w = ByteWriter::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u32().unwrap();
        let err = r.get_u64().unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Parse);
        assert!(err.to_string().contains("truncated"));
        assert_eq!(err.offset(), Some(4));
    }

    #[test]
    fn corrupt_string_length_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd string length
        let bytes = w.into_bytes();
        let err = ByteReader::new(&bytes).get_str().unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn streamed_fnv1a_equals_one_shot() {
        use std::fmt::Write as _;
        let bytes = b"vocabulary\t0.25 -1 0.00003\n";
        for split in 0..=bytes.len() {
            let mut h = Fnv1a::new();
            h.update(&bytes[..split]);
            h.update(&bytes[split..]);
            assert_eq!(h.finish(), fnv1a(bytes), "split at {split}");
        }
        let mut h = Fnv1a::new();
        writeln!(h, "vocabulary\t{} {} {}", 0.25f32, -1.0f32, 3e-5f32).unwrap();
        assert_eq!(h.finish(), fnv1a(bytes));
        assert_eq!(Fnv1a::new().finish(), fnv1a(&[]));
    }

    /// SplitMix64, the deterministic case generator of the lane tests.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_bytes(state: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| next(state) as u8).collect()
    }

    /// `fnv1a_many(s)[i] == fnv1a(s[i])` over 0–9 slices of length
    /// 0–300, and over the shapes that stress lane hand-off: all-equal
    /// lengths, one dominant slice, and empty slices among full ones.
    #[test]
    fn fnv1a_many_equals_the_one_shot_fold() {
        let mut state = 7u64;
        let mut cases: Vec<Vec<Vec<u8>>> = Vec::new();
        for _ in 0..3000 {
            let count = (next(&mut state) % 10) as usize;
            let case = (0..count)
                .map(|_| {
                    let len = (next(&mut state) % 301) as usize;
                    random_bytes(&mut state, len)
                })
                .collect();
            cases.push(case);
        }
        for count in 0..=9 {
            let equal = (0..count).map(|_| random_bytes(&mut state, 64)).collect();
            let mut dominant: Vec<Vec<u8>> = (0..count)
                .map(|i| random_bytes(&mut state, i * 3))
                .collect();
            dominant.insert(count / 2, random_bytes(&mut state, 5000));
            let empties = (0..count)
                .map(|i| random_bytes(&mut state, if i % 2 == 0 { 0 } else { 100 + i }))
                .collect();
            cases.extend([equal, dominant, empties, vec![Vec::new(); count]]);
        }
        for case in &cases {
            let slices: Vec<&[u8]> = case.iter().map(Vec::as_slice).collect();
            let one_shot: Vec<u64> = slices.iter().map(|s| fnv1a(s)).collect();
            let lens: Vec<usize> = slices.iter().map(|s| s.len()).collect();
            assert_eq!(fnv1a_many(&slices), one_shot, "slice lengths {lens:?}");
        }
    }

    #[test]
    fn fnv1a_detects_every_single_byte_flip() {
        let payload = b"abcdefgh".to_vec();
        let base = fnv1a(&payload);
        for i in 0..payload.len() {
            for bit in 0..8 {
                let mut mutated = payload.clone();
                mutated[i] ^= 1 << bit;
                assert_ne!(fnv1a(&mutated), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
