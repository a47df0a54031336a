//! Borrowed-or-owned views over artifact sections.
//!
//! The zero-copy engine structs (`VectorStore`, `VectorIndex`, the
//! prepared candidate lists) hold their hot arrays as [`FrozenSlice`]s:
//! either an owned `Vec<T>` (fresh in-memory builds) or a typed view
//! into a shared [`MappedBuf`] (engines loaded from a sectioned artifact).
//! `Deref<Target = [T]>` lets hot loops bind a plain `&[T]` once per
//! call, so the backing split costs one branch per *call*, not per
//! *element* — no dynamic dispatch anywhere on the scan paths.
//!
//! Views are only constructed by the section reader after it has
//! validated bounds, element-size divisibility and alignment, so the
//! `unsafe` reinterpret below is confined to invariants checked at load
//! time. [`Pod`] is sealed to the five scalar types the artifact
//! format stores; byte layout is little-endian by definition (sectioned
//! artifacts refuse to open on big-endian hosts).

use std::sync::Arc;

use crate::mmap::MappedBuf;

mod private {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Plain-old-data scalars that may be reinterpreted directly from
/// artifact bytes. Sealed: exactly `u8`, `u32`, `u64`, `f32`, `f64`.
///
/// # Safety
/// Implementors must be valid for every bit pattern and have no
/// padding; the sealed impls all satisfy this.
pub unsafe trait Pod: private::Sealed + Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

#[derive(Clone)]
enum Inner<T: Pod> {
    Owned(Vec<T>),
    Viewed {
        buf: Arc<MappedBuf>,
        /// Byte offset of the first element inside `buf`.
        offset: usize,
        /// Element count.
        len: usize,
    },
}

/// An immutable `[T]` that is either owned or a zero-copy view into a
/// mapped artifact. See the module docs.
#[derive(Clone)]
pub struct FrozenSlice<T: Pod> {
    inner: Inner<T>,
}

impl<T: Pod> FrozenSlice<T> {
    /// An empty owned slice.
    pub fn empty() -> Self {
        Vec::new().into()
    }

    /// Construct a view over `buf[offset .. offset + len * size_of::<T>()]`.
    ///
    /// # Panics
    /// Debug-asserts bounds and alignment; callers (the section reader)
    /// must have validated both. A release-mode violation would still be
    /// caught by the bounds check in `as_slice`.
    pub(crate) fn view(buf: Arc<MappedBuf>, offset: usize, len: usize) -> Self {
        debug_assert!(offset
            .checked_add(len * std::mem::size_of::<T>())
            .is_some_and(|end| end <= buf.len()));
        debug_assert_eq!(
            (buf.as_slice().as_ptr() as usize + offset) % std::mem::align_of::<T>(),
            0
        );
        Self {
            inner: Inner::Viewed { buf, offset, len },
        }
    }

    /// The elements. Hot paths should call this (or deref) once and
    /// keep the `&[T]`.
    pub fn as_slice(&self) -> &[T] {
        match &self.inner {
            Inner::Owned(v) => v,
            Inner::Viewed { buf, offset, len } => {
                let bytes = &buf.as_slice()[*offset..*offset + *len * std::mem::size_of::<T>()];
                // SAFETY: bounds and alignment validated at view
                // construction (section reader) and re-checked by the
                // slice indexing above; `T: Pod` is valid for any bits.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, *len) }
            }
        }
    }

    /// Whether this slice borrows a mapped buffer (vs owning its data).
    pub fn is_view(&self) -> bool {
        matches!(self.inner, Inner::Viewed { .. })
    }
}

impl<T: Pod> From<Vec<T>> for FrozenSlice<T> {
    fn from(v: Vec<T>) -> Self {
        Self {
            inner: Inner::Owned(v),
        }
    }
}

impl<T: Pod> std::ops::Deref for FrozenSlice<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Default for FrozenSlice<T> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for FrozenSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenSlice")
            .field("len", &self.as_slice().len())
            .field("view", &self.is_view())
            .finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for FrozenSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A frozen string/byte pool: `offsets[i] .. offsets[i + 1]` delimits
/// item `i` inside `bytes`. This is the on-artifact representation of
/// sorted word lists (vocabulary, candidate words).
///
/// Accessors are fully defensive — out-of-range or non-monotone
/// offsets yield empty items instead of panicking — because under
/// mapped loads the big pools are covered by structural validation
/// only (their checksums are what owned loads and `thor inspect` pay
/// for); garbage in is garbage out, but never a panic and never UB.
#[derive(Clone, Debug, Default)]
pub struct FrozenPool {
    offsets: FrozenSlice<u64>,
    bytes: FrozenSlice<u8>,
}

impl FrozenPool {
    /// Assemble a pool from its two sections (or owned vectors).
    pub fn new(offsets: FrozenSlice<u64>, bytes: FrozenSlice<u8>) -> Self {
        Self { offsets, bytes }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.offsets.as_slice().len().saturating_sub(1)
    }

    /// Whether the pool has no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Item `i`'s bytes (empty if `i` is out of range or the offsets
    /// are corrupt).
    pub fn get(&self, i: usize) -> &[u8] {
        let offsets = self.offsets.as_slice();
        let (Some(&lo), Some(&hi)) = (offsets.get(i), offsets.get(i + 1)) else {
            return &[];
        };
        let (lo, hi) = (lo as usize, hi as usize);
        if lo > hi {
            return &[];
        }
        self.bytes.as_slice().get(lo..hi).unwrap_or(&[])
    }

    /// Item `i` as UTF-8, if valid.
    pub fn get_str(&self, i: usize) -> Option<&str> {
        std::str::from_utf8(self.get(i)).ok()
    }

    /// The underlying offsets.
    pub fn offsets(&self) -> &FrozenSlice<u64> {
        &self.offsets
    }

    /// The underlying byte pool.
    pub fn bytes(&self) -> &FrozenSlice<u8> {
        &self.bytes
    }

    /// Binary search for `needle` among the items, which must be
    /// sorted ascending by byte order (the writer guarantees this for
    /// vocabulary pools). Corrupt offsets degrade to a wrong lookup,
    /// never a panic.
    pub fn binary_search_bytes(&self, needle: &[u8]) -> Result<usize, usize> {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).cmp(needle) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Build an owned pool from items (in the given order).
    pub fn from_items<I, B>(items: I) -> Self
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let mut offsets: Vec<u64> = vec![0];
        let mut bytes: Vec<u8> = Vec::new();
        for item in items {
            bytes.extend_from_slice(item.as_ref());
            offsets.push(bytes.len() as u64);
        }
        Self {
            offsets: offsets.into(),
            bytes: bytes.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_slice_derefs() {
        let s: FrozenSlice<f32> = vec![1.0, 2.5].into();
        assert_eq!(&*s, &[1.0, 2.5]);
        assert!(!s.is_view());
    }

    #[test]
    fn pool_round_trip_and_search() {
        let pool = FrozenPool::from_items(["alpha", "beta", "gamma"]);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.get_str(1), Some("beta"));
        assert_eq!(pool.get(3), b"");
        // Sorted order: alpha < beta < gamma.
        assert_eq!(pool.binary_search_bytes(b"beta"), Ok(1));
        assert_eq!(pool.binary_search_bytes(b"delta"), Err(2));
    }

    #[test]
    fn corrupt_offsets_degrade_without_panicking() {
        let pool = FrozenPool::new(vec![5, 2, 999].into(), vec![0u8; 4].into());
        assert_eq!(pool.get(0), b"", "non-monotone");
        assert_eq!(pool.get(1), b"", "out of bounds");
        let _ = pool.binary_search_bytes(b"x");
    }
}
