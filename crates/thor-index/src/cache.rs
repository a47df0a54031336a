//! Interning bounded-LRU cache keyed by normalized subphrase.
//!
//! Candidate generation is a pure function of the subphrase once a
//! matcher is fine-tuned, so repeated phrases across a document stream
//! can reuse the first scan's result. The cache is shared (`Arc`) by
//! every clone of its owner — one cache per fine-tune, which also makes
//! invalidation automatic: re-fine-tuning builds a fresh matcher and
//! with it a fresh, empty cache.
//!
//! Keys are interned as `Arc<str>` (one allocation per distinct
//! subphrase, shared between the hash map and the LRU slot). Entries
//! are evicted least-recently-used once `capacity` is reached; a
//! capacity of 0 disables the cache entirely (every lookup misses
//! without recording statistics), which the equivalence tests use to
//! compare cached and uncached runs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel for "no slot" in the intrusive LRU list.
const NONE: usize = usize::MAX;

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries (0 = disabled).
    pub capacity: usize,
}

/// A thread-safe, bounded, interning LRU cache from normalized phrase
/// to an arbitrary cloneable value. Clones share the same underlying
/// storage and statistics.
#[derive(Debug)]
pub struct PhraseCache<V> {
    shared: Arc<Shared<V>>,
}

#[derive(Debug)]
struct Shared<V> {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    lru: Mutex<Lru<V>>,
}

impl<V> Clone for PhraseCache<V> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<V: Clone> PhraseCache<V> {
    /// A cache holding at most `capacity` entries; 0 disables caching.
    pub fn new(capacity: usize) -> Self {
        Self {
            shared: Arc::new(Shared {
                capacity,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                lru: Mutex::new(Lru::new(capacity)),
            }),
        }
    }

    /// Whether lookups can ever hit (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.shared.capacity > 0
    }

    /// Look up `key`, refreshing its recency on a hit. Records a hit or
    /// miss in the statistics; a disabled cache returns `None` without
    /// recording anything.
    pub fn get(&self, key: &str) -> Option<V> {
        if !self.is_enabled() {
            return None;
        }
        let mut lru = self.shared.lru.lock().unwrap();
        match lru.get(key) {
            Some(value) => {
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key → value`, evicting the least recently
    /// used entry when full. No-op on a disabled cache.
    pub fn put(&self, key: &str, value: V) {
        if !self.is_enabled() {
            return;
        }
        self.shared.lru.lock().unwrap().insert(key, value);
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let len = self.shared.lru.lock().unwrap().map.len();
        CacheStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            len,
            capacity: self.shared.capacity,
        }
    }

    /// Drop every entry (statistics are kept).
    pub fn clear(&self) {
        let mut lru = self.shared.lru.lock().unwrap();
        let capacity = lru.capacity;
        *lru = Lru::new(capacity);
    }
}

/// Arena-backed LRU list: slots hold the entries, `prev`/`next` indices
/// form the recency list (head = most recent), and the map points keys
/// at slots. The `Arc<str>` key is shared between map and slot.
#[derive(Debug)]
struct Lru<V> {
    capacity: usize,
    map: HashMap<Arc<str>, usize>,
    slots: Vec<Slot<V>>,
    head: usize,
    tail: usize,
}

#[derive(Debug)]
struct Slot<V> {
    key: Arc<str>,
    value: V,
    prev: usize,
    next: usize,
}

impl<V: Clone> Lru<V> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::with_capacity(capacity.min(1024)),
            head: NONE,
            tail: NONE,
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NONE {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, i: usize) {
        self.slots[i].prev = NONE;
        self.slots[i].next = self.head;
        if self.head != NONE {
            self.slots[self.head].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    fn get(&mut self, key: &str) -> Option<V> {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.detach(i);
            self.attach_front(i);
        }
        Some(self.slots[i].value.clone())
    }

    fn insert(&mut self, key: &str, value: V) {
        if let Some(&i) = self.map.get(key) {
            self.slots[i].value = value;
            if self.head != i {
                self.detach(i);
                self.attach_front(i);
            }
            return;
        }
        if self.map.len() == self.capacity {
            // Evict the least recently used entry, reusing its slot.
            let i = self.tail;
            self.detach(i);
            self.map.remove(&self.slots[i].key);
            let key: Arc<str> = Arc::from(key);
            self.slots[i].key = Arc::clone(&key);
            self.slots[i].value = value;
            self.map.insert(key, i);
            self.attach_front(i);
            return;
        }
        let key: Arc<str> = Arc::from(key);
        let i = self.slots.len();
        self.slots.push(Slot {
            key: Arc::clone(&key),
            value,
            prev: NONE,
            next: NONE,
        });
        self.map.insert(key, i);
        self.attach_front(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let cache: PhraseCache<u32> = PhraseCache::new(8);
        assert_eq!(cache.get("brain"), None);
        cache.put("brain", 7);
        assert_eq!(cache.get("brain"), Some(7));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache: PhraseCache<u32> = PhraseCache::new(2);
        cache.put("a", 1);
        cache.put("b", 2);
        assert_eq!(cache.get("a"), Some(1)); // refresh "a"
        cache.put("c", 3); // evicts "b"
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(cache.get("c"), Some(3));
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn refresh_existing_key_updates_value() {
        let cache: PhraseCache<u32> = PhraseCache::new(2);
        cache.put("a", 1);
        cache.put("b", 2);
        cache.put("a", 10); // refresh, not insert
        cache.put("c", 3); // evicts "b" (LRU), not "a"
        assert_eq!(cache.get("a"), Some(10));
        assert_eq!(cache.get("b"), None);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache: PhraseCache<u32> = PhraseCache::new(0);
        assert!(!cache.is_enabled());
        cache.put("a", 1);
        assert_eq!(cache.get("a"), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));
    }

    #[test]
    fn clones_share_storage() {
        let cache: PhraseCache<u32> = PhraseCache::new(4);
        let clone = cache.clone();
        cache.put("a", 1);
        assert_eq!(clone.get("a"), Some(1));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache: PhraseCache<usize> = PhraseCache::new(64);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let c = cache.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        let key = format!("k{}", (t * 31 + i) % 80);
                        match c.get(&key) {
                            Some(_) => {}
                            None => c.put(&key, i),
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 800);
        assert!(stats.len <= 64);
    }

    #[test]
    fn clear_drops_entries_but_keeps_stats() {
        let cache: PhraseCache<u32> = PhraseCache::new(4);
        cache.put("a", 1);
        assert_eq!(cache.get("a"), Some(1));
        cache.clear();
        assert_eq!(cache.get("a"), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 0));
    }
}
