//! A fixed-size LRU cache with hit/miss accounting.
//!
//! Willump "allocates a fixed-size LRU cache for each IFV whose keys
//! are sources of the IFV's feature generator and whose values are the
//! features in the IFV" (paper §4.5). This is that cache; the same
//! type also backs the Clipper-style end-to-end prediction cache the
//! paper compares against.

use std::collections::HashMap;
use std::hash::Hash;

/// Intrusive doubly-linked list entry stored in a slab slot.
#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// An LRU cache with optional capacity bound and hit/miss counters.
///
/// `capacity = None` means unbounded, matching the paper's Table 2/3
/// evaluation ("we evaluate feature-level caching with an unlimited
/// cache size").
///
/// ```
/// use willump_store::LruCache;
///
/// let mut cache = LruCache::with_capacity(2);
/// cache.put("a", 1);
/// cache.put("b", 2);
/// assert_eq!(cache.get(&"a"), Some(&1)); // "a" is now most recent
/// cache.put("c", 3);                     // evicts "b"
/// assert_eq!(cache.get(&"b"), None);
/// assert_eq!(cache.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An unbounded cache.
    pub fn unbounded() -> LruCache<K, V> {
        LruCache::new(None)
    }

    /// A cache evicting beyond `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> LruCache<K, V> {
        assert!(capacity > 0, "capacity must be positive");
        LruCache::new(Some(capacity))
    }

    fn new(capacity: Option<usize>) -> LruCache<K, V> {
        LruCache {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of `get` calls that found their key.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of `get` calls that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all `get` calls so far (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Look up `key`, marking it most-recently used on hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                self.slab[idx].as_ref().map(|e| &e.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up without updating recency or counters (for inspection).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&idx| self.slab[idx].as_ref())
            .map(|e| &e.value)
    }

    /// Insert or update `key`, marking it most-recently used; returns
    /// the evicted `(key, value)` if the capacity bound was exceeded.
    pub fn put(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].as_mut().expect("mapped slot occupied").value = value;
            self.detach(idx);
            self.push_front(idx);
            return None;
        }
        let entry = Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(entry);
                i
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        if let Some(cap) = self.capacity {
            if self.map.len() > cap {
                return Some(self.evict_lru());
            }
        }
        None
    }

    /// Drop all entries and reset counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.hits = 0;
        self.misses = 0;
    }

    /// Evict the tail (least-recently used) entry; only called on a
    /// non-empty cache.
    fn evict_lru(&mut self) -> (K, V) {
        let idx = self.tail;
        self.detach(idx);
        let entry = self.slab[idx].take().expect("evicted slot occupied");
        self.map.remove(&entry.key);
        self.free.push(idx);
        (entry.key, entry.value)
    }

    fn links(&self, idx: usize) -> (usize, usize) {
        let e = self.slab[idx].as_ref().expect("linked slot occupied");
        (e.prev, e.next)
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = self.links(idx);
        if prev != NIL {
            self.slab[prev].as_mut().expect("prev occupied").next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].as_mut().expect("next occupied").prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let e = self.slab[idx].as_mut().expect("slot occupied");
        e.prev = NIL;
        e.next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let e = self.slab[idx].as_mut().expect("slot occupied");
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head].as_mut().expect("head occupied").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss() {
        let mut c: LruCache<i32, i32> = LruCache::unbounded();
        assert_eq!(c.get(&1), None);
        c.put(1, 10);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut c = LruCache::with_capacity(2);
        c.put(1, "a");
        c.put(2, "b");
        assert_eq!(c.get(&1), Some(&"a"));
        let evicted = c.put(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), Some(&"c"));
    }

    #[test]
    fn update_refreshes_recency_without_eviction() {
        let mut c = LruCache::with_capacity(2);
        c.put(1, 1);
        c.put(2, 2);
        assert!(c.put(1, 11).is_none());
        assert_eq!(c.len(), 2);
        c.put(3, 3); // evicts 2, since 1 was refreshed
        assert_eq!(c.peek(&2), None);
        assert_eq!(c.peek(&1), Some(&11));
    }

    #[test]
    fn peek_does_not_touch_counters_or_order() {
        let mut c = LruCache::with_capacity(2);
        c.put(1, 1);
        c.put(2, 2);
        assert_eq!(c.peek(&1), Some(&1));
        assert_eq!(c.hits(), 0);
        c.put(3, 3); // 1 is still LRU because peek didn't refresh
        assert_eq!(c.peek(&1), None);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = LruCache::with_capacity(8);
        for i in 0..1000 {
            c.put(i, i);
            assert!(c.len() <= 8);
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = LruCache::with_capacity(2);
        c.put(1, 1);
        c.get(&1);
        c.get(&9);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        c.put(1, 5);
        assert_eq!(c.get(&1), Some(&5));
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut c = LruCache::unbounded();
        for i in 0..10_000 {
            assert!(c.put(i, i).is_none());
        }
        assert_eq!(c.len(), 10_000);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::<i32, i32>::with_capacity(0);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut c = LruCache::with_capacity(2);
        for i in 0..100 {
            c.put(i, i);
        }
        // Evicted slots are recycled through the free list, so the slab
        // stays near the capacity bound instead of growing per insert.
        assert!(c.slab.len() <= 3, "slab len {}", c.slab.len());
    }

    #[test]
    fn heap_values_drop_cleanly() {
        let mut c = LruCache::with_capacity(2);
        for i in 0..50 {
            c.put(i, format!("value-{i}"));
        }
        assert_eq!(c.get(&49), Some(&"value-49".to_string()));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn single_entry_cache_cycles() {
        let mut c = LruCache::with_capacity(1);
        assert_eq!(c.put(1, 1), None);
        assert_eq!(c.put(2, 2), Some((1, 1)));
        assert_eq!(c.put(3, 3), Some((2, 2)));
        assert_eq!(c.get(&3), Some(&3));
    }
}
