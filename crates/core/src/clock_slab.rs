//! The session's one cache primitive: a fingerprint-indexed slab with
//! second-chance (clock) eviction.
//!
//! Every per-session cache of [`crate::estimator::BoundSession`] is a
//! [`ClockSlab`] with its own key and entry types — the equality, range
//! and LIKE resolve memos, the literal cache ([`crate::litcache`]), and
//! the compiled-query cache of `bound_subsets`. Keys are fingerprints
//! (hashes of a literal, a literal vector, or a query shape), so a key
//! match is only a candidate: every hit is verified against the stored
//! entry by the caller's `matches`, and a collision costs a miss, never a
//! wrong answer.
//!
//! At capacity the clock sweeps the slab in index order and evicts the
//! first entry that went a full pass without a hit. Fresh entries start
//! unreferenced — an entry earns its second chance with a repeat hit — so
//! one-shot churn evicts other churn, not the established hot set, and
//! late-arriving hot keys still enter. The victim is handed back to the
//! caller to be overwritten in place, so entries that own buffers (byte
//! vectors, pooled [`crate::conditioning::CdsSet`]s) keep their capacity
//! and a warm cache churns without allocating.

use crate::simd::hash::FastMap;
use std::hash::Hash;

/// A clock-evicted, fingerprint-indexed cache of `E` entries keyed by `K`
/// (see the module docs). Capacity 0 disables it: every lookup misses and
/// nothing is stored.
#[derive(Debug)]
pub(crate) struct ClockSlab<K, E> {
    /// Key → slab index. A key re-bound by a fingerprint collision points
    /// at the newer slot; the older slot keeps its stale key.
    map: FastMap<K, usize>,
    /// Entry slab; the clock hand sweeps it in index order.
    slots: Vec<Slot<K, E>>,
    /// Max entries before the clock evicts.
    capacity: usize,
    /// Next slab index the eviction sweep examines.
    hand: usize,
    /// Verified lookups.
    pub(crate) hits: u64,
    /// Lookups that found no verified entry.
    pub(crate) misses: u64,
    /// Entries recycled by the clock.
    pub(crate) evictions: u64,
}

/// One slab entry with the key it was claimed under and its
/// second-chance bit (set on every hit, cleared as the hand passes).
#[derive(Debug)]
struct Slot<K, E> {
    key: K,
    referenced: bool,
    entry: E,
}

impl<K: Copy + Eq + Hash, E: Default> ClockSlab<K, E> {
    /// An empty slab holding at most `capacity` entries (0 disables it).
    /// Nothing is preallocated: a throwaway session must not pay for
    /// tables it never fills, and a warm one stops growing once the map
    /// and slab hold `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ClockSlab {
            map: FastMap::default(),
            slots: Vec::new(),
            capacity,
            hand: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Whether the slab stores anything at all.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of live entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The entry stored under `key` if `matches` verifies it (a
    /// fingerprint collision is a miss). A hit marks the entry referenced.
    pub(crate) fn lookup(&mut self, key: &K, matches: impl FnOnce(&E) -> bool) -> Option<&E> {
        match self.map.get(key) {
            Some(&i) if matches(&self.slots[i].entry) => {
                self.hits += 1;
                let slot = &mut self.slots[i];
                slot.referenced = true;
                Some(&slot.entry)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// A slot indexed under `key` for the caller to fill (`None` when the
    /// slab is disabled). Below capacity the slab grows; at capacity the
    /// clock evicts a victim and hands it back with its old contents, to
    /// be overwritten in place.
    pub(crate) fn claim(&mut self, key: K) -> Option<&mut E> {
        if self.capacity == 0 {
            return None;
        }
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key,
                referenced: false,
                entry: E::default(),
            });
            self.slots.len() - 1
        } else {
            // Second-chance sweep: terminates within two passes because
            // the first pass clears every referenced bit it crosses.
            let victim = loop {
                let idx = self.hand;
                self.hand = (self.hand + 1) % self.slots.len();
                let slot = &mut self.slots[idx];
                if slot.referenced {
                    slot.referenced = false;
                } else {
                    break idx;
                }
            };
            // Unindex the victim — but only if the map still points at
            // it. A collision re-binds a key to a newer slot; removing
            // unconditionally would orphan the live entry.
            let slot = &mut self.slots[victim];
            if self.map.get(&slot.key) == Some(&victim) {
                self.map.remove(&slot.key);
            }
            slot.key = key;
            slot.referenced = false;
            self.evictions += 1;
            victim
        };
        self.map.insert(key, i);
        Some(&mut self.slots[i].entry)
    }

    /// Drop every entry (the statistics build changed, so nothing cached
    /// is valid). Counters keep accumulating.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test slab of `(fingerprint → verified value)` entries.
    type Slab = ClockSlab<u64, u32>;

    /// Look up `value` under fingerprint `fp`.
    fn get(s: &mut Slab, fp: u64, value: u32) -> Option<u32> {
        s.lookup(&fp, |&v| v == value).copied()
    }

    /// The miss path: look up, then claim and fill.
    fn put(s: &mut Slab, fp: u64, value: u32) {
        assert_eq!(get(s, fp, value), None, "put is only called on a miss");
        if let Some(e) = s.claim(fp) {
            *e = value;
        }
    }

    #[test]
    fn clock_evicts_cold_entries_and_keeps_hot_ones() {
        // At capacity the slab keeps admitting keys: the clock evicts a
        // cold entry, an entry with a repeat hit survives, and the
        // hit/miss counters stay accurate throughout.
        let mut s = Slab::with_capacity(2);
        put(&mut s, 1, 1);
        put(&mut s, 2, 2);
        // 1 turns hot (earns its second chance); 2 stays cold.
        assert_eq!(get(&mut s, 1, 1), Some(1));
        // A third key arrives at capacity: the clock evicts cold 2.
        put(&mut s, 3, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(get(&mut s, 1, 1), Some(1), "hot entry survives");
        assert_eq!(get(&mut s, 3, 3), Some(3), "late entry entered");
        assert_eq!(get(&mut s, 2, 2), None, "cold entry evicted");
        assert_eq!((s.hits, s.misses), (3, 4));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn collisions_are_verified_misses() {
        let mut s = Slab::with_capacity(4);
        put(&mut s, 7, 1);
        assert_eq!(get(&mut s, 7, 1), Some(1));
        // Same fingerprint, different value: a collision must miss.
        assert_eq!(get(&mut s, 7, 2), None);
        // Different fingerprint: an independent key.
        assert_eq!(get(&mut s, 8, 1), None);
        assert_eq!((s.hits, s.misses), (1, 3));
    }

    #[test]
    fn evicting_a_collision_stale_slot_keeps_the_live_rebind() {
        // Two values colliding on one fingerprint: the second claim
        // re-binds the key to a fresh slot, leaving the first slot stale.
        // Evicting the stale slot must NOT unindex the live entry.
        let mut s = Slab::with_capacity(2);
        put(&mut s, 1, 10); // slot 0
        put(&mut s, 1, 20); // slot 1, re-binds key 1
                            // At capacity: the next claim's clock picks stale slot 0.
        put(&mut s, 9, 90);
        assert_eq!(s.evictions, 1);
        assert_eq!(
            get(&mut s, 1, 20),
            Some(20),
            "live rebound entry must survive the stale slot's eviction"
        );
        assert_eq!(get(&mut s, 9, 90), Some(90));
    }

    #[test]
    fn evicted_keys_are_unindexed() {
        // An evicted key must leave the index: the slot now holds another
        // key's entry, which a verifier that cannot tell them apart would
        // otherwise serve for the old key.
        let mut s = Slab::with_capacity(1);
        put(&mut s, 1, 5);
        put(&mut s, 2, 5);
        assert_eq!(s.evictions, 1);
        assert_eq!(get(&mut s, 1, 5), None, "evicted key must miss");
        assert_eq!(get(&mut s, 2, 5), Some(5));
    }

    #[test]
    fn disabled_and_cleared_slabs_store_nothing() {
        let mut off = Slab::with_capacity(0);
        assert!(!off.enabled());
        assert!(off.claim(1).is_none());
        assert_eq!(get(&mut off, 1, 0), None);
        assert_eq!((off.len(), off.misses), (0, 1));

        let mut s = Slab::with_capacity(2);
        put(&mut s, 1, 1);
        s.clear();
        assert_eq!(s.len(), 0);
        assert_eq!(get(&mut s, 1, 1), None);
        put(&mut s, 1, 1);
        assert_eq!(get(&mut s, 1, 1), Some(1));
    }
}
