//! `SharedCache`: an N-way sharded, capacity-bounded concurrent map.
//!
//! The engine's caches started life as global `Mutex<HashMap>`s —
//! correct, but with two scaling problems once the
//! solver became a long-running query service (`fpsping-serve`):
//!
//! 1. **One lock per cache.** Every cell evaluated by every worker
//!    serialized on the same mutex. Sharding by key hash (power-of-two
//!    shard count, shard picked from the hash's high bits) keeps the
//!    per-lookup cost identical while letting concurrent workers touch
//!    disjoint shards without contention.
//! 2. **Unbounded memory.** A grid sweep visits a bounded key set, but a
//!    network-facing query stream does not — an adversarial client
//!    cycling through fresh `(K, ρ)` cells would grow the maps without
//!    limit. Each shard therefore holds at most `capacity / shards`
//!    entries and evicts with CLOCK (second chance): a circular hand
//!    sweeps the shard's slots, clearing reference bits until it finds an
//!    unreferenced victim. Hits set the reference bit, so repeatedly-used
//!    entries survive scans of one-shot keys — the behavior that matters
//!    under a hot-spot-plus-scan mix, at a fraction of LRU's bookkeeping.
//!
//! Eviction is **transparent to correctness**: these caches memoize pure
//! functions of their keys, so an evicted entry that gets re-solved
//! reproduces the identical bits (asserted by `tests/cache_eviction.rs`
//! across random interleavings and by `tests/engine_parity.rs` end to
//! end). Bounding the cache trades only *time* (re-solves) for *memory*.
//!
//! Accounting invariant, asserted by the multi-thread hammer test: every
//! insert either lands in a free slot, replaces an existing key in
//! place, or evicts exactly one victim — so at all times
//! `first_inserts − evictions == occupancy ≤ capacity` (no lost
//! updates, bounded memory).
//!
//! ## The probe is the product
//!
//! A served memo hit is answered by this map alone, so its probe is kept
//! to the minimum a sharded map needs:
//!
//! * **One hash per key.** The key is hashed once with `MixHasher`;
//!   that word both picks the shard (its high half) and is stored beside
//!   the key, and the shard maps hash the stored word through unchanged
//!   (`PassThrough`), so no probe, insert or eviction re-hashes a key.
//! * **One guard per shard per batch.** [`SharedCache::get_many`]
//!   counting-sorts a batch of keys by shard and probes each touched
//!   shard's keys under a single acquisition — at most one lock and
//!   unlock per shard instead of one per key. It holds one guard at a
//!   time, like every other path here.

use fpsping_obs::lock;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Deterministic multiply–mix hasher for the cache's bit-pattern keys.
///
/// Two reasons not to use `std`'s `DefaultHasher` (SipHash) here:
///
/// * **Speed.** The engine's memo keys are four words; this mixer costs
///   a few cycles per word plus a SplitMix64-style finalizer for full
///   avalanche (the high bits select the shard and the low bits the
///   bucket, so both must be good), where SipHash costs tens of cycles
///   per call.
/// * **Determinism is a feature.** Keys are bit patterns of numeric
///   inputs, and a fixed initial state makes cache layout, and
///   therefore eviction order, reproducible run to run.
///
/// The price is that the hash is predictable: served keys come off the
/// wire, so a client who knows this mixer can aim many keys at one
/// shard and one hash. A bounded cache's per-shard entry budget bounds
/// how long such a collision run can grow.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.write_u64(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(w) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(23);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn finish(&self) -> u64 {
        // SplitMix64 finalizer: avalanche the accumulated state so both
        // the high (shard) and low (bucket) bits are well distributed.
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The build-hasher that hashes each key once, on entry.
type FixedState = BuildHasherDefault<MixHasher>;

/// Hasher of the shard maps: the one word it is fed *is* the hash.
///
/// The only thing the shard maps hash is a [`Hashed`] key, which writes
/// its stored [`MixHasher`] word with `write_u64`; `write` is a fallback
/// that keeps the type a lawful `Hasher`.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A key together with its [`MixHasher`] hash, computed once.
#[derive(Debug, Clone)]
struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K: Eq> PartialEq for Hashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Hashed<K> {}

impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One cache slot: a key/value pair plus its CLOCK reference bit.
#[derive(Debug)]
struct Slot<K, V> {
    key: Hashed<K>,
    value: V,
    referenced: bool,
}

/// One shard: a key → slot-index map over a circular slot arena.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<Hashed<K>, usize, BuildHasherDefault<PassThrough>>,
    slots: Vec<Slot<K, V>>,
    /// CLOCK hand: index of the next eviction candidate.
    hand: usize,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Self {
            map: HashMap::default(),
            slots: Vec::new(),
            hand: 0,
        }
    }
}

impl<K: Eq, V: Clone> Shard<K, V> {
    /// Looks up a hashed key, marking the entry recently-used on a hit.
    fn probe(&mut self, key: &Hashed<K>) -> Option<V> {
        let &i = self.map.get(key)?;
        let slot = &mut self.slots[i];
        slot.referenced = true;
        Some(slot.value.clone())
    }
}

/// A sharded, optionally capacity-bounded concurrent memo map.
///
/// `get` clones the stored value (the engine stores `f64`s and
/// `Arc`s, so clones are trivially cheap). See the module docs for the
/// sharding and eviction design.
#[derive(Debug)]
pub struct SharedCache<K, V> {
    /// Leaf locks: each is held only around map surgery, never while
    /// another guard is taken.
    shards: Box<[Mutex<Shard<K, V>>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
    /// Max entries per shard; `usize::MAX` when unbounded.
    per_shard_cap: usize,
    hasher: FixedState,
    first_inserts: AtomicU64,
    evictions: AtomicU64,
}

/// Default shard count: enough that a handful of worker threads rarely
/// collide, small enough that an empty cache is a few hundred bytes.
pub const DEFAULT_SHARDS: usize = 16;

impl<K: Eq + Hash + Clone, V: Clone> SharedCache<K, V> {
    /// A cache with `shards` shards (rounded up to a power of two) and a
    /// total entry budget of `capacity` (`0` = unbounded). The budget is
    /// split evenly across shards (rounding up), so worst-case occupancy
    /// is `capacity + shards - 1` entries.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard_cap = if capacity == 0 {
            usize::MAX
        } else {
            capacity.div_ceil(shards)
        };
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            mask: (shards - 1) as u64,
            per_shard_cap,
            hasher: FixedState::default(),
            first_inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// An unbounded cache with [`DEFAULT_SHARDS`] shards — the drop-in
    /// replacement for the old global `Mutex<HashMap>`.
    pub fn unbounded() -> Self {
        Self::new(DEFAULT_SHARDS, 0)
    }

    /// `key` with its hash — the only time the key is hashed.
    fn hashed(&self, key: &K) -> Hashed<K> {
        Hashed {
            hash: self.hasher.hash_one(key),
            key: key.clone(),
        }
    }

    /// The shard index of a hash: its *high* half, so the shard and the
    /// shard map's bucket choice (low bits) stay decorrelated.
    fn shard_index(&self, hash: u64) -> usize {
        ((hash >> 32) & self.mask) as usize
    }

    /// Looks up `key`, marking the entry recently-used on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let key = self.hashed(key);
        lock(&self.shards[self.shard_index(key.hash)]).probe(&key)
    }

    /// Looks up every key of `keys`, writing the result for `keys[i]` to
    /// `out[i]` (`None` on a miss), and returns the number of hits.
    ///
    /// Equivalent to calling [`SharedCache::get`] on each key in turn —
    /// the same values, misses and reference bits — but the keys are
    /// counting-sorted by shard first, so each touched shard is locked
    /// once per call rather than once per key. One guard is held at a
    /// time.
    ///
    /// # Panics
    ///
    /// If `keys` and `out` differ in length.
    pub fn get_many(&self, keys: &[K], out: &mut [Option<V>]) -> usize {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        let hashes: Vec<u64> = keys.iter().map(|k| self.hasher.hash_one(k)).collect();
        // start[s]..start[s + 1] is shard s's run of `order`.
        let mut start = vec![0usize; self.shards.len() + 1];
        for &h in &hashes {
            start[self.shard_index(h) + 1] += 1;
        }
        for s in 1..start.len() {
            start[s] += start[s - 1];
        }
        let mut fill = start.clone();
        let mut order = vec![0usize; keys.len()];
        for (i, &h) in hashes.iter().enumerate() {
            let s = self.shard_index(h);
            order[fill[s]] = i;
            fill[s] += 1;
        }
        let mut hits = 0;
        for (s, shard) in self.shards.iter().enumerate() {
            let run = &order[start[s]..start[s + 1]];
            if run.is_empty() {
                continue;
            }
            let mut shard = lock(shard);
            for &i in run {
                out[i] = shard.probe(&Hashed {
                    hash: hashes[i],
                    key: keys[i].clone(),
                });
                hits += usize::from(out[i].is_some());
            }
        }
        hits
    }

    /// Inserts `value` for `key` unless the key is already present, and
    /// returns the winning value — callers racing to memoize the same
    /// solve all observe the first inserter's result, exactly like the
    /// old `entry().or_insert_with()` idiom. May evict one victim (CLOCK
    /// second chance) when the shard is at capacity.
    pub fn get_or_insert(&self, key: K, value: V) -> V {
        let key = self.hashed(&key);
        let mut shard = lock(&self.shards[self.shard_index(key.hash)]);
        if let Some(v) = shard.probe(&key) {
            return v;
        }
        self.first_inserts.fetch_add(1, Ordering::Relaxed);
        if shard.slots.len() < self.per_shard_cap {
            let i = shard.slots.len();
            shard.slots.push(Slot {
                key: key.clone(),
                value: value.clone(),
                referenced: false,
            });
            shard.map.insert(key, i);
            return value;
        }
        // At capacity: sweep the CLOCK hand. Terminates within two laps —
        // the first lap clears every reference bit it passes.
        let len = shard.slots.len();
        let mut hand = shard.hand;
        loop {
            if shard.slots[hand].referenced {
                shard.slots[hand].referenced = false;
                hand = (hand + 1) % len;
                continue;
            }
            break;
        }
        self.evictions.fetch_add(1, Ordering::Relaxed);
        let victim = std::mem::replace(
            &mut shard.slots[hand],
            Slot {
                key: key.clone(),
                value: value.clone(),
                referenced: false,
            },
        );
        shard.map.remove(&victim.key);
        shard.map.insert(key, hand);
        shard.hand = (hand + 1) % len;
        value
    }

    /// Current total occupancy across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry budget (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        if self.per_shard_cap == usize::MAX {
            usize::MAX
        } else {
            self.per_shard_cap * self.shards.len()
        }
    }

    /// Entries evicted since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Inserts of previously-absent keys since construction. At all
    /// times `first_inserts() - evictions() == len()`.
    pub fn first_inserts(&self) -> u64 {
        self.first_inserts.load(Ordering::Relaxed)
    }

    /// Current total occupancy from the accounting invariant,
    /// `first_inserts − evictions`, without taking a shard lock. Equal to
    /// [`SharedCache::len`] whenever no insert is in flight. Evictions
    /// are read first: every eviction is preceded by its insert's count,
    /// so a racing insert can only make the figure run ahead, never
    /// underflow.
    pub(crate) fn occupancy(&self) -> u64 {
        let evicted = self.evictions();
        self.first_inserts().saturating_sub(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_insert_first_writer_wins() {
        let c: SharedCache<u32, u64> = SharedCache::unbounded();
        assert_eq!(c.get(&7), None);
        assert_eq!(c.get_or_insert(7, 70), 70);
        assert_eq!(c.get_or_insert(7, 71), 70, "existing entry must win");
        assert_eq!(c.get(&7), Some(70));
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.first_inserts(), 1);
    }

    #[test]
    fn capacity_bounds_occupancy_and_counts_evictions() {
        // 1 shard so the bound is exact.
        let c: SharedCache<u64, u64> = SharedCache::new(1, 8);
        for k in 0..100u64 {
            c.get_or_insert(k, k * 3);
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.evictions(), 92);
        assert_eq!(c.first_inserts(), 100);
        // Whatever survived is bit-correct.
        for k in 0..100u64 {
            if let Some(v) = c.get(&k) {
                assert_eq!(v, k * 3, "key {k}");
            }
        }
    }

    #[test]
    fn clock_second_chance_protects_hot_entries() {
        let c: SharedCache<u64, u64> = SharedCache::new(1, 4);
        for k in 0..4u64 {
            c.get_or_insert(k, k);
        }
        // Make key 0 hot, then scan 64 one-shot keys through the shard.
        for scan in 100..164u64 {
            assert_eq!(c.get(&0), Some(0), "hot key evicted during scan {scan}");
            c.get_or_insert(scan, scan);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        for (req, got) in [(1usize, 1usize), (2, 2), (3, 4), (5, 8), (16, 16)] {
            let c: SharedCache<u64, u64> = SharedCache::new(req, 0);
            assert_eq!(c.shards.len(), got, "requested {req}");
        }
    }

    #[test]
    fn unbounded_never_evicts() {
        let c: SharedCache<u64, u64> = SharedCache::unbounded();
        for k in 0..10_000u64 {
            c.get_or_insert(k, !k);
        }
        assert_eq!(c.len(), 10_000);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.capacity(), usize::MAX);
        assert_eq!(c.get(&9_999), Some(!9_999u64));
    }

    #[test]
    fn bounded_capacity_reports_shard_rounding() {
        let c: SharedCache<u64, u64> = SharedCache::new(4, 10);
        // 10 over 4 shards → 3 per shard → 12 total worst case.
        assert_eq!(c.capacity(), 12);
        for k in 0..1000u64 {
            c.get_or_insert(k, k);
        }
        assert!(c.len() <= 12, "occupancy {} over bound", c.len());
        assert_eq!(c.first_inserts() - c.evictions(), c.len() as u64);
    }

    #[test]
    fn lock_free_occupancy_tracks_len_under_churn() {
        let c: SharedCache<u64, u64> = SharedCache::new(4, 32);
        assert_eq!(c.occupancy(), 0);
        for round in 0..5u64 {
            // Overlapping key ranges: some repeats still hit, the rest
            // re-insert and evict.
            for k in 0..200u64 {
                c.get_or_insert(round * 100 + k, k);
            }
            assert!(c.evictions() > 0);
            assert_eq!(c.occupancy(), c.len() as u64, "round {round}");
        }
        assert!(c.occupancy() <= c.capacity() as u64);
    }
}
