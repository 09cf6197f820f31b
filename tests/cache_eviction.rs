//! Eviction correctness for [`fpsping::SharedCache`].
//!
//! The engine's memoization is only allowed to *save work*, never to
//! change answers: every cached value is a pure function of its key, so
//! evicting an entry and re-solving it must reproduce the same bits.
//! These tests attack that claim three ways:
//!
//! * a proptest reference model: arbitrary interleavings of
//!   `get`/`get_or_insert` on a capacity-bounded cache agree value-for-
//!   value with an unbounded [`std::collections::HashMap`] whenever the
//!   bounded cache answers at all, and the accounting invariant
//!   `first_inserts - evictions == len <= capacity` holds after every op;
//! * an engine-level proptest: a bounded bit-exact engine reproduces the
//!   unbounded surface bit-for-bit across randomized grids and budgets,
//!   plus a fixed 180-cell grid through 64 entries;
//! * a multi-thread hammer: racing writers over overlapping key ranges
//!   never publish a wrong value (no lost updates) and never exceed the
//!   occupancy bound;
//! * a proptest of the batched probe: `get_many` is per-key `get` —
//!   the same values, misses and CLOCK reference bits.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use fpsping::cache::DEFAULT_SHARDS;
use fpsping::engine::{Engine, EngineConfig};
use fpsping::{Scenario, SharedCache};
use proptest::prelude::*;

/// The pure function the cache memoizes in these tests. Any injective
/// mixing works; SplitMix64's finalizer makes collisions implausible so
/// a wrong value can only come from the cache itself.
fn value_of(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn check_accounting(cache: &SharedCache<u64, u64>) {
    assert!(
        cache.len() <= cache.capacity(),
        "occupancy {} exceeds capacity {}",
        cache.len(),
        cache.capacity()
    );
    assert_eq!(
        cache.first_inserts() - cache.evictions(),
        cache.len() as u64,
        "accounting drift: first_inserts={} evictions={} len={}",
        cache.first_inserts(),
        cache.evictions(),
        cache.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of lookups and inserts on a bounded cache agrees
    /// with the unbounded reference model: a hit is always the reference
    /// value, a miss is always for a key the bound could have evicted,
    /// and the occupancy/accounting invariant holds after every step.
    #[test]
    fn interleavings_match_unbounded_reference(
        shards in 1usize..8,
        capacity in 1usize..48,
        ops in proptest::collection::vec((0u8..3, 0u64..64), 1..400),
    ) {
        let cache = SharedCache::new(shards, capacity);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for (kind, key) in ops {
            match kind {
                0 => {
                    // get: a hit must be the pure function of the key.
                    if let Some(v) = cache.get(&key) {
                        prop_assert_eq!(v, value_of(key));
                        prop_assert!(reference.contains_key(&key));
                    }
                }
                1 => {
                    // insert (or re-solve after eviction): the returned
                    // value is the function of the key no matter whether
                    // this call won the slot or an earlier one did.
                    let got = cache.get_or_insert(key, value_of(key));
                    prop_assert_eq!(got, value_of(key));
                    reference.insert(key, value_of(key));
                }
                _ => {
                    // re-solve with the *same* bits, as the engine does
                    // when a cell was evicted: must still round-trip.
                    let got = cache.get_or_insert(key, value_of(key));
                    prop_assert_eq!(got, value_of(key));
                    reference.insert(key, value_of(key));
                }
            }
            check_accounting(&cache);
        }
        // Everything still resident is readable and correct.
        let mut resident = 0usize;
        for key in reference.keys() {
            if let Some(v) = cache.get(key) {
                prop_assert_eq!(v, value_of(*key));
                resident += 1;
            }
        }
        prop_assert_eq!(resident, cache.len());
    }

    /// `get_many` on a 1-shard or 16-shard bounded cache is per-key
    /// `get`: the same values and misses, and the same CLOCK reference
    /// bits — checked by requiring that an insert burst after the probe
    /// evicts the same victims from both caches.
    #[test]
    fn get_many_matches_per_key_get(
        sixteen_shards in 0u8..2,
        capacity in 1usize..64,
        warm in proptest::collection::vec((0u8..3, 0u64..96), 0..300),
        batch in proptest::collection::vec(0u64..96, 0..64),
        burst in 1u64..48,
    ) {
        let shards = if sixteen_shards == 1 { 16 } else { 1 };
        let many: SharedCache<u64, u64> = SharedCache::new(shards, capacity);
        let each: SharedCache<u64, u64> = SharedCache::new(shards, capacity);
        for (kind, key) in warm {
            for cache in [&many, &each] {
                if kind == 0 {
                    cache.get(&key);
                } else {
                    cache.get_or_insert(key, value_of(key));
                }
            }
        }
        let mut got = vec![Some(0); batch.len()];
        let hits = many.get_many(&batch, &mut got);
        let want: Vec<Option<u64>> = batch.iter().map(|k| each.get(k)).collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(hits, want.iter().filter(|v| v.is_some()).count());
        for key in 1_000..1_000 + burst {
            for cache in [&many, &each] {
                cache.get_or_insert(key, value_of(key));
            }
        }
        prop_assert_eq!(many.evictions(), each.evictions());
        for key in 0..96u64 {
            prop_assert_eq!(many.get(&key), each.get(&key), "key {}", key);
        }
    }

    /// The full engine claim behind the serving bench's parity gate: for
    /// randomized grids and cache budgets, the bounded bit-exact engine's
    /// surface is bit-identical to the unbounded one — eviction plus
    /// re-solve is invisible.
    #[test]
    fn bounded_engine_surface_is_bit_identical(
        cache_entries in 1usize..48,
        n_loads in 4usize..16,
        lo in 0.05f64..0.40,
        ks in proptest::collection::vec(1u32..24, 1..4),
    ) {
        let base = Scenario::paper_default();
        let loads: Vec<f64> = (0..n_loads)
            .map(|i| lo + (0.92 - lo) * i as f64 / n_loads as f64)
            .collect();
        let unbounded = Engine::new(EngineConfig::bit_exact());
        let bounded = Engine::new(EngineConfig {
            cache_entries,
            ..EngineConfig::bit_exact()
        });
        for _pass in 0..2 {
            let a = bounded.rtt_surface(&base, &ks, &loads);
            let b = unbounded.rtt_surface(&base, &ks, &loads);
            for (ra, rb) in a.iter().zip(&b) {
                for (ca, cb) in ra.iter().zip(rb) {
                    prop_assert_eq!(ca.map(f64::to_bits), cb.map(f64::to_bits));
                }
            }
        }
        // The parity above holds vacuously if nothing was evicted. Each
        // memo map holds at most its budget rounded up to whole shards,
        // so a grid with more distinct cells than that must have churned.
        let mut distinct_ks = ks.clone();
        distinct_ks.sort_unstable();
        distinct_ks.dedup();
        let slots = SharedCache::<u8, u8>::new(DEFAULT_SHARDS, cache_entries).capacity();
        if distinct_ks.len() * n_loads > slots {
            prop_assert!(
                bounded.cache_stats().rtt_evictions > 0,
                "{} cells through {slots} slots evicted nothing",
                distinct_ks.len() * n_loads
            );
        }
    }
}

/// The fixed-grid form of the engine claim: a 64-entry bit-exact engine
/// over a 180-cell grid (constant eviction) reproduces the unbounded
/// surface to the last bit, also on a second pass that re-solves what
/// the first evicted.
#[test]
fn eviction_parity_holds_bit_exactly() {
    let base = Scenario::paper_default();
    let ks = [2u32, 9, 20];
    let loads: Vec<f64> = (0..60).map(|i| 0.05 + 0.9 * i as f64 / 60.0).collect();
    let bounded = Engine::new(EngineConfig {
        jobs: 1,
        cache_entries: 64,
        ..EngineConfig::bit_exact()
    });
    let unbounded = Engine::new(EngineConfig {
        jobs: 1,
        ..EngineConfig::bit_exact()
    });
    for pass in 0..2 {
        let a = bounded.rtt_surface(&base, &ks, &loads);
        let b = unbounded.rtt_surface(&base, &ks, &loads);
        for (ki, (ra, rb)) in a.iter().zip(&b).enumerate() {
            for (li, (ca, cb)) in ra.iter().zip(rb).enumerate() {
                assert_eq!(
                    ca.map(f64::to_bits),
                    cb.map(f64::to_bits),
                    "pass {pass}, K = {}, load = {}",
                    ks[ki],
                    loads[li]
                );
            }
        }
    }
    assert!(
        bounded.cache_stats().rtt_evictions > 0,
        "64 entries over a 180-cell grid must have evicted"
    );
}

/// Racing `get_or_insert` over overlapping key ranges on a tiny cache:
/// whatever survives the churn must be the right value for its key
/// (first-insert-wins means a reader can never observe a torn or stale
/// slot), occupancy stays bounded, and the counters still reconcile.
#[test]
fn hammer_no_lost_updates_and_bounded_occupancy() {
    const THREADS: usize = 8;
    const OPS: usize = 20_000;
    const KEYSPACE: u64 = 256;
    let cache: Arc<SharedCache<u64, u64>> = Arc::new(SharedCache::new(4, 32));
    thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                let mut x = 0x5ca1e_u64.wrapping_add(t as u64);
                for _ in 0..OPS {
                    // SplitMix64 step: each thread walks its own stream
                    // over the shared keyspace so ranges overlap heavily.
                    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let key = value_of(x) % KEYSPACE;
                    let got = cache.get_or_insert(key, value_of(key));
                    assert_eq!(got, value_of(key), "lost update on key {key}");
                    if let Some(v) = cache.get(&key) {
                        assert_eq!(v, value_of(key), "stale read on key {key}");
                    }
                }
            });
        }
    });
    check_accounting(&cache);
    assert!(
        cache.evictions() > 0,
        "32-entry cache over 256 keys must have evicted"
    );
    // Post-race audit: every surviving entry is the function of its key.
    let mut resident = 0usize;
    for key in 0..KEYSPACE {
        if let Some(v) = cache.get(&key) {
            assert_eq!(v, value_of(key));
            resident += 1;
        }
    }
    assert_eq!(resident, cache.len());
}

/// A single-shard, capacity-one cache is the nastiest corner: every
/// distinct insert evicts the previous entry, and the accounting must
/// stay exact through thousands of churn cycles.
#[test]
fn capacity_one_churn_stays_consistent() {
    let cache: SharedCache<u64, u64> = SharedCache::new(1, 1);
    for round in 0..5_000u64 {
        let key = round % 7;
        assert_eq!(cache.get_or_insert(key, value_of(key)), value_of(key));
        assert_eq!(cache.len(), 1);
        check_accounting(&cache);
        assert_eq!(cache.get(&key), Some(value_of(key)));
    }
    assert_eq!(cache.first_inserts(), cache.evictions() + 1);
}
