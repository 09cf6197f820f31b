//! Seeded input generators. The benchmark seed enters here and nowhere
//! else: the program under test receives only the frames built below.

use fpsping_serve::protocol::{encode_request, Request, REQ_FRAME_LEN};

/// Requests per pipelined block (one 40 KiB write, one server read).
pub const BLOCK: usize = 1024;
/// Server tick T of every generated cell (ms).
pub const TICK_MS: f64 = 40.0;
/// Erlang orders of the hot set: 16 orders × 256 loads = 4096 cells.
pub const HOT_KS: std::ops::RangeInclusive<u32> = 2..=17;
/// Loads per Erlang order in the hot set.
pub const HOT_LOADS: usize = 256;
/// Zipf exponent of the hot-spot popularity law.
pub const ZIPF_S: f64 = 1.1;
/// Distinct pre-built hot-spot blocks; the timed phase cycles through
/// them (every request is a memo hit, so repeating a block repeats the
/// same work without holding tens of thousands of blocks in memory).
pub const HOT_POOL_BLOCKS: usize = 256;
/// Erlang orders of the cold stream.
pub const COLD_KS: std::ops::RangeInclusive<u32> = 2..=20;
/// Golden-ratio rotation step: a low-discrepancy sequence in [0, 1)
/// that never revisits a point.
pub const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (n ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A sub-seed for one purpose, so that adding a consumer of the seed
/// never shifts another consumer's stream.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    SplitMix64::new(seed ^ purpose.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// The 4096 hot-set cells `(K, load)`, K-major.
pub fn hot_set() -> Vec<(u32, f64)> {
    HOT_KS
        .flat_map(|k| {
            (0..HOT_LOADS).map(move |li| (k, 0.05 + 0.9 * (li as f64 + 0.5) / HOT_LOADS as f64))
        })
        .collect()
}

/// Zipf(s) CDF over `n` ranks, normalised to end at 1.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut total = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|rank| {
            total += 1.0 / (rank as f64).powf(s);
            total
        })
        .collect();
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// One request as the generator sees it, before framing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// RTT quantile of cell `(K, load)`.
    Rtt { k: u32, load: f64 },
    /// Dimensioning: largest load meeting `budget_ms` at Erlang order K.
    Dimension { k: u32, budget_ms: f64 },
}

impl Query {
    /// The binary request frame with request id `id`.
    pub fn frame(self, id: u64) -> [u8; REQ_FRAME_LEN] {
        encode_request(&match self {
            Query::Rtt { k, load } => Request::rtt(id, k, TICK_MS, load),
            Query::Dimension { k, budget_ms } => Request::dimension(id, k, TICK_MS, budget_ms),
        })
    }
}

/// A block sequence: the queries of every block, in send order.
#[derive(Debug, Clone)]
pub struct Blocks {
    /// `queries[b]` holds block `b`'s [`BLOCK`] queries.
    pub queries: Vec<Vec<Query>>,
}

impl Blocks {
    /// Frames of block `b`, request ids `b·BLOCK + slot`.
    pub fn frames(&self, b: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(BLOCK * REQ_FRAME_LEN);
        for (slot, q) in self.queries[b].iter().enumerate() {
            out.extend_from_slice(&q.frame((b * BLOCK + slot) as u64));
        }
        out
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.queries.len()
    }
}

/// The hot-set warm-up: every hot cell once, in [`BLOCK`]-sized blocks.
pub fn hot_warmup() -> Blocks {
    let cells = hot_set();
    Blocks {
        queries: cells
            .chunks(BLOCK)
            .map(|c| c.iter().map(|&(k, load)| Query::Rtt { k, load }).collect())
            .collect(),
    }
}

/// [`HOT_POOL_BLOCKS`] hot-spot blocks: Zipf(1.1) ranks over a seeded
/// permutation of the hot set, so the seed decides which cells are hot.
pub fn hot_pool(seed: u64) -> Blocks {
    let cells = hot_set();
    let mut rng = SplitMix64::new(derive(seed, 1));
    let mut perm: Vec<usize> = (0..cells.len()).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let cdf = zipf_cdf(cells.len(), ZIPF_S);
    let queries = (0..HOT_POOL_BLOCKS)
        .map(|_| {
            (0..BLOCK)
                .map(|_| {
                    let u = rng.next_f64();
                    let rank = cdf.partition_point(|&c| c < u).min(cells.len() - 1);
                    let (k, load) = cells[perm[rank]];
                    Query::Rtt { k, load }
                })
                .collect()
        })
        .collect();
    Blocks { queries }
}

/// The never-repeating cold stream: golden-ratio loads in [0.05, 0.95)
/// over K = 2…20 cycled, and one `dimension` request per block at a
/// seeded slot with a golden-ratio budget in [40, 80) ms. `blocks`
/// counts from the start of the stream, so a prefix of a longer stream
/// is the shorter stream.
pub fn cold_stream(seed: u64, blocks: usize) -> Blocks {
    let mut rng = SplitMix64::new(derive(seed, 2));
    let mut x = rng.next_f64();
    let mut y = rng.next_f64();
    let n_ks = (COLD_KS.end() - COLD_KS.start() + 1) as u64;
    let mut n: u64 = 0;
    let mut next_k = || {
        n += 1;
        COLD_KS.start() + (n % n_ks) as u32
    };
    let queries = (0..blocks)
        .map(|_| {
            let dim_slot = rng.below(BLOCK);
            (0..BLOCK)
                .map(|slot| {
                    let k = next_k();
                    if slot == dim_slot {
                        y = (y + GOLDEN).fract();
                        Query::Dimension {
                            k,
                            budget_ms: 40.0 + 40.0 * y,
                        }
                    } else {
                        x = (x + GOLDEN).fract();
                        Query::Rtt {
                            k,
                            load: 0.05 + 0.9 * x,
                        }
                    }
                })
                .collect()
        })
        .collect();
    Blocks { queries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..1000 {
            let (x, y) = (a.next_f64(), b.next_f64());
            assert_eq!(x.to_bits(), y.to_bits());
            assert!((0.0..1.0).contains(&x));
            assert!(a.below(10) < 10 && b.below(10) < 10);
        }
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
    }

    #[test]
    fn zipf_cdf_is_monotone_normalised_and_head_heavy() {
        let cdf = zipf_cdf(4096, ZIPF_S);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf[4095] - 1.0).abs() < 1e-12);
        assert!(cdf[0] > 0.1, "rank 1 carries {:.3} of the mass", cdf[0]);
    }

    #[test]
    fn hot_set_has_4096_distinct_cells_in_range() {
        let cells = hot_set();
        assert_eq!(cells.len(), 4096);
        let distinct: HashSet<(u32, u64)> = cells.iter().map(|&(k, l)| (k, l.to_bits())).collect();
        assert_eq!(distinct.len(), 4096);
        assert!(cells
            .iter()
            .all(|&(k, l)| HOT_KS.contains(&k) && (0.05..0.95).contains(&l)));
        assert_eq!(hot_warmup().len(), 4);
    }

    #[test]
    fn hot_pool_is_seeded_and_stays_in_the_hot_set() {
        let a = hot_pool(1);
        let b = hot_pool(1);
        let c = hot_pool(2);
        assert_eq!(a.len(), HOT_POOL_BLOCKS);
        assert_eq!(a.frames(3), b.frames(3));
        assert_ne!(a.frames(3), c.frames(3));
        let hot: HashSet<(u32, u64)> = hot_set().iter().map(|&(k, l)| (k, l.to_bits())).collect();
        for block in &a.queries {
            assert_eq!(block.len(), BLOCK);
            for q in block {
                let Query::Rtt { k, load } = *q else {
                    panic!("hot-spot blocks carry rtt requests only")
                };
                assert!(hot.contains(&(k, load.to_bits())));
            }
        }
    }

    #[test]
    fn cold_stream_never_repeats_and_is_seeded() {
        let s = cold_stream(9, 400);
        assert_eq!(s.frames(17), cold_stream(9, 20).frames(17), "prefix-stable");
        assert_ne!(s.frames(0), cold_stream(10, 1).frames(0));
        let mut cells = HashSet::new();
        let mut budgets = HashSet::new();
        for block in &s.queries {
            assert_eq!(block.len(), BLOCK);
            let dims = block
                .iter()
                .filter(|q| matches!(q, Query::Dimension { .. }))
                .count();
            assert_eq!(dims, 1, "one dimension request per block");
            for q in block {
                match *q {
                    Query::Rtt { k, load } => {
                        assert!(COLD_KS.contains(&k) && (0.05..0.95).contains(&load));
                        assert!(cells.insert((k, load.to_bits())), "repeated cell");
                    }
                    Query::Dimension { k, budget_ms } => {
                        assert!(COLD_KS.contains(&k) && (40.0..80.0).contains(&budget_ms));
                        assert!(budgets.insert(budget_ms.to_bits()), "repeated budget");
                    }
                }
            }
        }
        assert_eq!(cells.len(), 400 * (BLOCK - 1));
    }
}
