//! The evaluation engine: parallel, cached grid workloads.
//!
//! Every figure and dimensioning run in this repository is a grid of RTT
//! quantile evaluations — (load × K) surfaces, load sweeps per scenario
//! family, bisection probes along the load axis. A cell's model is built
//! from closed forms: the D/E_K/1 branch roots (eq. 26, a principal
//! Lambert W per branch), the upstream M/D/1 dominant pole (a Lambert
//! W₋₁) and the eq.-35 expansion. What remains to share between cells is
//! the quantile search, whose answer moves smoothly along any monotone
//! axis of the grid, and the answer itself, when a cell comes back.
//!
//! [`Engine::serial`] is the reference: one thread, each cell solved cold
//! by [`RttModel::build`], no memo and no hints. Every other engine is
//! built from an [`EngineConfig`]: a [`SolverCache`] memoizes each
//! cell's answer, a scoped-thread [`par_map`] fans independent cells
//! across cores with deterministic result order, and each contiguous
//! run of cells warm-starts its quantile bracket from its neighbor. A
//! cell the memo misses is built by [`RttModel::build`] itself, and
//! bracket warm starts only accelerate finding the same canonical
//! bracket the cold search would use — neither changes a single output
//! bit.
//!
//! On top of that, [`EngineConfig::batch`] (default on) selects the
//! tolerance-relaxed quantile search ([`RttModel::rtt_quantile_ms_fast`])
//! instead of the bit-exact bracketed one. This is the one knob that
//! trades bit-parity for speed: the fast search stops once its bracket
//! is within its tolerance, so its answer can differ from the exact
//! solve's in the last digits. The documented bound is
//! [`BATCH_RTT_TOLERANCE_MS`] = **1e-4 ms** (see `engine_parity`). The
//! D/E_K/1 roots are the same in every configuration: each is solved in
//! closed form from its own start
//! ([`fpsping_queue::DekSolution::solve`]), so a batch engine's roots
//! equal the serial reference's bit for bit. Each fast
//! search starts from its neighbour's quantile along fixed-size runs of
//! cells, independent of `jobs`, so results never depend on the worker
//! count; setting `batch: false` ([`EngineConfig::bit_exact`]) restores
//! exact bit-parity with [`Engine::serial`].

use crate::cache::SharedCache;
use crate::dimensioning::DimensioningResult;
use crate::rtt::RttModel;
use crate::scenario::{Gamers, Scenario};
use crate::sweep::LoadPoint;
use fpsping_obs::{Counter, Gauge};
use fpsping_queue::QueueError;
use fpsping_sim::engine::par_map;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

static RTT_HITS: Counter = Counter::new("engine.cache.rtt.hits");
static RTT_MISSES: Counter = Counter::new("engine.cache.rtt.misses");
static RTT_ENTRIES: Gauge = Gauge::new("engine.cache.rtt.entries");
static RTT_EVICTIONS: Counter = Counter::new("engine.cache.rtt.evictions");

/// Documented accuracy bound for batch sweeps versus [`Engine::serial`],
/// in milliseconds of RTT quantile.
///
/// It covers the batch quantile search alone
/// ([`RttModel::rtt_quantile_ms_fast`]), which stops within its own
/// tolerance of the root the exact bracketed solve finds; the models it
/// searches are the serial reference's, bit for bit. This constant is
/// the acceptance bound used by the parity tests and the sweep
/// benchmark — six orders below the paper's reporting precision.
pub const BATCH_RTT_TOLERANCE_MS: f64 = 1e-4;

/// Tuning knobs for an [`Engine`]. Every engine built from a config
/// memoizes cell answers and warm-starts quantile brackets; the serial
/// reference ([`Engine::serial`]) is the one engine that does neither.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for grid fan-out (1 = run on the caller's thread).
    pub jobs: usize,
    /// The tolerance-relaxed quantile search
    /// ([`RttModel::rtt_quantile_ms_fast`]), hinted along fixed runs of
    /// cells: RTT quantiles within [`BATCH_RTT_TOLERANCE_MS`] of the
    /// serial path (documented tolerance) — set `false` for exact
    /// bit-parity. It selects nothing else: the models, roots included,
    /// are the same either way.
    pub batch: bool,
    /// Entry budget of the whole-cell RTT memo, and of the table of
    /// scenario families behind its keys; `0` (the default) leaves them
    /// unbounded, which is right for grid sweeps over a bounded key set.
    /// Long-running query services set a budget so an adversarial stream
    /// of fresh `(K, ρ)` cells cannot grow memory without limit; see
    /// [`crate::cache::SharedCache`] for the eviction policy and why
    /// eviction never changes a single output bit.
    pub cache_entries: usize,
}

impl EngineConfig {
    /// The default configuration with the fast quantile search disabled:
    /// parallel, cached, bracket-warm-started — and bit-identical to
    /// [`Engine::serial`], cell for cell.
    pub fn bit_exact() -> Self {
        Self {
            batch: false,
            ..Self::default()
        }
    }

    /// Default config with an explicit thread count (`0` = all cores).
    pub fn with_jobs(jobs: usize) -> Self {
        let jobs = if jobs == 0 { default_jobs() } else { jobs };
        Self {
            jobs,
            ..Self::default()
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            jobs: default_jobs(),
            batch: true,
            cache_entries: 0,
        }
    }
}

fn default_jobs() -> usize {
    match std::thread::available_parallelism() {
        Ok(n) => n.get(),
        Err(e) => {
            fpsping_obs::warn_once(
                "engine.jobs.autodetect",
                &format!("could not detect available parallelism ({e}); running single-threaded"),
            );
            1
        }
    }
}

/// Hit/miss counters of a [`SolverCache`] (monotone since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Whole-cell RTT quantiles served from the cache.
    pub rtt_hits: u64,
    /// Whole-cell RTT quantiles computed fresh.
    pub rtt_misses: u64,
    /// Whole-cell RTT entries evicted under the cache budget (0 if
    /// unbounded).
    pub rtt_evictions: u64,
}

/// The nine scenario parameters a served cell never varies, as raw bit
/// patterns: P_S, P_C, R_up, R_down, C, the client interval (its bits,
/// with `None` told apart by a flag), the quantile, `include_upstream`
/// and `extra_fixed_ms`. Everything else a [`ScenarioKey`] needs — K, T
/// and the gamer population — is what a grid or a served query moves.
///
/// [`SolverCache`] interns each family as a small id, so a memo key is
/// four words however many parameters the family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FamilyKey([u64; 9]);

impl FamilyKey {
    fn of(s: &Scenario) -> Self {
        let flags = u64::from(s.include_upstream) | u64::from(s.client_interval_ms.is_some()) << 1;
        Self([
            s.server_packet_bytes.to_bits(),
            s.client_packet_bytes.to_bits(),
            s.r_up_bps.to_bits(),
            s.r_down_bps.to_bits(),
            s.c_bps.to_bits(),
            s.client_interval_ms.map_or(0, f64::to_bits),
            s.quantile.to_bits(),
            flags,
            s.extra_fixed_ms.to_bits(),
        ])
    }
}

/// Exact-bit identity of a scenario cell, in four words:
/// `[family id, K | gamer tag << 32, T bits, gamer bits]`, where the
/// gamer tag tells a gamer count (`1`) from a downlink load (`0`). Two
/// scenarios share a key iff they share a [`FamilyKey`] and K, T and
/// the gamer population are bit-identical — iff the whole evaluation
/// pipeline is mathematically identical. Family ids are never reused
/// (see [`SolverCache::family_id`]), so a key can never name two
/// different families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ScenarioKey([u64; 4]);

impl ScenarioKey {
    /// The key of the cell `(K, T, gamers)` in family `family`.
    fn cell(family: u64, k: u32, t_ms: f64, gamers: Gamers) -> Self {
        let (tag, bits) = match gamers {
            Gamers::Count(n) => (1u64, u64::from(n)),
            Gamers::DownlinkLoad(r) => (0, r.to_bits()),
        };
        Self([family, u64::from(k) | tag << 32, t_ms.to_bits(), bits])
    }

    /// The key of `s`, whose family interns as `family`.
    fn of(family: u64, s: &Scenario) -> Self {
        Self::cell(family, s.erlang_order, s.t_ms, s.gamers)
    }
}

/// Thread-safe memo of whole-cell RTT quantiles.
///
/// Keys are exact bit patterns of the defining parameters, so a hit can
/// only occur for a mathematically identical cell — there is no
/// tolerance-based key collision. The memo and the family table behind
/// its keys are [`SharedCache`]s: sharded (concurrent workers rarely
/// contend) and optionally capacity-bounded (see
/// [`SolverCache::with_budget`]).
#[derive(Debug)]
pub struct SolverCache {
    rtt: SharedCache<ScenarioKey, f64>,
    /// Interned scenario families, [`FamilyKey`] → id.
    families: SharedCache<FamilyKey, u64>,
    /// The next family id to hand out; ids are never reused.
    next_family: AtomicU64,
    rtt_hits: AtomicU64,
    rtt_misses: AtomicU64,
    /// How much of each mirrored counter (hits, misses, evictions, same
    /// order as in [`SolverCache::flush_obs`]) has already been pushed
    /// into the global `engine.cache.rtt.*` registry counters. Deltas are
    /// flushed by [`SolverCache::flush_obs`] so the memo-hit fast path
    /// never touches the registry statics.
    obs_flushed: [AtomicU64; 3],
}

impl Default for SolverCache {
    fn default() -> Self {
        Self::with_budget(0)
    }
}

impl SolverCache {
    /// A cache bounding the RTT memo at `entries` entries (`0` =
    /// unbounded, the [`Default`]). The scenario-family table behind the
    /// memo's keys gets the same budget.
    pub fn with_budget(entries: usize) -> Self {
        Self {
            rtt: SharedCache::new(crate::cache::DEFAULT_SHARDS, entries),
            families: SharedCache::new(crate::cache::DEFAULT_SHARDS, entries),
            next_family: AtomicU64::new(0),
            rtt_hits: AtomicU64::new(0),
            rtt_misses: AtomicU64::new(0),
            obs_flushed: Default::default(),
        }
    }

    /// The id of a scenario family, interned on first sight.
    ///
    /// Ids come from a counter and are never reused. A family evicted
    /// from the table gets a fresh id when it returns, and the RTT memo
    /// entries filed under its old id are never probed again and age out
    /// under CLOCK — so a memo key can never match a different family,
    /// and eviction stays invisible in the answers. Racing first sights
    /// of one family agree on the first inserted id.
    fn family_id(&self, family: &FamilyKey) -> u64 {
        if let Some(id) = self.families.get(family) {
            return id;
        }
        let id = self.next_family.fetch_add(1, Ordering::Relaxed);
        self.families.get_or_insert(*family, id)
    }

    /// Mirrors the internal hit/miss totals into the global
    /// `engine.cache.rtt.*` observability counters, adding only the delta
    /// since the previous flush. Called at the end of the public engine
    /// entry points (and on drop), which keeps the per-cell fast paths
    /// down to the one internal `fetch_add` they always had. Safe to call
    /// concurrently: the swap telescopes, so every increment is mirrored
    /// exactly once.
    pub fn flush_obs(&self) {
        let totals: [(u64, &'static Counter); 3] = [
            (self.rtt_hits.load(Ordering::Relaxed), &RTT_HITS),
            (self.rtt_misses.load(Ordering::Relaxed), &RTT_MISSES),
            (self.rtt.evictions(), &RTT_EVICTIONS),
        ];
        for (i, (t, counter)) in totals.into_iter().enumerate() {
            let f = self.obs_flushed[i].swap(t, Ordering::Relaxed);
            counter.add(t.saturating_sub(f));
        }
        // The occupancy gauge from the memo's insert/evict counters, so a
        // served batch takes no shard lock here (`len()` would take all
        // 16 shards).
        RTT_ENTRIES.set_max(self.rtt.occupancy());
    }

    /// Current hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            rtt_hits: self.rtt_hits.load(Ordering::Relaxed),
            rtt_misses: self.rtt_misses.load(Ordering::Relaxed),
            rtt_evictions: self.rtt.evictions(),
        }
    }
}

/// Mirrors a cache's counters into the registry when the enclosing scope
/// exits (every return path of an engine entry point, including `?`).
struct FlushOnDrop<'a>(&'a SolverCache);

impl Drop for FlushOnDrop<'_> {
    fn drop(&mut self) {
        self.0.flush_obs();
    }
}

/// Splits `0..len` into at most `parts` contiguous ranges of near-equal
/// size (used to hand bracket-hint runs to workers).
fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunk = len.div_ceil(parts.max(1));
    (0..len)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(len))
        .collect()
}

/// Length of the runs along which the batch quantile search passes its
/// hint: 16 keeps the paper's 18-point grid at two runs (still
/// parallelizable).
const CONTINUATION_BLOCK: usize = 16;

/// Splits `0..len` into fixed [`CONTINUATION_BLOCK`]-sized contiguous
/// runs: the batch quantile search's hint chains. Unlike [`chunk_ranges`]
/// this is *independent of the worker count*. A run is both the unit of
/// work handed to `par_map` and the chain along which each fast search
/// starts from its neighbour's quantile; the fast search stops where its
/// seed leads it (within [`BATCH_RTT_TOLERANCE_MS`], not on a canonical
/// bracket), so tying runs to `jobs` would make sweep results depend on
/// the machine's core count. With fixed runs a sweep's bits are a
/// function of its inputs only.
fn continuation_runs(len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    (0..len)
        .step_by(CONTINUATION_BLOCK)
        .map(|start| start..(start + CONTINUATION_BLOCK).min(len))
        .collect()
}

/// The parallel cached evaluation engine — see the module docs.
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
    cache: SolverCache,
    /// Set only by [`Engine::serial`]: no memo, no bracket hints — every
    /// cell is `RttModel::build(&s)?.rtt_quantile_ms()`.
    reference: bool,
}

impl Engine {
    /// An engine with the given configuration (the cache honors
    /// [`EngineConfig::cache_entries`]).
    pub fn new(config: EngineConfig) -> Self {
        let cache = SolverCache::with_budget(config.cache_entries);
        Self {
            config,
            cache,
            reference: false,
        }
    }

    /// The serial reference: one thread, no memo, no bracket hints — each
    /// cell is solved by [`RttModel::build`]
    /// and inverted by [`RttModel::rtt_quantile_ms`]. Its
    /// [`Engine::max_load`] runs the same tail-decided bisection as every
    /// engine, on models from [`RttModel::build`], and solves the
    /// quantile at the answer cold. Every other engine is checked against
    /// this one; its cache counters stay at zero.
    pub fn serial() -> Self {
        Self {
            config: EngineConfig {
                jobs: 1,
                batch: false,
                cache_entries: 0,
            },
            cache: SolverCache::default(),
            reference: true,
        }
    }

    /// This engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cache counters accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Builds the RTT model for one scenario: [`RttModel::build`], on
    /// every engine. Every component is a closed form, so there is
    /// nothing to memoize below the whole-cell answer.
    pub fn build_model(&self, scenario: &Scenario) -> Result<RttModel, QueueError> {
        RttModel::build(scenario)
    }

    /// The cell quantile through the regime-appropriate root-finder:
    /// the tolerance-relaxed fast path in batch mode, the bit-exact
    /// bracketed path otherwise.
    fn quantile_ms(&self, m: &RttModel, hint: Option<f64>) -> f64 {
        if self.config.batch {
            m.rtt_quantile_ms_fast(hint)
        } else {
            m.rtt_quantile_ms_with_hint(hint)
        }
    }

    /// The interned family id of `s`, or `None` for the serial
    /// reference (every cell is then solved, and no key is needed).
    fn family(&self, s: &Scenario) -> Option<u64> {
        (!self.reference).then(|| self.cache.family_id(&FamilyKey::of(s)))
    }

    /// One cell: the RTT quantile (ms), warm-started from `hint`. `None`
    /// for infeasible scenarios.
    ///
    /// `key` is the cell's memo key; `None` only on the serial
    /// reference, which solves the cell cold and ignores `hint`. A cell
    /// already evaluated by this engine is served from
    /// the whole-cell memo without re-assembling the model or
    /// re-inverting the quantile — the exact stored bits come back, so
    /// repeated grids (the common shape of bisection paths and
    /// re-plotted figures) cost a hash lookup per cell.
    fn cell(
        &self,
        scenario: &Scenario,
        key: Option<ScenarioKey>,
        hint: Option<f64>,
    ) -> Option<f64> {
        let Some(key) = key else {
            return RttModel::build(scenario).ok().map(|m| m.rtt_quantile_ms());
        };
        if let Some(v) = self.cache.rtt.get(&key) {
            self.cache.rtt_hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        let m = RttModel::build(scenario).ok()?;
        let v = self.quantile_ms(&m, hint);
        self.cache.rtt_misses.fetch_add(1, Ordering::Relaxed);
        self.cache.rtt.get_or_insert(key, v);
        Some(v)
    }

    /// How a sweep's load axis is cut into contiguous runs. Batch mode
    /// uses fixed-size hint chains (worker-count independent, so fast
    /// searches are a function of the grid alone); otherwise one run per
    /// worker, as the bit-exact configurations always did.
    fn sweep_runs(&self, len: usize, parts: usize) -> Vec<Range<usize>> {
        if self.config.batch {
            continuation_runs(len)
        } else {
            chunk_ranges(len, parts)
        }
    }

    /// The scenario's RTT quantile across the given downlink loads — the
    /// series of Figures 3 and 4 — with the load (ρ_u) and gamer count
    /// (eq. 37) of each point. The load axis is cut into contiguous runs;
    /// each run warm-starts its quantile brackets along its cells. Equal
    /// to [`Engine::serial`] cell for cell with `batch: false`; within the
    /// documented [`BATCH_RTT_TOLERANCE_MS`] tolerance otherwise.
    pub fn rtt_vs_load(&self, base: &Scenario, loads: &[f64]) -> Vec<LoadPoint> {
        let _span = fpsping_obs::span("engine.rtt_vs_load");
        let _flush = FlushOnDrop(&self.cache);
        let family = self.family(base);
        let runs = self.sweep_runs(loads.len(), self.config.jobs);
        par_map(runs.len(), self.config.jobs, |r| {
            let mut hint = None;
            runs[r]
                .clone()
                .map(|i| {
                    let rho = loads[i];
                    let s = base.clone().with_load(rho);
                    let key = family.map(|f| ScenarioKey::of(f, &s));
                    let rtt_ms = self.cell(&s, key, hint);
                    hint = rtt_ms.or(hint);
                    LoadPoint {
                        rho_d: rho,
                        rho_u: s.uplink_load(),
                        n_gamers: s.gamer_count(),
                        rtt_ms,
                    }
                })
                .collect::<Vec<_>>()
        })
        .concat()
    }

    /// Evaluates an arbitrary batch of scenarios, returning one RTT
    /// quantile (ms) per input in input order (`None` = infeasible).
    ///
    /// A read burst of independent queries coalesces into one engine
    /// pass, in two steps.
    ///
    /// 1. **Memo pass.** Every scenario's four-word key is probed in the
    ///    whole-cell memo with one [`SharedCache::get_many`] — one hash
    ///    per key, one lock per touched shard — and a hit is written
    ///    straight to its output slot (one `rtt_hits` increment per
    ///    batch). A scenario's family is interned only when it differs
    ///    from the previous scenario's, so a batch of one family (the
    ///    common shape) interns once. No sort, no hint run.
    /// 2. **Misses only.** The remaining indices are *sorted* by
    ///    `(K, T, ρ_d)` so that cells sharing an Erlang order run
    ///    consecutively in load order — the exact shape the sweep
    ///    machinery exploits: quantile brackets warm-start from the
    ///    neighboring miss. Each miss probes the memo again, so a cell
    ///    repeated inside the batch is solved once and then hits.
    ///
    /// Results land in input order, so callers never see the
    /// permutation. Values match [`Engine::build_model`] +
    /// `rtt_quantile_ms` bit for bit under a bit-exact config, and stay
    /// within [`BATCH_RTT_TOLERANCE_MS`] under the default batch config.
    /// On [`Engine::serial`] every scenario is a miss. Callers whose cells
    /// share one family and differ only in `(K, T, ρ_d)` use
    /// [`Engine::rtt_batch_at`], which builds no `Scenario` for a hit.
    pub fn rtt_batch(&self, scenarios: &[Scenario]) -> Vec<Option<f64>> {
        let _span = fpsping_obs::span("engine.rtt_batch");
        let _flush = FlushOnDrop(&self.cache);
        let keys = (!self.reference).then(|| {
            let mut last: Option<(FamilyKey, u64)> = None;
            scenarios
                .iter()
                .map(|s| {
                    let family = FamilyKey::of(s);
                    let id = match last {
                        Some((prev, id)) if prev == family => id,
                        _ => {
                            let id = self.cache.family_id(&family);
                            last = Some((family, id));
                            id
                        }
                    };
                    ScenarioKey::of(id, s)
                })
                .collect::<Vec<_>>()
        });
        self.batch(keys.as_deref(), scenarios.len(), |i| scenarios[i].clone())
    }

    /// [`Engine::rtt_batch`] over the cells `(K, T ms, ρ_d)` of one
    /// scenario family: cell `i` is `base` with Erlang order `cells[i].0`,
    /// tick `cells[i].1` and downlink load `cells[i].2`. Returns one RTT
    /// quantile (ms) per cell in input order (`None` = infeasible).
    ///
    /// This is the serving entry point. `base`'s family is interned once
    /// per call and each cell's memo key is built from the three numbers
    /// alone, so a memo hit costs a key, one hash and a share of one
    /// shard lock — no `Scenario` is built except for a miss. The two
    /// entry points share the memo pass and the miss path, so on the
    /// same cells built as `Scenario`s this makes the same memo hits and
    /// misses as [`Engine::rtt_batch`], answers bit for bit alike under a
    /// bit-exact config, and within [`BATCH_RTT_TOLERANCE_MS`] of it
    /// otherwise.
    pub fn rtt_batch_at(&self, base: &Scenario, cells: &[(u32, f64, f64)]) -> Vec<Option<f64>> {
        let _span = fpsping_obs::span("engine.rtt_batch");
        let _flush = FlushOnDrop(&self.cache);
        let keys = self.family(base).map(|family| {
            cells
                .iter()
                .map(|&(k, t_ms, rho)| {
                    ScenarioKey::cell(family, k, t_ms, Gamers::DownlinkLoad(rho))
                })
                .collect::<Vec<_>>()
        });
        self.batch(keys.as_deref(), cells.len(), |i| {
            let (k, t_ms, rho) = cells[i];
            base.clone()
                .with_erlang_order(k)
                .with_tick_ms(t_ms)
                .with_load(rho)
        })
    }

    /// The memo pass and miss path shared by [`Engine::rtt_batch`] and
    /// [`Engine::rtt_batch_at`]. `keys[i]` is cell `i`'s memo key (`None`
    /// when memoization is off) and `scenario(i)` builds cell `i`, which
    /// is called for misses only.
    fn batch(
        &self,
        keys: Option<&[ScenarioKey]>,
        n: usize,
        scenario: impl Fn(usize) -> Scenario,
    ) -> Vec<Option<f64>> {
        let mut out = vec![None; n];
        let mut misses: Vec<(usize, Scenario)> = match keys {
            Some(keys) => {
                let hits = self.cache.rtt.get_many(keys, &mut out);
                self.cache
                    .rtt_hits
                    .fetch_add(hits as u64, Ordering::Relaxed);
                if hits == n {
                    return out;
                }
                (0..n)
                    .filter(|&i| out[i].is_none())
                    .map(|i| (i, scenario(i)))
                    .collect()
            }
            None => (0..n).map(|i| (i, scenario(i))).collect(),
        };
        misses.sort_by_key(|(_, s)| {
            (
                s.erlang_order,
                s.t_ms.to_bits(),
                s.downlink_load().to_bits(),
            )
        });
        let runs = self.sweep_runs(misses.len(), self.config.jobs);
        let results = par_map(runs.len(), self.config.jobs, |r| {
            let mut hint = None;
            misses[runs[r].clone()]
                .iter()
                .map(|(i, s)| {
                    let v = self.cell(s, keys.map(|k| k[*i]), hint);
                    hint = v.or(hint);
                    v
                })
                .collect::<Vec<_>>()
        });
        for (run, values) in runs.iter().zip(results) {
            for (mi, v) in run.clone().zip(values) {
                out[misses[mi].0] = v;
            }
        }
        out
    }

    /// The full (K × load) RTT surface: rows are loads, columns are
    /// Erlang orders, infeasible cells are `None`. Work is fanned out as
    /// (K column × load run) tasks; each task walks its loads in order,
    /// warm-starting the quantile bracket from the previous cell.
    /// Equal to [`Engine::serial`] cell for cell with `batch: false`;
    /// within the documented [`BATCH_RTT_TOLERANCE_MS`] tolerance
    /// otherwise.
    pub fn rtt_surface(&self, base: &Scenario, ks: &[u32], loads: &[f64]) -> Vec<Vec<Option<f64>>> {
        let _span = fpsping_obs::span("engine.rtt_surface");
        let _flush = FlushOnDrop(&self.cache);
        // Split the load axis only as far as needed to keep all workers
        // busy across the K columns (batch mode: fixed hint chains
        // instead, so shard shape never depends on `jobs`).
        let load_runs = self.sweep_runs(loads.len(), self.config.jobs.div_ceil(ks.len().max(1)));
        let tasks: Vec<(usize, Range<usize>)> = (0..ks.len())
            .flat_map(|ki| load_runs.iter().map(move |r| (ki, r.clone())))
            .collect();
        let family = self.family(base);
        let results = par_map(tasks.len(), self.config.jobs, |t| {
            let (ki, run) = &tasks[t];
            let k = ks[*ki];
            let mut hint = None;
            run.clone()
                .map(|li| {
                    let s = base.clone().with_load(loads[li]).with_erlang_order(k);
                    let key = family.map(|f| ScenarioKey::of(f, &s));
                    let v = self.cell(&s, key, hint);
                    hint = v.or(hint);
                    v
                })
                .collect::<Vec<_>>()
        });
        let mut surface = vec![vec![None; ks.len()]; loads.len()];
        for ((ki, run), values) in tasks.iter().zip(results) {
            for (li, v) in run.clone().zip(values) {
                surface[li][*ki] = v;
            }
        }
        surface
    }

    /// Engine-powered [`crate::dimensioning::max_load`]: the largest
    /// downlink load whose RTT quantile meets `rtt_budget_ms`, by
    /// bisection on the load.
    ///
    /// Each probe builds the model at its load and is decided by
    /// [`RttModel::meets_budget`]: one
    /// tail at the budget, not a quantile solve. A quantile is solved
    /// only for the reported `rtt_at_max_ms`, through the whole-cell memo.
    /// The bisection stops once its interval can no longer be halved.
    /// [`Engine::serial`] runs this same code with no memo, so every
    /// engine returns its `rho_max` and `n_max` bit for bit.
    ///
    /// A tail at the budget and a quantile solved to its tolerance can
    /// disagree at loads within that tolerance of the boundary, so the
    /// reported `rtt_at_max_ms` may exceed the budget by the quantile
    /// solve's noise: up to ~6e-5 ms on budgets of 20–130 ms (inside
    /// [`BATCH_RTT_TOLERANCE_MS`]), and a few 1e-6 of the budget at RTTs
    /// near 100 s.
    ///
    /// Pathological terminations are explicit errors instead of silent
    /// NaNs: exhausting the stability search or converging onto an
    /// infeasible load both report [`QueueError::SolveFailure`].
    pub fn max_load(
        &self,
        base: &Scenario,
        rtt_budget_ms: f64,
    ) -> Result<DimensioningResult, QueueError> {
        if !(rtt_budget_ms.is_finite() && rtt_budget_ms > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "rtt_budget_ms",
                value: rtt_budget_ms,
            });
        }
        let _span = fpsping_obs::span("engine.max_load");
        let _flush = FlushOnDrop(&self.cache);
        // `Some(meets budget)` at a stable load, `None` at an unstable one.
        let probe = |rho: f64| -> Result<Option<bool>, QueueError> {
            match self.build_model(&base.clone().with_load(rho)) {
                Ok(m) => Ok(Some(m.meets_budget(rtt_budget_ms))),
                Err(QueueError::UnstableLoad { .. }) => Ok(None),
                Err(e) => Err(e),
            }
        };
        let lo_probe = 1e-4;
        if probe(lo_probe)? != Some(true) {
            // Even a vanishing load breaks the budget (e.g. a budget
            // below the deterministic floor): the zero result, with no
            // realized RTT to report.
            return Ok(DimensioningResult {
                rho_max: 0.0,
                n_max: 0,
                rtt_at_max_ms: None,
            });
        }
        // Find the largest feasible probe (the uplink may saturate before
        // the downlink for P_S < P_C).
        let mut lo = lo_probe;
        let mut hi = 0.999;
        let mut hi_meets = probe(hi)?;
        let mut guard = 0;
        while hi_meets.is_none() && guard < 200 {
            hi = lo + 0.95 * (hi - lo);
            hi_meets = probe(hi)?;
            guard += 1;
        }
        match hi_meets {
            // Budget never binds below saturation.
            Some(true) => return self.dimensioned(base, hi),
            Some(false) => {}
            // 200 shrinks of the probe never produced a stable scenario
            // even though lo_probe is feasible — numerically impossible
            // for a monotone feasibility region; report it rather than
            // bisecting against an unusable bracket.
            None => {
                return Err(QueueError::SolveFailure {
                    what: "dimensioning: stability search exhausted without a feasible upper probe",
                })
            }
        }
        // Bisect on feasibility of the budget; `lo` always meets it and
        // `hi` never does, until the midpoint rounds onto an endpoint.
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            match probe(mid)? {
                Some(true) => lo = mid,
                _ => hi = mid,
            }
        }
        self.dimensioned(base, lo)
    }

    /// The dimensioning answer at the load `rho_max`, with its RTT
    /// quantile from the whole-cell memo or an exact solve.
    fn dimensioned(&self, base: &Scenario, rho_max: f64) -> Result<DimensioningResult, QueueError> {
        let s = base.clone().with_load(rho_max);
        let key = self.family(base).map(|f| ScenarioKey::of(f, &s));
        let cached = key.as_ref().and_then(|key| self.cache.rtt.get(key));
        let rtt = match cached {
            Some(v) => {
                self.cache.rtt_hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                let v = match self.build_model(&s) {
                    Ok(m) => m.rtt_quantile_ms(),
                    Err(QueueError::UnstableLoad { .. }) => {
                        return Err(QueueError::SolveFailure {
                            what: "dimensioning: bisection converged onto an infeasible load",
                        })
                    }
                    Err(e) => return Err(e),
                };
                if let Some(key) = key {
                    self.cache.rtt_misses.fetch_add(1, Ordering::Relaxed);
                    self.cache.rtt.get_or_insert(key, v);
                }
                v
            }
        };
        Ok(DimensioningResult {
            rho_max,
            n_max: s.gamer_count().floor() as u32,
            rtt_at_max_ms: Some(rtt),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::paper_load_grid;

    #[test]
    fn chunk_ranges_partition_exactly() {
        for (len, parts) in [(18usize, 4usize), (18, 1), (18, 40), (1, 3), (0, 2)] {
            let runs = chunk_ranges(len, parts);
            let flattened: Vec<usize> = runs.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(
                flattened,
                (0..len).collect::<Vec<_>>(),
                "len={len} parts={parts}"
            );
        }
    }

    #[test]
    fn cached_model_equals_fresh_model() {
        let engine = Engine::new(EngineConfig::default());
        for &(k, rho) in &[(2u32, 0.15), (9, 0.4), (20, 0.85)] {
            let s = Scenario::paper_default()
                .with_load(rho)
                .with_erlang_order(k);
            // Twice through the engine and once cold.
            let a = engine.build_model(&s).unwrap().rtt_quantile_ms();
            let b = engine.build_model(&s).unwrap().rtt_quantile_ms();
            let cold = RttModel::build(&s).unwrap().rtt_quantile_ms();
            assert_eq!(
                a.to_bits(),
                cold.to_bits(),
                "K={k} rho={rho} cached != cold"
            );
            assert_eq!(a.to_bits(), b.to_bits(), "K={k} rho={rho} re-read != first");
        }
    }

    #[test]
    fn engine_sweep_matches_serial_sweep_bitwise() {
        // `bit_exact()` turns the fast search off; everything else (cache,
        // bracket warm starts, threads) must still be bit-transparent.
        let base = Scenario::paper_default();
        let loads = paper_load_grid();
        let serial = Engine::serial().rtt_vs_load(&base, &loads);
        for jobs in [1usize, 4] {
            let engine = Engine::new(EngineConfig {
                jobs,
                ..EngineConfig::bit_exact()
            });
            let fast = engine.rtt_vs_load(&base, &loads);
            assert_eq!(fast.len(), serial.len());
            for (f, s) in fast.iter().zip(&serial) {
                assert_eq!(
                    f.rtt_ms.map(f64::to_bits),
                    s.rtt_ms.map(f64::to_bits),
                    "rho={}",
                    s.rho_d
                );
            }
        }
    }

    #[test]
    fn batch_sweep_matches_serial_within_documented_tolerance() {
        // The default (batch) config trades bit-parity for the documented
        // BATCH_RTT_TOLERANCE_MS bound on its quantile search.
        let base = Scenario::paper_default();
        let loads = paper_load_grid();
        let serial = Engine::serial().rtt_vs_load(&base, &loads);
        for jobs in [1usize, 4] {
            let engine = Engine::new(EngineConfig::with_jobs(jobs));
            let fast = engine.rtt_vs_load(&base, &loads);
            assert_eq!(fast.len(), serial.len());
            for (f, s) in fast.iter().zip(&serial) {
                let (f, s) = (f.rtt_ms.unwrap(), s.rtt_ms.unwrap());
                assert!(
                    (f - s).abs() <= BATCH_RTT_TOLERANCE_MS,
                    "jobs={jobs}: batch {f} vs serial {s}"
                );
            }
        }
    }

    #[test]
    fn batch_sweep_is_independent_of_worker_count() {
        // Hint runs are fixed blocks of the load axis, so the
        // exact bits of a batch sweep must not depend on `jobs`.
        let base = Scenario::paper_default();
        let loads = paper_load_grid();
        let reference = Engine::new(EngineConfig::with_jobs(1)).rtt_vs_load(&base, &loads);
        for jobs in [2usize, 3, 8] {
            let other = Engine::new(EngineConfig::with_jobs(jobs)).rtt_vs_load(&base, &loads);
            for (a, b) in reference.iter().zip(&other) {
                assert_eq!(
                    a.rtt_ms.map(f64::to_bits),
                    b.rtt_ms.map(f64::to_bits),
                    "jobs={jobs} rho={}",
                    a.rho_d
                );
            }
        }
    }

    #[test]
    fn engine_surface_handles_infeasible_cells_like_serial() {
        // P_S = 75 < P_C: high loads saturate the uplink → None cells.
        let base = Scenario::paper_default().with_server_packet(75.0);
        let ks = [2u32, 9];
        let loads = [0.5, 0.9, 0.95];
        let serial = Engine::serial().rtt_surface(&base, &ks, &loads);
        // Bit-exact config: cell-for-cell identity, including None cells.
        let engine = Engine::new(EngineConfig {
            jobs: 3,
            ..EngineConfig::bit_exact()
        });
        let fast = engine.rtt_surface(&base, &ks, &loads);
        assert_eq!(fast.len(), serial.len());
        for (fr, sr) in fast.iter().zip(&serial) {
            for (f, s) in fr.iter().zip(sr) {
                assert_eq!(f.map(f64::to_bits), s.map(f64::to_bits));
            }
        }
        assert!(fast[2][0].is_none(), "rho=0.95 saturates the P_S=75 uplink");
        assert!(fast[0][0].is_some());
        // Batch config: the same feasibility pattern (the fast search must
        // not turn an infeasible cell feasible or vice versa), values
        // within the documented tolerance.
        let batch = Engine::new(EngineConfig::with_jobs(3)).rtt_surface(&base, &ks, &loads);
        for (br, sr) in batch.iter().zip(&serial) {
            for (b, s) in br.iter().zip(sr) {
                match (b, s) {
                    (Some(b), Some(s)) => {
                        assert!((b - s).abs() <= BATCH_RTT_TOLERANCE_MS, "{b} vs {s}")
                    }
                    (None, None) => {}
                    other => panic!("feasibility mismatch: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn engine_max_load_matches_paper_example() {
        let engine = Engine::new(EngineConfig::default());
        let r = engine.max_load(&Scenario::paper_default(), 50.0).unwrap();
        assert!((0.30..0.55).contains(&r.rho_max), "rho_max {}", r.rho_max);
        let rtt = r.rtt_at_max_ms.expect("feasible optimum reports its RTT");
        assert!(rtt <= 50.0 + 0.1);
    }

    #[test]
    fn engine_max_load_rejects_bad_budget() {
        let engine = Engine::serial();
        assert!(matches!(
            engine.max_load(&Scenario::paper_default(), 0.0),
            Err(QueueError::InvalidParameter { .. })
        ));
        assert!(matches!(
            engine.max_load(&Scenario::paper_default(), f64::NAN),
            Err(QueueError::InvalidParameter { .. })
        ));
    }
}
