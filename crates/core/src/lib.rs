//! # fpsping
//!
//! A library implementation of *"Modeling Ping times in First Person
//! Shooter games"* (N. Degrande, D. De Vleeschauwer, R.E. Kooij,
//! M.R.H. Mandjes; CWI report PNA-R0608 / CoNEXT 2006).
//!
//! Given a DSL-style access network — per-gamer access links into an
//! aggregation node, a bottleneck link of capacity `C` to the game server
//! — and an FPS traffic model (client packets of `P_C` bytes every `T` ms
//! upstream; server bursts of one `P_S`-byte packet per gamer every `T` ms
//! downstream, burst sizes Erlang of order `K`), the library answers:
//!
//! * **What ping will gamers see?** [`RttModel`] computes any quantile of
//!   the round-trip time: upstream M/G/1 queueing (§3.1), downstream
//!   D/E_K/1 burst queueing plus within-burst position delay (§3.2),
//!   combined through the Erlang-mix product of eq. (35), plus the
//!   deterministic serialization delays.
//! * **How many gamers fit?** [`dimensioning`] inverts the model under an
//!   RTT budget: the maximum tolerable load `ρ_max` and the corresponding
//!   gamer count `N_max = ρ_max·T·C/(8·P_S)` (eq. 37) — reproducing the
//!   paper's headline finding that tolerable loads are "surprisingly low"
//!   (≈20 % for K = 2, ≈40 % for K = 9, ≈60 % for K = 20 at a 50 ms
//!   budget).
//! * **How fast?** [`engine::Engine`] evaluates grid workloads (load
//!   sweeps, K × load surfaces, dimensioning bisections) in parallel
//!   with memoized solver state and warm-started quantile brackets —
//!   bit-identical to the serial reference path, several times faster.
//!
//! # Quickstart
//!
//! ```
//! use fpsping::{Scenario, RttModel};
//!
//! // The paper's reference scenario: P_S = 125 B, T = 40 ms, K = 9,
//! // C = 5 Mbps, at 40% downlink load.
//! let scenario = Scenario::paper_default()
//!     .with_load(0.40)
//!     .with_erlang_order(9);
//! let model = RttModel::build(&scenario).unwrap();
//! let rtt_ms = model.rtt_quantile_ms();
//! assert!(rtt_ms > 20.0 && rtt_ms < 80.0); // ≈50 ms in the paper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod dimensioning;
pub mod engine;
pub mod rtt;
pub mod scenario;
pub mod sweep;

pub use cache::SharedCache;
pub use dimensioning::{max_gamers, max_load, DimensioningResult};
pub use engine::{CacheStats, Engine, EngineConfig, SolverCache};
pub use rtt::{RttBreakdown, RttModel};
pub use scenario::{Gamers, Scenario, MAX_ERLANG_ORDER};
pub use sweep::LoadPoint;

/// Errors from model construction.
pub use fpsping_queue::QueueError;
