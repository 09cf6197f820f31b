//! # fpsping-sim
//!
//! A packet-level discrete-event simulator of the access-network
//! architecture the paper analyzes (Figure 2):
//!
//! ```text
//!  client 1 ──Rup──┐                         ┌──Rdown── client 1
//!  client 2 ──Rup──┤                         ├──Rdown── client 2
//!     ⋮            ├─[agg node]──C──[server]─┤             ⋮
//!  client N ──Rup──┘          (bottleneck)   └──Rdown── client N
//! ```
//!
//! Upstream, each client's periodic packets meet the other clients' at the
//! aggregation node and queue for the bottleneck link `C` — the N·D/D/1 →
//! M/G/1 system of §3.1. Downstream, the server's per-tick bursts queue on
//! `C` toward the fan-out point — the D/E_K/1 system of §3.2 — and packets
//! deeper in a burst additionally wait for the packets ahead of them
//! (§3.2.2).
//!
//! The simulator is the reproduction's *measurement substrate*: the paper
//! validated nothing in a testbed we could rerun, so every analytic claim
//! (quantiles, K-sensitivity, load limits) is checked against this
//! independent packet-level implementation instead.
//!
//! Modules:
//!
//! * [`time`] — integer-nanosecond virtual time (no float drift in the
//!   event clock),
//! * [`calendar`] — the pending-event set: an O(1)-amortized bucket
//!   ring that pops in `(time, seq)` order, ties included,
//! * [`packet`] — packets and traffic classes,
//! * [`scheduler`] — FIFO, non-preemptive HoL priority, and WFQ service
//!   disciplines (the Section-1 discussion),
//! * [`link`] — a store-and-forward output link with one of those
//!   disciplines,
//! * [`probe`] — delay probes: streaming moments, bounded sample
//!   reservoirs, threshold exceedance counters,
//! * [`network`] — the Figure-2 topology: configuration, event loop, and
//!   the [`network::SimReport`] of measured delays,
//! * [`rng`] — batched RNG draws with a sequence-exactness guarantee,
//! * [`engine`] — the replicated-simulation engine: R independent
//!   replications across threads, deterministic per-replication seeds,
//!   merged estimates with 95% confidence intervals,
//! * [`scale`] — the sharded scale engine: N = 10⁵–10⁶ players across
//!   per-DSLAM subtrees feeding a core link, deterministic across shard
//!   counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod engine;
pub mod link;
pub mod network;
pub mod packet;
pub mod probe;
pub mod rng;
pub mod scale;
pub mod scheduler;
pub mod time;

pub use calendar::{Calendar, CalendarKind, CalendarStats};
pub use engine::{MergedProbe, ReplicatedReport, SimEngine, SimEngineConfig};
pub use network::{BurstSizing, NetworkConfig, SimReport};
pub use packet::{Packet, TrafficClass};
pub use scale::{ScaleConfig, ScaleEngine, ScaleReport};
pub use time::SimTime;
