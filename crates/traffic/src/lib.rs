//! # fpsping-traffic
//!
//! FPS traffic source models and trace analysis for the reproduction of
//! *"Modeling Ping times in First Person Shooter games"* (Degrande et al.,
//! CWI PNA-R0608, 2006), Section 2.
//!
//! The paper's traffic world has two sides:
//!
//! * **Client → server** ("upstream"): each client sends small,
//!   nearly-constant-size packets at nearly deterministic intervals.
//! * **Server → clients** ("downstream"): at (nearly) fixed intervals `T`
//!   the server emits a *burst* of back-to-back packets, one per active
//!   client; the burst size is highly variable.
//!
//! Modules:
//!
//! * [`model`] — the [`model::ClientModel`] / [`model::ServerModel`] /
//!   [`model::GameModel`] types: distributions for packet sizes and
//!   inter-arrival times plus per-burst structure.
//! * [`games`] — published parameterizations: Färber's Counter-Strike
//!   (Table 1), Lang et al.'s Half-Life (Table 2), Halo and Quake3 (§2.1),
//!   and the paper's own Unreal Tournament 2003 measurements (Table 3).
//! * [`trace`] — packet records, traces, direction/flow bookkeeping.
//! * [`analysis`] — burst detection and the mean/CoV estimators that
//!   produce Table 3 from a raw trace.
//! * [`synthetic`] — the synthetic LAN-party generator used as a
//!   substitute for the proprietary UT2003 trace: it reproduces the
//!   Table-3 statistics (and the §2.2 anomalies) by construction, so
//!   Figure 1 and the Erlang-order fits exercise the same pipeline the
//!   authors ran on the real capture.
//! * [`estimator`] — the client's-eye view: online per-player RTT
//!   tracking (RFC-6298 EWMA, sequence-matched pings over a fixed ring,
//!   a P² p99 per player, one pooled tail histogram per bank) that the
//!   simulator feeds at line rate, converging to the analytic quantile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod estimator;
pub mod games;
pub mod io;
pub mod model;
pub mod synthetic;
pub mod trace;

pub use analysis::{detect_bursts, TraceStats};
pub use estimator::{EstimatorBank, EstimatorCounters, EstimatorSummary, RttEstimator};
pub use io::{read_trace, trace_from_csv, trace_to_csv, write_trace};
pub use model::{ClientModel, GameModel, ServerModel};
pub use synthetic::{LanPartyConfig, LanPartyTrace};
pub use trace::{Direction, PacketRecord, Trace};
