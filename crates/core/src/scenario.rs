//! Scenario description: the network and traffic parameters of §4.

use fpsping_dist::Deterministic;
use fpsping_queue::QueueError;
use fpsping_sim::{BurstSizing, NetworkConfig};

/// The largest Erlang order `K` a scenario may carry.
///
/// Solving the D/E_K/1 branch roots costs O(K²), so an unbounded K lets
/// one query stall a worker for as long as it likes (K = `u32::MAX`
/// would never finish). Past K ≈ 150 the double-precision root solve also
/// stops being trustworthy: the RTT quantile, which must fall as K grows
/// (burst sizes concentrate), starts rising again, first at ρ_d = 0.2
/// from K = 149 and at K = 236–260 at the other loads tested. 128 keeps
/// every order the paper and its measured games use (2–20) with a wide
/// margin below both failure modes.
pub const MAX_ERLANG_ORDER: u32 = 128;

/// How the gamer population is specified: directly, or through the
/// downlink load it induces (the paper sweeps load and converts to `N`
/// via eq. 37).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gamers {
    /// An explicit number of simultaneously active gamers.
    Count(u32),
    /// The downlink load `ρ_d = 8·N·P_S/(T·C)`; `N` is derived (and may be
    /// fractional for analytic sweeps).
    DownlinkLoad(f64),
}

/// A complete evaluation scenario (defaults = the paper's §4 setting).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Gamer population (count or downlink load).
    pub gamers: Gamers,
    /// Server tick interval / client send interval `T` in ms (40 or 60 in
    /// the paper).
    pub t_ms: f64,
    /// Server per-gamer packet size `P_S` in bytes (75/100/125 in §4).
    pub server_packet_bytes: f64,
    /// Client packet size `P_C` in bytes (80 in §4).
    pub client_packet_bytes: f64,
    /// Erlang order `K` of the burst-size distribution (2/9/20 in §4).
    pub erlang_order: u32,
    /// Access uplink rate (bit/s) — 128 kbps in §4.
    pub r_up_bps: f64,
    /// Access downlink rate (bit/s) — 1024 kbps in §4.
    pub r_down_bps: f64,
    /// Aggregation (bottleneck) link rate (bit/s) — 5000 kbps in §4.
    pub c_bps: f64,
    /// Client send interval in ms when it differs from the server tick
    /// `T` (the paper's §4 assumes they are equal, but the measured games
    /// of §2 mostly disagree — e.g. UT2003 clients send every 30 ms
    /// against a 47 ms server tick). `None` means "equal to `t_ms`".
    pub client_interval_ms: Option<f64>,
    /// The RTT quantile to report — 0.99999 in the paper.
    pub quantile: f64,
    /// Include the upstream M/G/1 contribution (the paper notes it is
    /// negligible when `ρ_u ≪ ρ_d` but never drops it from the method).
    pub include_upstream: bool,
    /// Extra fixed delay (ms) for propagation + server processing, which
    /// the paper folds into the deterministic part (0 in §4's numbers);
    /// finite and non-negative.
    pub extra_fixed_ms: f64,
}

impl Scenario {
    /// The paper's §4 reference parameters: `P_S = 125 B`, `P_C = 80 B`,
    /// `T = 40 ms`, `K = 9`, `R_up = 128 kbps`, `R_down = 1024 kbps`,
    /// `C = 5000 kbps`, 99.999 % quantile, at 40 % downlink load.
    pub fn paper_default() -> Self {
        Self {
            gamers: Gamers::DownlinkLoad(0.40),
            t_ms: 40.0,
            server_packet_bytes: 125.0,
            client_packet_bytes: 80.0,
            erlang_order: 9,
            r_up_bps: 128_000.0,
            r_down_bps: 1_024_000.0,
            c_bps: 5_000_000.0,
            client_interval_ms: None,
            quantile: 0.99999,
            include_upstream: true,
            extra_fixed_ms: 0.0,
        }
    }

    /// Builder-style: set the downlink load.
    pub fn with_load(mut self, rho_d: f64) -> Self {
        self.gamers = Gamers::DownlinkLoad(rho_d);
        self
    }

    /// Builder-style: set the gamer count.
    pub fn with_gamers(mut self, n: u32) -> Self {
        self.gamers = Gamers::Count(n);
        self
    }

    /// Builder-style: set the Erlang order K.
    pub fn with_erlang_order(mut self, k: u32) -> Self {
        self.erlang_order = k;
        self
    }

    /// Builder-style: set the tick interval T (ms).
    pub fn with_tick_ms(mut self, t_ms: f64) -> Self {
        self.t_ms = t_ms;
        self
    }

    /// Builder-style: set the server packet size P_S (bytes).
    pub fn with_server_packet(mut self, bytes: f64) -> Self {
        self.server_packet_bytes = bytes;
        self
    }

    /// Builder-style: set a client send interval different from the
    /// server tick.
    pub fn with_client_interval_ms(mut self, t_c_ms: f64) -> Self {
        self.client_interval_ms = Some(t_c_ms);
        self
    }

    /// The effective client send interval (ms): `client_interval_ms` or
    /// the server tick.
    pub fn effective_client_interval_ms(&self) -> f64 {
        self.client_interval_ms.unwrap_or(self.t_ms)
    }

    /// Downlink load `ρ_d` (eq. 37). For `Gamers::Count` this is
    /// `8·N·P_S/(T·C)` with T in seconds.
    pub fn downlink_load(&self) -> f64 {
        match self.gamers {
            Gamers::DownlinkLoad(r) => r,
            Gamers::Count(n) => {
                8.0 * n as f64 * self.server_packet_bytes / (self.t_ms / 1e3 * self.c_bps)
            }
        }
    }

    /// The (possibly fractional) gamer count `N = ρ_d·T·C/(8·P_S)`.
    pub fn gamer_count(&self) -> f64 {
        match self.gamers {
            Gamers::Count(n) => n as f64,
            Gamers::DownlinkLoad(r) => {
                r * (self.t_ms / 1e3) * self.c_bps / (8.0 * self.server_packet_bytes)
            }
        }
    }

    /// Uplink load `ρ_u = 8·N·P_C/(T_c·C)`; equals `ρ_d·P_C/P_S` when the
    /// client interval matches the tick (the paper's §4 assumption).
    pub fn uplink_load(&self) -> f64 {
        8.0 * self.gamer_count() * self.client_packet_bytes
            / (self.effective_client_interval_ms() / 1e3 * self.c_bps)
    }

    /// Mean burst service time `b̄ = 8·N·P_S/C = ρ_d·T` (seconds).
    pub fn mean_burst_service_s(&self) -> f64 {
        self.downlink_load() * self.t_ms / 1e3
    }

    /// Deterministic (serialization) part of the RTT in seconds:
    /// client packet on the access uplink and on the bottleneck, server
    /// packet on the bottleneck and on the access downlink (§4), plus any
    /// configured fixed extra.
    pub fn deterministic_delay_s(&self) -> f64 {
        let up = 8.0 * self.client_packet_bytes * (1.0 / self.r_up_bps + 1.0 / self.c_bps);
        let down = 8.0 * self.server_packet_bytes * (1.0 / self.c_bps + 1.0 / self.r_down_bps);
        up + down + self.extra_fixed_ms / 1e3
    }

    /// Validates parameter sanity and stability of both directions.
    pub fn validate(&self) -> Result<(), QueueError> {
        for (name, v) in [
            ("t_ms", self.t_ms),
            ("server_packet_bytes", self.server_packet_bytes),
            ("client_packet_bytes", self.client_packet_bytes),
            ("r_up_bps", self.r_up_bps),
            ("r_down_bps", self.r_down_bps),
            ("c_bps", self.c_bps),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(QueueError::InvalidParameter { name, value: v });
            }
        }
        if !(1..=MAX_ERLANG_ORDER).contains(&self.erlang_order) {
            return Err(QueueError::InvalidParameter {
                name: "erlang_order",
                value: self.erlang_order as f64,
            });
        }
        if !(self.quantile > 0.0 && self.quantile < 1.0) {
            return Err(QueueError::InvalidParameter {
                name: "quantile",
                value: self.quantile,
            });
        }
        let rho_d = self.downlink_load();
        if !(0.0 < rho_d && rho_d < 1.0) {
            return Err(QueueError::UnstableLoad { rho: rho_d });
        }
        let rho_u = self.uplink_load();
        if self.include_upstream && rho_u >= 1.0 {
            return Err(QueueError::UnstableLoad { rho: rho_u });
        }
        if let Some(tc) = self.client_interval_ms {
            if !(tc.is_finite() && tc > 0.0) {
                return Err(QueueError::InvalidParameter {
                    name: "client_interval_ms",
                    value: tc,
                });
            }
        }
        if !(self.extra_fixed_ms.is_finite() && self.extra_fixed_ms >= 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "extra_fixed_ms",
                value: self.extra_fixed_ms,
            });
        }
        // Each access link must at least carry its own flow.
        let up_access = 8.0 * self.client_packet_bytes
            / (self.effective_client_interval_ms() / 1e3)
            / self.r_up_bps;
        if up_access >= 1.0 {
            return Err(QueueError::UnstableLoad { rho: up_access });
        }
        let down_access = 8.0 * self.server_packet_bytes / (self.t_ms / 1e3) / self.r_down_bps;
        if down_access >= 1.0 {
            return Err(QueueError::UnstableLoad { rho: down_access });
        }
        Ok(())
    }

    /// The packet-level network that simulates this scenario: N = the
    /// rounded gamer count, this scenario's P_C, client interval, P_S,
    /// R_up, R_down, C and T, burst sizes Erlang of order K
    /// ([`BurstSizing::ErlangBurst`]), and
    /// [`NetworkConfig::paper_scenario`]'s defaults for everything else.
    /// The caller sets `duration`, `warmup`, `seed` and `estimate`.
    ///
    /// A network holds a whole number of gamers, so the scenario it
    /// simulates is `self.clone().with_gamers(round(N))`. Both this
    /// scenario and that one must [`Scenario::validate`]. A gamer count
    /// that rounds to 0 is refused as an invalid `gamers` parameter
    /// carrying the unrounded count, and a rounding that pushes either
    /// direction to load 1 or more as an unstable load.
    pub fn network_config(&self) -> Result<NetworkConfig, QueueError> {
        self.validate()?;
        let gamers = self.gamer_count();
        let n = gamers.round() as u32;
        if n == 0 {
            return Err(QueueError::InvalidParameter {
                name: "gamers",
                value: gamers,
            });
        }
        self.clone().with_gamers(n).validate()?;
        let mut cfg = NetworkConfig::paper_scenario(
            n as usize,
            Box::new(Deterministic::new(self.server_packet_bytes)),
            self.t_ms,
            0,
        );
        cfg.client_packet_bytes = Box::new(Deterministic::new(self.client_packet_bytes));
        cfg.client_interval_ms = Box::new(Deterministic::new(self.effective_client_interval_ms()));
        cfg.r_up_bps = self.r_up_bps;
        cfg.r_down_bps = self.r_down_bps;
        cfg.c_bps = self.c_bps;
        cfg.burst_sizing = BurstSizing::ErlangBurst {
            k: self.erlang_order,
        };
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq37_round_trip() {
        // §4 example: ρ = 0.4, P_S = 125, T = 40 ms, C = 5 Mbps → N = 80.
        let s = Scenario::paper_default().with_load(0.40);
        assert!((s.gamer_count() - 80.0).abs() < 1e-9);
        let s2 = Scenario::paper_default().with_gamers(80);
        assert!((s2.downlink_load() - 0.40).abs() < 1e-12);
    }

    #[test]
    fn uplink_load_ratio() {
        // ρ_u = ρ_d·P_C/P_S = 0.4·80/125 = 0.256.
        let s = Scenario::paper_default().with_load(0.40);
        assert!((s.uplink_load() - 0.256).abs() < 1e-12);
    }

    #[test]
    fn ps75_saturates_uplink_before_downlink() {
        // §4: for P_S = 75 B a downlink load of 75/80 gives uplink load 1.
        let s = Scenario::paper_default()
            .with_server_packet(75.0)
            .with_load(75.0 / 80.0);
        assert!((s.uplink_load() - 1.0).abs() < 1e-12);
        assert!(s.validate().is_err());
        let ok = Scenario::paper_default()
            .with_server_packet(75.0)
            .with_load(0.9);
        assert!((ok.uplink_load() - 0.96).abs() < 1e-12);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn deterministic_delay_value() {
        // 80·8/128k + 80·8/5M + 125·8/5M + 125·8/1.024M
        // = 5 ms + 0.128 ms + 0.2 ms + 0.9766 ms ≈ 6.30 ms.
        let s = Scenario::paper_default();
        let d = s.deterministic_delay_s() * 1e3;
        assert!((d - 6.3046).abs() < 0.01, "deterministic {d} ms");
    }

    #[test]
    fn burst_service_is_rho_t() {
        let s = Scenario::paper_default().with_load(0.5).with_tick_ms(60.0);
        assert!((s.mean_burst_service_s() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(Scenario::paper_default().with_load(1.2).validate().is_err());
        assert!(Scenario::paper_default().with_load(0.0).validate().is_err());
        let mut s = Scenario::paper_default();
        s.t_ms = -1.0;
        assert!(s.validate().is_err());
        let mut s = Scenario::paper_default();
        s.erlang_order = 0;
        assert!(s.validate().is_err());
        s.erlang_order = MAX_ERLANG_ORDER;
        assert!(s.validate().is_ok());
        s.erlang_order = MAX_ERLANG_ORDER + 1;
        assert!(matches!(
            s.validate(),
            Err(QueueError::InvalidParameter {
                name: "erlang_order",
                ..
            })
        ));
        let mut s = Scenario::paper_default();
        s.quantile = 1.0;
        assert!(s.validate().is_err());
        // Access uplink overloaded: huge client packets.
        let mut s = Scenario::paper_default();
        s.client_packet_bytes = 2_000.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_refuses_a_fixed_delay_that_is_not_a_delay() {
        // A NaN or infinite extra would make the RTT NaN or infinite, and
        // a negative one would shorten it below the serialization floor.
        for extra in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let s = Scenario {
                extra_fixed_ms: extra,
                ..Scenario::paper_default()
            };
            assert!(
                matches!(
                    s.validate(),
                    Err(QueueError::InvalidParameter {
                        name: "extra_fixed_ms",
                        ..
                    })
                ),
                "extra_fixed_ms = {extra}"
            );
            assert!(crate::engine::Engine::default()
                .rtt_batch(&[s])
                .iter()
                .all(Option::is_none));
        }
        let s = Scenario {
            extra_fixed_ms: 20.0,
            ..Scenario::paper_default()
        };
        assert!(s.validate().is_ok());
    }

    #[test]
    fn distinct_client_interval_changes_uplink_only() {
        // UT2003-like: 47 ms tick, clients sending every 30 ms.
        let s = Scenario::paper_default()
            .with_tick_ms(47.0)
            .with_load(0.4)
            .with_client_interval_ms(30.0);
        assert_eq!(s.effective_client_interval_ms(), 30.0);
        // Faster clients → more upstream packets → higher ρ_u than the
        // equal-interval case.
        let equal = Scenario::paper_default().with_tick_ms(47.0).with_load(0.4);
        assert!(s.uplink_load() > equal.uplink_load());
        // Downlink load is untouched.
        assert!((s.downlink_load() - equal.downlink_load()).abs() < 1e-15);
        assert!(s.validate().is_ok());
        let mut bad = s.clone();
        bad.client_interval_ms = Some(-3.0);
        assert!(bad.validate().is_err());
    }

    /// A scenario that differs from the paper's in every field the
    /// bridge maps: P_C, client interval, R_up, C, K and a gamer count.
    fn non_default() -> Scenario {
        let mut s = Scenario::paper_default()
            .with_gamers(40)
            .with_erlang_order(5)
            .with_client_interval_ms(50.0);
        s.client_packet_bytes = 60.0;
        s.r_up_bps = 256_000.0;
        s.c_bps = 10_000_000.0;
        s
    }

    #[test]
    fn network_config_maps_every_field() {
        use fpsping_sim::scheduler::Discipline;
        use fpsping_sim::{Calendar, SimTime};
        let cfg = non_default().network_config().unwrap();
        assert_eq!(cfg.n_clients, 40);
        assert_eq!(cfg.client_packet_bytes.mean(), 60.0);
        assert_eq!(cfg.client_interval_ms.mean(), 50.0);
        assert_eq!(cfg.server_packet_bytes.mean(), 125.0);
        assert_eq!(cfg.r_up_bps, 256_000.0);
        assert_eq!(cfg.r_down_bps, 1_024_000.0);
        assert_eq!(cfg.c_bps, 10_000_000.0);
        assert_eq!(cfg.tick_ms, 40.0);
        assert!(matches!(
            cfg.burst_sizing,
            BurstSizing::ErlangBurst { k: 5 }
        ));
        // Everything else is `paper_scenario`'s default.
        assert_eq!(cfg.discipline, Discipline::Fifo);
        assert!(cfg.background.is_none());
        assert_eq!(cfg.duration, SimTime::from_secs(60.0));
        assert_eq!(cfg.warmup, SimTime::from_secs(2.0));
        assert_eq!(cfg.seed, 0);
        assert!(!cfg.stream_quantiles && !cfg.estimate && !cfg.capture_trace);
        assert_eq!(cfg.tail_thresholds_s, [0.010, 0.025, 0.050, 0.100, 0.200]);
        assert!(cfg.client_overrides.is_none());
        assert!(cfg.downlink_jitter_ms.is_none());
        assert_eq!(cfg.calendar, Calendar::Bucket);
    }

    #[test]
    fn network_config_simulates_what_the_hand_mapping_did() {
        use fpsping_sim::SimTime;
        // The mapping the CLI wrote out by hand before the bridge existed.
        let oracle = |s: &Scenario| {
            let mut cfg = NetworkConfig::paper_scenario(
                s.gamer_count().round().max(1.0) as usize,
                Box::new(Deterministic::new(s.server_packet_bytes)),
                s.t_ms,
                0,
            );
            cfg.client_packet_bytes = Box::new(Deterministic::new(s.client_packet_bytes));
            cfg.client_interval_ms = Box::new(Deterministic::new(s.effective_client_interval_ms()));
            cfg.r_up_bps = s.r_up_bps;
            cfg.r_down_bps = s.r_down_bps;
            cfg.c_bps = s.c_bps;
            cfg.burst_sizing = BurstSizing::ErlangBurst { k: s.erlang_order };
            cfg
        };
        for s in [non_default(), Scenario::paper_default().with_load(0.5)] {
            let run = |mut cfg: NetworkConfig| {
                cfg.duration = SimTime::from_secs(3.0);
                cfg.warmup = SimTime::from_secs(0.5);
                cfg.seed = 0xB21D;
                format!("{:?}", cfg.run())
            };
            assert_eq!(run(s.network_config().unwrap()), run(oracle(&s)));
        }
    }

    #[test]
    fn network_config_refuses_what_it_cannot_simulate() {
        let nan_load = Scenario::paper_default().with_load(f64::NAN);
        assert!(matches!(
            nan_load.network_config(),
            Err(QueueError::UnstableLoad { rho }) if rho.is_nan()
        ));
        let mut nan_c = Scenario::paper_default();
        nan_c.c_bps = f64::NAN;
        assert!(matches!(
            nan_c.network_config(),
            Err(QueueError::InvalidParameter { name: "c_bps", value }) if value.is_nan()
        ));
        // 10 kb/s at ρ_d = 0.4 is 0.16 gamers: it validates, but the
        // network it rounds to has none, and the refusal names the count.
        let mut none = Scenario::paper_default().with_load(0.4);
        none.c_bps = 10_000.0;
        assert!(none.validate().is_ok());
        assert!(matches!(
            none.network_config().unwrap_err(),
            QueueError::InvalidParameter { name: "gamers", value } if (value - 0.16).abs() < 1e-12
        ));
        // ρ_d = 0.998 is 199.6 gamers, and 200 load the downlink fully.
        let full = Scenario::paper_default().with_load(0.998);
        assert!(full.validate().is_ok());
        assert_eq!(
            full.network_config().unwrap_err(),
            QueueError::UnstableLoad { rho: 1.0 }
        );
    }

    #[test]
    fn builders_compose() {
        let s = Scenario::paper_default()
            .with_tick_ms(60.0)
            .with_erlang_order(20)
            .with_server_packet(100.0)
            .with_load(0.3);
        assert_eq!(s.t_ms, 60.0);
        assert_eq!(s.erlang_order, 20);
        assert_eq!(s.server_packet_bytes, 100.0);
        assert!((s.downlink_load() - 0.3).abs() < 1e-15);
    }
}
