//! Published per-game traffic parameterizations (§2.1 and §2.2).
//!
//! Each constructor returns a [`GameModel`] with the distributions the
//! cited study fitted; the `repro table1`/`table2` studies sample these
//! models and re-estimate the statistics the paper tabulates.

use crate::model::{ClientModel, GameModel, ServerModel};
use fpsping_dist::{Deterministic, Distribution, Extreme, LogNormal, Mixture, Normal};

/// Counter-Strike, after Färber \[11\] (Table 1):
///
/// | direction | quantity | measured (mean/CoV) | fitted |
/// |---|---|---|---|
/// | server→client | packet size | 127 B / 0.74 | `Ext(120, 36)` |
/// | server→client | burst IAT | 62 ms / 0.5 | `Ext(55, 6)` |
/// | client→server | packet size | 82 B / 0.12 | `Ext(80, 5.7)` |
/// | client→server | IAT | 42 ms / 0.24 | `Det(40)` |
/// # Examples
///
/// ```
/// use fpsping_traffic::games::counter_strike;
/// let cs = counter_strike();
/// assert_eq!(cs.client.mean_inter_arrival_ms(), 40.0); // Det(40)
/// ```
pub fn counter_strike() -> GameModel {
    GameModel {
        name: "Counter-Strike",
        source: "Färber, NetGames 2002 (paper Table 1)",
        client: ClientModel {
            packet_size: Box::new(Extreme::new(80.0, 5.7)),
            inter_arrival_ms: Box::new(Deterministic::new(40.0)),
        },
        server: ServerModel {
            packet_size: Box::new(Extreme::new(120.0, 36.0)),
            burst_inter_arrival_ms: Box::new(Extreme::new(55.0, 6.0)),
        },
    }
}

/// The measured (not fitted) Counter-Strike statistics of Table 1, as
/// `(mean, cov)` pairs — used by the `repro table1` study for
/// side-by-side printing.
pub mod counter_strike_measured {
    /// Server→client packet size (bytes).
    pub const SERVER_PACKET: (f64, f64) = (127.0, 0.74);
    /// Server→client burst inter-arrival time (ms).
    pub const BURST_IAT: (f64, f64) = (62.0, 0.5);
    /// Client→server packet size (bytes).
    pub const CLIENT_PACKET: (f64, f64) = (82.0, 0.12);
    /// Client→server inter-arrival time (ms).
    pub const CLIENT_IAT: (f64, f64) = (42.0, 0.24);
}

/// Half-Life, after Lang et al. \[16\] (Table 2): deterministic clocks
/// (`Det(60)` downstream bursts, `Det(41)` upstream), lognormal
/// (map-dependent) server packet sizes, (log-)normal client sizes in
/// 60–90 B.
///
/// The study reports map-dependent server sizes without a single
/// universal parameter; we instantiate a representative map with mean
/// 120 B / CoV 0.4, and client sizes normal with mean 75 B spanning the
/// reported 60–90 B range (±2σ).
pub fn half_life() -> GameModel {
    GameModel {
        name: "Half-Life",
        source: "Lang/Armitage/Branch/Choo, ATNAC 2003 (paper Table 2)",
        client: ClientModel {
            packet_size: Box::new(Normal::new(75.0, 7.5)),
            inter_arrival_ms: Box::new(Deterministic::new(41.0)),
        },
        server: ServerModel {
            packet_size: Box::new(LogNormal::from_mean_cov(120.0, 0.4)),
            burst_inter_arrival_ms: Box::new(Deterministic::new(60.0)),
        },
    }
}

/// Halo (Xbox System Link), after Lang & Armitage \[17\] (§2.1):
/// deterministic 40 ms server bursts with player-count-dependent fixed
/// sizes; client traffic a two-class mixture — 33 % fixed 72-byte packets
/// every 201 ms, 67 % player-dependent sizes at a hardware-dependent
/// constant interval.
///
/// `players_per_xbox` scales the player-dependent sizes (we use
/// 72 + 32·players bytes as the representative law the study's tables
/// suggest); the hardware-dependent client interval is instantiated at
/// 66 ms.
pub fn halo(players_per_xbox: u32) -> GameModel {
    let dependent_size = 72.0 + 32.0 * players_per_xbox as f64;
    GameModel {
        name: "Halo (System Link)",
        source: "Lang/Armitage, ATNAC 2003 (paper §2.1)",
        client: ClientModel {
            packet_size: Box::new(Mixture::new(vec![
                (
                    0.33,
                    Box::new(Deterministic::new(72.0)) as Box<dyn Distribution>,
                ),
                (0.67, Box::new(Deterministic::new(dependent_size))),
            ])),
            // Effective mixture of the 201 ms fixed stream and the 66 ms
            // hardware stream.
            inter_arrival_ms: Box::new(Mixture::new(vec![
                (
                    0.33,
                    Box::new(Deterministic::new(201.0)) as Box<dyn Distribution>,
                ),
                (0.67, Box::new(Deterministic::new(66.0))),
            ])),
        },
        server: ServerModel {
            packet_size: Box::new(Deterministic::new(72.0 + 40.0 * players_per_xbox as f64)),
            burst_inter_arrival_ms: Box::new(Deterministic::new(40.0)),
        },
    }
}

/// Quake3, after Lang et al. \[18\] (§2.1): one update per client roughly
/// every 50 ms; server packet lengths 50–400 B depending on player count
/// and map; client packets 50–70 B with map/graphics-card-dependent IAT
/// 10–30 ms.
///
/// `players` steers the server packet-size mean within the reported
/// range.
pub fn quake3(players: u32) -> GameModel {
    let server_mean = (50.0 + 18.0 * players as f64).min(400.0);
    GameModel {
        name: "Quake3",
        source: "Lang/Branch/Armitage, ACE 2004 (paper §2.1)",
        client: ClientModel {
            packet_size: Box::new(fpsping_dist::Uniform::new(50.0, 70.0)),
            inter_arrival_ms: Box::new(fpsping_dist::Uniform::new(10.0, 30.0)),
        },
        server: ServerModel {
            packet_size: Box::new(LogNormal::from_mean_cov(server_mean, 0.3)),
            burst_inter_arrival_ms: Box::new(Deterministic::new(50.0)),
        },
    }
}

/// Unreal Tournament 2003, matching the paper's own LAN measurements
/// (Table 3): server packets 154 B / CoV 0.28, burst IAT 47 ms / CoV
/// 0.07, client packets 73 B / CoV 0.06, client IAT 30 ms / CoV 0.65.
///
/// This is the *marginal* per-direction model; for the full burst
/// structure (within-burst correlation, missing packets, delayed bursts)
/// use [`crate::synthetic::LanPartyConfig`].
pub fn unreal_tournament() -> GameModel {
    GameModel {
        name: "Unreal Tournament 2003",
        source: "paper §2.2 / Table 3 (LAN party measurements)",
        client: ClientModel {
            packet_size: Box::new(LogNormal::from_mean_cov(73.0, 0.06)),
            inter_arrival_ms: Box::new(LogNormal::from_mean_cov(30.0, 0.65)),
        },
        server: ServerModel {
            packet_size: Box::new(LogNormal::from_mean_cov(154.0, 0.28)),
            burst_inter_arrival_ms: Box::new(LogNormal::from_mean_cov(47.0, 0.07)),
        },
    }
}

/// All preset models (for zoo-style sweeps).
pub fn all_games() -> Vec<GameModel> {
    vec![
        counter_strike(),
        half_life(),
        halo(4),
        quake3(8),
        unreal_tournament(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsping_num::stats::{cov, mean};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn counter_strike_fitted_means_are_close_to_measured() {
        // The Ext fits were least-squares on the pdf, not moment fits, so
        // means differ from the measured ones but must be in the same
        // ballpark (Table 1).
        let g = counter_strike();
        assert!((g.server.mean_packet_size() - 127.0).abs() < 20.0);
        assert!((g.client.mean_packet_size() - 82.0).abs() < 5.0);
        assert!((g.server.mean_burst_interval_ms() - 62.0).abs() < 5.0);
        assert_eq!(g.client.mean_inter_arrival_ms(), 40.0);
    }

    #[test]
    fn unreal_tournament_matches_table3_marginals() {
        let g = unreal_tournament();
        let mut rng = StdRng::seed_from_u64(77);
        let sizes = g.server.packet_size.sample_n(&mut rng, 100_000);
        assert!((mean(&sizes) - 154.0).abs() < 1.5);
        assert!((cov(&sizes) - 0.28).abs() < 0.01);
        let iats = g.client.inter_arrival_ms.sample_n(&mut rng, 100_000);
        assert!((mean(&iats) - 30.0).abs() < 0.5);
        assert!((cov(&iats) - 0.65).abs() < 0.02);
    }

    #[test]
    fn half_life_clocks_are_deterministic() {
        let g = half_life();
        assert_eq!(g.server.mean_burst_interval_ms(), 60.0);
        assert_eq!(g.client.mean_inter_arrival_ms(), 41.0);
        assert_eq!(g.server.burst_inter_arrival_ms.cov(), 0.0);
    }

    #[test]
    fn halo_client_mixture_shares() {
        let g = halo(4);
        // Mean size = 0.33·72 + 0.67·(72+128) = 157.76.
        assert!((g.client.mean_packet_size() - (0.33 * 72.0 + 0.67 * 200.0)).abs() < 1e-9);
    }

    #[test]
    fn quake3_server_size_grows_with_players_and_saturates() {
        assert!(quake3(2).server.mean_packet_size() < quake3(12).server.mean_packet_size());
        assert!(quake3(40).server.mean_packet_size() <= 400.0);
    }

    #[test]
    fn all_games_have_positive_rates() {
        for g in all_games() {
            assert!(g.client.mean_bitrate_bps() > 0.0, "{}", g.name);
            assert!(g.server.mean_bitrate_bps(10) > 0.0, "{}", g.name);
            assert!(g.downstream_load(10, 5_000_000.0) < 1.0, "{}", g.name);
        }
    }
}
