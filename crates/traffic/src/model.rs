//! Traffic source models: client streams and server burst processes.
//!
//! §2.3 of the paper: the client model is a periodic packet stream
//! (deterministic size and spacing to first order); the server model is a
//! burst process — a deterministic clock emitting one packet per client,
//! with random per-packet sizes.

use fpsping_dist::Distribution;

/// Client-to-server (upstream) traffic of one player (§2.3.1).
#[derive(Debug)]
pub struct ClientModel {
    /// Packet size in bytes.
    pub packet_size: Box<dyn Distribution>,
    /// Packet inter-arrival time in milliseconds.
    pub inter_arrival_ms: Box<dyn Distribution>,
}

impl ClientModel {
    /// Mean packet size (bytes).
    pub fn mean_packet_size(&self) -> f64 {
        self.packet_size.mean()
    }

    /// Mean inter-arrival time (ms).
    pub fn mean_inter_arrival_ms(&self) -> f64 {
        self.inter_arrival_ms.mean()
    }

    /// Mean upstream bit rate of one client (bit/s).
    pub fn mean_bitrate_bps(&self) -> f64 {
        self.mean_packet_size() * 8.0 / (self.mean_inter_arrival_ms() / 1000.0)
    }
}

/// Server-to-client (downstream) traffic (§2.3.2): a burst clock plus a
/// per-client packet-size law.
#[derive(Debug)]
pub struct ServerModel {
    /// Size of one server packet (bytes); within a burst the server sends
    /// one packet per active client.
    pub packet_size: Box<dyn Distribution>,
    /// Burst (update-tick) inter-arrival time in milliseconds — `Det(T)`
    /// in the paper's model.
    pub burst_inter_arrival_ms: Box<dyn Distribution>,
}

impl ServerModel {
    /// Mean per-client packet size (bytes).
    pub fn mean_packet_size(&self) -> f64 {
        self.packet_size.mean()
    }

    /// Mean burst inter-arrival time (ms) — the paper's `T`.
    pub fn mean_burst_interval_ms(&self) -> f64 {
        self.burst_inter_arrival_ms.mean()
    }

    /// Mean downstream bit rate toward `n` clients (bit/s).
    pub fn mean_bitrate_bps(&self, n_clients: usize) -> f64 {
        n_clients as f64 * self.mean_packet_size() * 8.0 / (self.mean_burst_interval_ms() / 1000.0)
    }
}

/// A complete per-game traffic model (both directions) with provenance.
#[derive(Debug)]
pub struct GameModel {
    /// Game title.
    pub name: &'static str,
    /// Literature source of the parameterization.
    pub source: &'static str,
    /// Upstream model.
    pub client: ClientModel,
    /// Downstream model.
    pub server: ServerModel,
}

#[cfg(test)]
impl GameModel {
    /// Offered downstream load on a link of `link_rate_bps` with
    /// `n_clients` players — eq. (37) with this game's `P_S` and `T`.
    pub(crate) fn downstream_load(&self, n_clients: usize, link_rate_bps: f64) -> f64 {
        self.server.mean_bitrate_bps(n_clients) / link_rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsping_dist::Deterministic;

    fn det_model() -> GameModel {
        GameModel {
            name: "test",
            source: "unit test",
            client: ClientModel {
                packet_size: Box::new(Deterministic::new(80.0)),
                inter_arrival_ms: Box::new(Deterministic::new(40.0)),
            },
            server: ServerModel {
                packet_size: Box::new(Deterministic::new(125.0)),
                burst_inter_arrival_ms: Box::new(Deterministic::new(40.0)),
            },
        }
    }

    #[test]
    fn client_bitrate() {
        let m = det_model();
        // 80 B / 40 ms = 16 kbit/s.
        assert!((m.client.mean_bitrate_bps() - 16_000.0).abs() < 1e-9);
    }

    #[test]
    fn server_bitrate_scales_with_clients() {
        let m = det_model();
        // 125 B per client / 40 ms = 25 kbit/s per client.
        assert!((m.server.mean_bitrate_bps(1) - 25_000.0).abs() < 1e-9);
        assert!((m.server.mean_bitrate_bps(8) - 200_000.0).abs() < 1e-9);
    }

    #[test]
    fn downstream_load_matches_eq37() {
        let m = det_model();
        // eq. (37): ρ = 8·N·P_S/(T·C) with T in ms, C in kbps →
        // = N·P_S·8 / (T_s · C_bps).
        let n = 40;
        let c = 5_000_000.0;
        let expect = 8.0 * n as f64 * 125.0 / (0.040 * c);
        assert!((m.downstream_load(n, c) - expect).abs() < 1e-12);
    }
}
