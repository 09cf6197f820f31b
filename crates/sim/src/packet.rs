//! Packets and traffic classes.

use crate::time::SimTime;

/// Service class of a packet — Section 1 of the paper discusses keeping
/// interactive (gaming) traffic segregated from elastic (TCP bulk)
/// traffic via priority or WFQ scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Interactive gaming traffic (high priority / reserved WFQ class).
    Game,
    /// Elastic background traffic.
    Elastic,
}

/// What a downstream packet acknowledges: the upstream ping it answers,
/// echoed back like a real game ping protocol echoes its header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckInfo {
    /// Client-side send time of the acknowledged upstream packet.
    pub sent: SimTime,
    /// When that packet reached the server — `created - arrival` of the
    /// downstream packet is the server's *hold time* (tick-alignment
    /// wait), which an estimating client subtracts to recover pure
    /// network RTT.
    pub arrival: SimTime,
    /// The client's ping sequence number, echoed verbatim (None when the
    /// client wasn't tracking that ping).
    pub seq: Option<u16>,
}

/// A simulated packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Size in bytes.
    pub size_bytes: f64,
    /// Service class.
    pub class: TrafficClass,
    /// Origin client / destination client index (depending on direction).
    pub flow: u32,
    /// Creation time: when the client emitted it (upstream) or when the
    /// server tick emitted its burst (downstream).
    pub created: SimTime,
    /// For downstream ping packets: the upstream packet this one
    /// acknowledges (None for plain state updates).
    pub ack_of: Option<AckInfo>,
    /// Upstream packets only: the RTT estimator's sequence number stamped
    /// at emission (None when the estimator is off or the packet is
    /// untracked).
    pub ping_seq: Option<u16>,
    /// Position of the packet within its burst (0-based; upstream packets
    /// use 0).
    pub burst_position: u32,
    /// When the packet was enqueued at its *current* hop, set by the
    /// network: upstream, its arrival at the aggregation node, from
    /// which the aggregation wait is measured; downstream, its downlink
    /// service start, or its downlink departure once jitter holds it,
    /// which orders a captured trace's records at one instant.
    pub enqueued: SimTime,
}

impl Packet {
    /// A fresh game packet.
    pub fn game(size_bytes: f64, flow: u32, created: SimTime) -> Self {
        Self {
            size_bytes,
            class: TrafficClass::Game,
            flow,
            created,
            ack_of: None,
            ping_seq: None,
            burst_position: 0,
            enqueued: created,
        }
    }

    /// A fresh elastic (background) packet.
    pub fn elastic(size_bytes: f64, created: SimTime) -> Self {
        Self {
            size_bytes,
            class: TrafficClass::Elastic,
            flow: u32::MAX,
            created,
            ack_of: None,
            ping_seq: None,
            burst_position: 0,
            enqueued: created,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_class() {
        let g = Packet::game(125.0, 3, SimTime::from_millis(1.0));
        assert_eq!(g.class, TrafficClass::Game);
        assert_eq!(g.flow, 3);
        assert!(g.ack_of.is_none());
        let e = Packet::elastic(1500.0, SimTime::ZERO);
        assert_eq!(e.class, TrafficClass::Elastic);
    }
}
