//! Network conduit parameter sets (the GASNet term for a network backend).
//!
//! The cost model is LogGP-flavoured: a message of `S` bytes pays
//!
//! * `send_overhead` of CPU time on the initiating thread (software stack);
//! * a *connection* service time `conn_gap + S / conn_bandwidth` serialized
//!   per connection (injection);
//! * NIC service `S / nic_bandwidth` serialized per node and direction;
//! * `wire_latency` of pure delay.
//!
//! Per-connection bandwidth is deliberately below NIC bandwidth: one
//! endpoint cannot saturate the adapter, so multiple process endpoints gain
//! aggregate throughput until the NIC cap — exactly the behaviour of thesis
//! Fig 4.2(b).

use hupc_sim::{time, Time};

/// Which physical network a conduit models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConduitKind {
    /// Mellanox ConnectX QDR InfiniBand (Lehman).
    IbQdr,
    /// Mellanox DDR InfiniBand (Pyramid).
    IbDdr,
    /// Gigabit Ethernet (Pyramid's second fabric, used in the UTS study).
    GigE,
}

/// Message cost parameters for one network fabric.
#[derive(Clone, Debug, PartialEq)]
pub struct Conduit {
    pub kind: ConduitKind,
    /// One-way wire + switch latency (pure delay).
    pub wire_latency: Time,
    /// Sender-side software overhead per message (charged on the CPU).
    pub send_overhead: Time,
    /// Per-message injection gap on a connection.
    pub conn_gap: Time,
    /// Sustainable bandwidth of a single connection/endpoint, bytes/s.
    pub conn_bandwidth: f64,
    /// Aggregate NIC bandwidth per node per direction, bytes/s.
    pub nic_bandwidth: f64,
}

impl Conduit {
    /// QDR InfiniBand: ~1.7 µs one-way, NIC ≈ 2.6 GB/s usable (the thesis
    /// quotes 5 GB/s signalling = ~2.5–3 GB/s usable per direction).
    pub fn ib_qdr() -> Self {
        Conduit {
            kind: ConduitKind::IbQdr,
            wire_latency: time::ns(1_700),
            send_overhead: time::ns(400),
            conn_gap: time::ns(650),
            conn_bandwidth: 1.55e9,
            nic_bandwidth: 2.6e9,
        }
    }

    /// DDR InfiniBand: ~2.6 µs one-way, NIC ≈ 1.5 GB/s usable.
    pub fn ib_ddr() -> Self {
        Conduit {
            kind: ConduitKind::IbDdr,
            wire_latency: time::ns(2_600),
            send_overhead: time::ns(500),
            conn_gap: time::ns(800),
            conn_bandwidth: 0.95e9,
            nic_bandwidth: 1.5e9,
        }
    }

    /// Gigabit Ethernet over sockets: ~45 µs one-way, ~112 MB/s.
    pub fn gige() -> Self {
        Conduit {
            kind: ConduitKind::GigE,
            wire_latency: time::us(45),
            send_overhead: time::us(6),
            conn_gap: time::us(10),
            conn_bandwidth: 0.105e9,
            nic_bandwidth: 0.112e9,
        }
    }

    /// Service time a message of `bytes` occupies its connection (injection).
    pub fn conn_service(&self, bytes: usize) -> Time {
        self.conn_gap + time::from_secs_f64(bytes as f64 / self.conn_bandwidth)
    }

    /// Service time a message of `bytes` occupies a NIC direction.
    pub fn nic_service(&self, bytes: usize) -> Time {
        time::from_secs_f64(bytes as f64 / self.nic_bandwidth)
    }

    /// Uncontended one-way delivery time for `bytes` (for reference and
    /// tests; the fabric computes the contended version).
    pub fn uncontended_delivery(&self, bytes: usize) -> Time {
        self.send_overhead + self.conn_service(bytes) + self.nic_service(bytes) + self.wire_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_latency_is_the_static_delivery_floor() {
        for c in [Conduit::ib_qdr(), Conduit::ib_ddr(), Conduit::gige()] {
            // Every component of a delivery is additive on top of the wire,
            // so no payload can undercut the floor.
            assert!(c.uncontended_delivery(1) >= c.wire_latency);
        }
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        let qdr = Conduit::ib_qdr();
        let ddr = Conduit::ib_ddr();
        let eth = Conduit::gige();
        assert!(qdr.nic_bandwidth > ddr.nic_bandwidth);
        assert!(ddr.nic_bandwidth > eth.nic_bandwidth);
        assert!(qdr.wire_latency < ddr.wire_latency);
        assert!(ddr.wire_latency < eth.wire_latency);
    }

    #[test]
    fn service_grows_linearly_in_size() {
        let c = Conduit::ib_qdr();
        let s1 = c.conn_service(1 << 10);
        let s2 = c.conn_service(2 << 10);
        let s4 = c.conn_service(4 << 10);
        assert!(s2 > s1 && s4 > s2);
        // beyond the gap, doubling size roughly doubles the byte term
        // (±2ns for per-call rounding)
        assert!((s4 - s2).abs_diff((s2 - s1) * 2) <= 2);
    }

    #[test]
    fn small_message_latency_is_microseconds() {
        let c = Conduit::ib_qdr();
        let t = c.uncontended_delivery(8);
        // Thesis Fig 4.2(a): small-message round trip ≈ 4–6 µs, one way 2–3.
        assert!(t > time::us(2) && t < time::us(4), "one-way {}", time::format(t));
    }

    #[test]
    fn large_message_is_bandwidth_bound() {
        let c = Conduit::ib_qdr();
        let t = c.uncontended_delivery(1 << 20);
        let ideal = time::from_secs_f64((1 << 20) as f64 / c.conn_bandwidth);
        assert!(t >= ideal);
        assert!(t < ideal * 2);
    }

    #[test]
    fn connection_cannot_saturate_nic() {
        for c in [Conduit::ib_qdr(), Conduit::ib_ddr(), Conduit::gige()] {
            assert!(c.conn_bandwidth < c.nic_bandwidth, "{:?}", c.kind);
        }
    }
}
