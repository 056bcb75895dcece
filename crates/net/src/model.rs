//! Link models: bandwidth/latency → transmission time.

use std::time::Duration;

/// A bandwidth/latency model of one network link.
///
/// `tx_time(bytes) = latency + bytes * 8 / bandwidth / efficiency`.
/// Efficiency folds in protocol overheads (TCP/IP headers, ACK turnaround)
/// so the 10 Mb/s preset delivers the ~1 MB/s goodput that 1990s shared
/// Ethernet actually achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Raw link bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way latency.
    pub latency: Duration,
    /// Fraction of raw bandwidth available as goodput (0 < e ≤ 1).
    pub efficiency: f64,
}

impl NetworkModel {
    /// The paper's §4.1 link: 10 Mb/s Ethernet.
    pub fn ethernet_10() -> Self {
        NetworkModel {
            bandwidth_bps: 10e6,
            latency: Duration::from_micros(800),
            efficiency: 0.85,
        }
    }

    /// The paper's Table 1 / Figure 2 link: 100 Mb/s Ethernet.
    pub fn ethernet_100() -> Self {
        NetworkModel {
            bandwidth_bps: 100e6,
            latency: Duration::from_micros(200),
            efficiency: 0.9,
        }
    }

    /// Gigabit Ethernet.
    pub fn gigabit() -> Self {
        NetworkModel {
            bandwidth_bps: 1e9,
            latency: Duration::from_micros(50),
            efficiency: 0.9,
        }
    }

    /// A zero-cost link for tests.
    pub fn instant() -> Self {
        NetworkModel {
            bandwidth_bps: f64::INFINITY,
            latency: Duration::ZERO,
            efficiency: 1.0,
        }
    }

    /// Modeled transmission time for a message of `bytes`.
    pub fn tx_time(&self, bytes: u64) -> Duration {
        if self.bandwidth_bps.is_infinite() {
            return self.latency;
        }
        let secs = (bytes as f64 * 8.0) / (self.bandwidth_bps * self.efficiency);
        self.latency + Duration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_scale_tx_times() {
        // linpack 1000×1000 doubles ≈ 8 MB over 100 Mb/s ≈ 0.7 s —
        // the right order of magnitude for Table 1's Tx column.
        let m = NetworkModel::ethernet_100();
        let t = m.tx_time(8_000_000);
        assert!(t.as_secs_f64() > 0.4 && t.as_secs_f64() < 1.2, "{t:?}");
    }

    #[test]
    fn ten_mbit_is_ten_times_slower() {
        let slow = NetworkModel::ethernet_10().tx_time(1_000_000).as_secs_f64();
        let fast = NetworkModel::ethernet_100()
            .tx_time(1_000_000)
            .as_secs_f64();
        let ratio = slow / fast;
        assert!(ratio > 8.0 && ratio < 13.0, "ratio {ratio}");
    }

    #[test]
    fn latency_dominates_tiny_messages() {
        let m = NetworkModel::ethernet_100();
        let t = m.tx_time(4);
        assert!(t >= m.latency);
        assert!(t.as_secs_f64() < m.latency.as_secs_f64() * 1.1);
    }

    #[test]
    fn instant_link_is_free() {
        assert_eq!(
            NetworkModel::instant().tx_time(u64::MAX / 16),
            Duration::ZERO
        );
    }
}
