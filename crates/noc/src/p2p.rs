//! Device-to-device links (paper §V-C: PCIe-4 ×16 or InfiniBand suffices
//! for ADOR; NVLink-class links are not required).

use core::fmt;

use ador_units::{Bandwidth, Bytes, Seconds};

/// A point-to-point inter-device link.
///
/// # Examples
///
/// ```
/// use ador_noc::P2pLink;
/// use ador_units::Bytes;
///
/// let pcie = P2pLink::pcie4_x16();
/// let nvlink = P2pLink::nvlink4();
/// assert!(pcie.transfer_time(Bytes::from_mib(64)) > nvlink.transfer_time(Bytes::from_mib(64)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2pLink {
    bandwidth: Bandwidth,
    latency: Seconds,
}

impl P2pLink {
    /// Creates a link with the given bandwidth and a default 2 µs
    /// end-to-end latency.
    pub fn new(bandwidth: Bandwidth) -> Self {
        Self {
            bandwidth,
            latency: Seconds::from_micros(2.0),
        }
    }

    /// Overrides the per-transfer latency.
    pub fn with_latency(mut self, latency: Seconds) -> Self {
        self.latency = latency;
        self
    }

    /// PCIe 4.0 ×16: ~32 GB/s per direction — the paper's sufficiency
    /// example.
    pub fn pcie4_x16() -> Self {
        Self::new(Bandwidth::from_gbps(32.0))
    }

    /// PCIe 5.0 ×16: ~64 GB/s (the Table III ADOR design point).
    pub fn pcie5_x16() -> Self {
        Self::new(Bandwidth::from_gbps(64.0))
    }

    /// NVLink 4 class: 900 GB/s aggregate (H100).
    pub fn nvlink4() -> Self {
        Self::new(Bandwidth::from_gbps(900.0)).with_latency(Seconds::from_micros(1.0))
    }

    /// Link bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Per-transfer latency.
    pub fn latency(&self) -> Seconds {
        self.latency
    }

    /// Time to move `bytes` once across the link.
    pub fn transfer_time(&self, bytes: Bytes) -> Seconds {
        self.latency + bytes / self.bandwidth
    }
}

impl fmt::Display for P2pLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P2P {} ({} lat)", self.bandwidth, self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn presets_are_ordered() {
        assert!(P2pLink::pcie4_x16().bandwidth() < P2pLink::pcie5_x16().bandwidth());
        assert!(P2pLink::pcie5_x16().bandwidth() < P2pLink::nvlink4().bandwidth());
    }

    #[test]
    fn latency_floors_small_transfers() {
        let link = P2pLink::pcie4_x16();
        let tiny = link.transfer_time(Bytes::new(64));
        assert!(tiny >= link.latency());
    }

    proptest! {
        #[test]
        fn transfer_monotone(a in 0u64..1 << 30, b in 0u64..1 << 30) {
            let link = P2pLink::pcie5_x16();
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(link.transfer_time(Bytes::new(lo)) <= link.transfer_time(Bytes::new(hi)));
        }
    }
}
