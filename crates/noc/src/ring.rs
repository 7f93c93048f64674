//! The on-chip ring NoC connecting ADOR cores (paper Fig. 6a).

use ador_units::{Bandwidth, Bytes, Seconds};

/// A unidirectional ring of `nodes` cores with `link_bandwidth` per hop.
///
/// The latency-oriented dataflow (Fig. 6c) has every core compute a slice of
/// the output and all-gather the slices around the ring; the
/// throughput-oriented dataflow (Fig. 6b) broadcasts weights instead.
///
/// # Examples
///
/// ```
/// use ador_noc::RingNoc;
/// use ador_units::{Bandwidth, Bytes};
///
/// let ring = RingNoc::new(32, Bandwidth::from_gbps(256.0));
/// let t = ring.all_gather_time(Bytes::from_mib(1));
/// assert!(t.as_micros() < 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingNoc {
    nodes: usize,
    link_bandwidth: Bandwidth,
    hop_latency: Seconds,
}

impl RingNoc {
    /// Creates a ring of `nodes` cores with `link_bandwidth` per hop and a
    /// default 20 ns router hop latency.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, link_bandwidth: Bandwidth) -> Self {
        assert!(nodes > 0, "ring must have at least one node");
        Self {
            nodes,
            link_bandwidth,
            hop_latency: Seconds::new(20e-9),
        }
    }

    /// Overrides the per-hop router latency.
    pub fn with_hop_latency(mut self, latency: Seconds) -> Self {
        self.hop_latency = latency;
        self
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Per-hop link bandwidth.
    pub fn link_bandwidth(&self) -> Bandwidth {
        self.link_bandwidth
    }

    /// Time to all-gather a message of `total_bytes` (concatenation of all
    /// cores' slices): `nodes − 1` steps each moving one slice per hop.
    pub fn all_gather_time(&self, total_bytes: Bytes) -> Seconds {
        if self.nodes == 1 {
            return Seconds::ZERO;
        }
        let slice = total_bytes * (1.0 / self.nodes as f64);
        let per_step = slice / self.link_bandwidth + self.hop_latency;
        per_step * (self.nodes - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_node_is_free() {
        let ring = RingNoc::new(1, Bandwidth::from_gbps(100.0));
        assert_eq!(ring.all_gather_time(Bytes::from_mib(64)), Seconds::ZERO);
    }

    #[test]
    fn all_gather_approaches_one_message_time() {
        // (n-1)/n of the message crosses each link: for large n the ring
        // all-gather costs about one full message transfer.
        let ring = RingNoc::new(64, Bandwidth::from_gbps(256.0)).with_hop_latency(Seconds::ZERO);
        let msg = Bytes::from_mib(8);
        let t = ring.all_gather_time(msg);
        let full = msg / ring.link_bandwidth();
        let ratio = t.get() / full.get();
        assert!((0.97..1.0).contains(&ratio), "{ratio}");
    }

    #[test]
    fn hop_latency_accumulates() {
        let fast = RingNoc::new(32, Bandwidth::from_gbps(256.0)).with_hop_latency(Seconds::ZERO);
        let slow = RingNoc::new(32, Bandwidth::from_gbps(256.0))
            .with_hop_latency(Seconds::from_micros(1.0));
        let msg = Bytes::from_kib(1);
        let diff = slow.all_gather_time(msg) - fast.all_gather_time(msg);
        assert!((diff.as_micros() - 31.0).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn all_gather_monotone_in_bytes(n in 2usize..64, a in 1u64..64, b in 1u64..64) {
            let ring = RingNoc::new(n, Bandwidth::from_gbps(128.0));
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(
                ring.all_gather_time(Bytes::from_mib(lo)) <= ring.all_gather_time(Bytes::from_mib(hi))
            );
        }
    }
}
