//! Tensor-parallel synchronization strategies and their costs (Fig. 7).

use core::fmt;

use ador_units::{Bandwidth, Bytes, Seconds};

/// How tensor-parallel devices (or cores) synchronize activations between
/// consecutive GEMMs.
///
/// Costs are expressed for one *transformer sub-block* — a pair of dependent
/// GEMMs (e.g. up-projection then down-projection), which is the unit
/// Megatron fuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncStrategy {
    /// Each device computes a full-precision *final* slice of the output and
    /// gathers the other slices: two syncs per block, each moving
    /// `msg·(n−1)/n` per device. Volume is ~constant in `n`, and the small
    /// final sums pipeline behind compute (Fig. 6d).
    AllGather,
    /// Each device holds a *partial sum of the entire output* and exchanges
    /// it: two syncs per block, each moving `msg·(n−1)` per device, plus a
    /// trailing accumulation that cannot be overlapped.
    AllReduce,
    /// Megatron-LM's column-then-row parallel fusion: a single all-reduce
    /// per block. Half the sync points of [`SyncStrategy::AllGather`], but
    /// the volume still scales with `n`.
    Megatron,
}

impl SyncStrategy {
    /// All strategies, in the order the paper plots them.
    pub fn all() -> [SyncStrategy; 3] {
        [
            SyncStrategy::AllGather,
            SyncStrategy::AllReduce,
            SyncStrategy::Megatron,
        ]
    }

    /// Synchronization points per two-GEMM block.
    pub fn sync_points(&self) -> usize {
        match self {
            SyncStrategy::AllGather | SyncStrategy::AllReduce => 2,
            SyncStrategy::Megatron => 1,
        }
    }

    /// Whether the strategy's wire traffic can pipeline behind compute
    /// (Fig. 6d: all-gather ships final sums as they emerge; all-reduce
    /// must wait for complete partial sums and then accumulate).
    pub fn overlappable(&self) -> bool {
        matches!(self, SyncStrategy::AllGather)
    }

    /// Bytes each device moves for **one** sync of an activation message of
    /// `msg` bytes across `n` participants.
    pub fn bytes_per_sync(&self, n: usize, msg: Bytes) -> Bytes {
        assert!(n > 0, "collective needs at least one participant");
        if n == 1 {
            return Bytes::ZERO;
        }
        match self {
            SyncStrategy::AllGather => msg * ((n - 1) as f64 / n as f64),
            SyncStrategy::AllReduce | SyncStrategy::Megatron => msg * (n - 1) as u64,
        }
    }

    /// Total cost of one two-GEMM block: [`Self::sync_points`] syncs of
    /// [`Self::bytes_per_sync`].
    pub fn block_cost(&self, n: usize, msg: Bytes) -> CollectiveCost {
        CollectiveCost {
            strategy: *self,
            participants: n,
            bytes_per_device: self.bytes_per_sync(n, msg) * self.sync_points() as u64,
            sync_points: self.sync_points(),
        }
    }
}

impl fmt::Display for SyncStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SyncStrategy::AllGather => "all-gather",
            SyncStrategy::AllReduce => "all-reduce",
            SyncStrategy::Megatron => "megatron",
        };
        f.write_str(s)
    }
}

/// Wire cost of one block's synchronization (C-INTERMEDIATE: the per-device
/// byte count is the quantity Fig. 7c plots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveCost {
    /// The strategy that produced this cost.
    pub strategy: SyncStrategy,
    /// Participant count.
    pub participants: usize,
    /// Bytes moved per device for the whole block.
    pub bytes_per_device: Bytes,
    /// Number of serialized sync points.
    pub sync_points: usize,
}

impl CollectiveCost {
    /// Pure wire time on a link of `bandwidth` (no overlap, no per-sync
    /// latency).
    pub fn wire_time(&self, bandwidth: Bandwidth) -> Seconds {
        self.bytes_per_device / bandwidth
    }

    /// Wire time plus `per_sync_latency` for each serialized sync point.
    pub fn total_time(&self, bandwidth: Bandwidth, per_sync_latency: Seconds) -> Seconds {
        self.wire_time(bandwidth) + per_sync_latency * self.sync_points as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MSG: Bytes = Bytes::new(8 * 1024 * 1024);

    #[test]
    fn single_device_is_free() {
        for s in SyncStrategy::all() {
            assert_eq!(s.block_cost(1, MSG).bytes_per_device, Bytes::ZERO);
        }
    }

    #[test]
    fn fig7c_allgather_volume_is_flat() {
        // Per-device all-gather volume approaches msg and never exceeds it.
        let v2 = SyncStrategy::AllGather.bytes_per_sync(2, MSG);
        let v16 = SyncStrategy::AllGather.bytes_per_sync(16, MSG);
        assert!(v16 <= MSG);
        assert!(v16.get() as f64 / v2.get() as f64 <= 2.0);
    }

    #[test]
    fn fig7c_allreduce_volume_scales_linearly() {
        let v2 = SyncStrategy::AllReduce.bytes_per_sync(2, MSG);
        let v16 = SyncStrategy::AllReduce.bytes_per_sync(16, MSG);
        assert_eq!(v16.get(), 15 * v2.get());
    }

    #[test]
    fn megatron_wins_at_two_devices_by_sync_points() {
        // Equal bytes at n = 2, but half the serialized sync points — the
        // paper's "Megatron is more efficient with two devices".
        let ag = SyncStrategy::AllGather.block_cost(2, MSG);
        let mg = SyncStrategy::Megatron.block_cost(2, MSG);
        assert_eq!(ag.bytes_per_device, mg.bytes_per_device);
        assert!(mg.sync_points < ag.sync_points);
        let link = Bandwidth::from_gbps(64.0);
        let lat = Seconds::from_micros(5.0);
        assert!(mg.total_time(link, lat) < ag.total_time(link, lat));
    }

    #[test]
    fn allgather_wins_at_four_or_more() {
        // Paper §V-C: "all-gather scales better with four or more devices".
        let link = Bandwidth::from_gbps(64.0);
        let lat = Seconds::from_micros(5.0);
        for n in [4, 8, 16] {
            let ag = SyncStrategy::AllGather
                .block_cost(n, MSG)
                .total_time(link, lat);
            let mg = SyncStrategy::Megatron
                .block_cost(n, MSG)
                .total_time(link, lat);
            let ar = SyncStrategy::AllReduce
                .block_cost(n, MSG)
                .total_time(link, lat);
            assert!(ag < mg && mg < ar, "n={n}");
        }
    }

    #[test]
    fn only_allgather_overlaps() {
        assert!(SyncStrategy::AllGather.overlappable());
        assert!(!SyncStrategy::AllReduce.overlappable());
        assert!(!SyncStrategy::Megatron.overlappable());
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", SyncStrategy::Megatron), "megatron");
    }

    proptest! {
        #[test]
        fn allgather_cheapest_in_bytes(n in 2usize..64, mib in 1u64..256) {
            let msg = Bytes::from_mib(mib);
            let ag = SyncStrategy::AllGather.block_cost(n, msg).bytes_per_device;
            let mg = SyncStrategy::Megatron.block_cost(n, msg).bytes_per_device;
            let ar = SyncStrategy::AllReduce.block_cost(n, msg).bytes_per_device;
            prop_assert!(ag <= mg);
            prop_assert!(mg <= ar);
        }

        #[test]
        fn wire_time_scales_inverse_bandwidth(n in 2usize..32, mib in 1u64..64, gbps in 1.0f64..600.0) {
            let cost = SyncStrategy::AllReduce.block_cost(n, Bytes::from_mib(mib));
            let slow = cost.wire_time(Bandwidth::from_gbps(gbps));
            let fast = cost.wire_time(Bandwidth::from_gbps(gbps * 2.0));
            prop_assert!((slow.get() / fast.get() - 2.0).abs() < 1e-6);
        }
    }
}
