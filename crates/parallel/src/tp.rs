//! Tensor parallelism: split every weight matrix, synchronize activations.

use core::fmt;

use ador_noc::{OverlapModel, P2pLink, SyncStrategy};
use ador_units::{Bytes, Seconds};

/// One tensor-parallel sub-block of work: a pair of dependent GEMMs (the
/// Megatron fusion unit) with its single-device compute time and the
/// activation message that must be synchronized afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockWorkload {
    /// Compute time of the block on one device (memory- or compute-bound,
    /// whichever governs — the caller's performance model decides).
    pub compute_1dev: Seconds,
    /// Activation bytes produced by the block (the sync message).
    pub msg: Bytes,
}

impl BlockWorkload {
    /// Creates a block workload.
    pub fn new(compute_1dev: Seconds, msg: Bytes) -> Self {
        Self { compute_1dev, msg }
    }
}

/// A tensor-parallel execution plan across `devices` devices using
/// `strategy` for synchronization.
///
/// # Examples
///
/// ```
/// use ador_parallel::{BlockWorkload, TensorParallel};
/// use ador_noc::{P2pLink, SyncStrategy};
/// use ador_units::{Bytes, Seconds};
///
/// let block = BlockWorkload::new(Seconds::from_millis(1.0), Bytes::from_mib(1));
/// let t1 = TensorParallel::single().block_time(block, P2pLink::pcie4_x16());
/// let t4 = TensorParallel::new(4, SyncStrategy::AllGather)
///     .block_time(block, P2pLink::pcie4_x16());
/// assert!(t4 < t1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorParallel {
    /// Participating devices.
    pub devices: usize,
    /// Synchronization strategy between dependent GEMMs.
    pub strategy: SyncStrategy,
}

impl TensorParallel {
    /// Creates a TP plan.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn new(devices: usize, strategy: SyncStrategy) -> Self {
        assert!(devices > 0, "tensor parallelism needs at least one device");
        Self { devices, strategy }
    }

    /// The degenerate single-device plan (no synchronization).
    pub fn single() -> Self {
        Self::new(1, SyncStrategy::AllGather)
    }

    /// The strategy the paper recommends for a given device count:
    /// Megatron at ≤2 devices, all-gather beyond (§V-C).
    pub fn recommended(devices: usize) -> Self {
        let strategy = if devices <= 2 {
            SyncStrategy::Megatron
        } else {
            SyncStrategy::AllGather
        };
        Self::new(devices, strategy)
    }

    /// The overlap model this strategy admits: all-gather pipelines final
    /// sums (Fig. 6d); partial-sum strategies serialize behind the
    /// accumulation.
    pub fn overlap(&self) -> OverlapModel {
        if self.strategy.overlappable() {
            OverlapModel::pipelined()
        } else {
            OverlapModel::serialized()
        }
    }

    /// Wall-clock time of one block: compute shrinks by the device count
    /// (each device streams 1/n of the weights with its own DRAM); wire
    /// traffic is overlapped as the strategy allows; synchronization
    /// *barriers* (one per sync point) can never be hidden.
    ///
    /// The barrier term is what makes Megatron competitive at two devices —
    /// it pays one barrier per block where all-gather pays two (paper
    /// Fig. 13a) — while its all-reduce volume sinks it at four and more.
    pub fn block_time(&self, block: BlockWorkload, link: P2pLink) -> Seconds {
        let compute = block.compute_1dev / self.devices as f64;
        if self.devices == 1 {
            return compute;
        }
        let cost = self.strategy.block_cost(self.devices, block.msg);
        let wire = cost.wire_time(link.bandwidth());
        let barriers = link.latency() * cost.sync_points as f64;
        self.overlap().step_time(compute, wire) + barriers
    }

    /// Latency speedup of this plan over one device for the same block.
    pub fn speedup(&self, block: BlockWorkload, link: P2pLink) -> f64 {
        let single = block.compute_1dev;
        let parallel = self.block_time(block, link);
        if parallel.is_zero() {
            return self.devices as f64;
        }
        single / parallel
    }
}

impl fmt::Display for TensorParallel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TP={} ({})", self.devices, self.strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn decode_block() -> BlockWorkload {
        // LLaMA3-8B-class decode block: ~218 MB of weights at ~1.8 TB/s
        // effective → ~121 µs; batch-32 activations are 256 KiB.
        BlockWorkload::new(Seconds::from_micros(121.0), Bytes::from_kib(256))
    }

    #[test]
    fn fig13a_allgather_scales_furthest() {
        let link = P2pLink::new(ador_units::Bandwidth::from_gbps(128.0));
        let block = decode_block();
        let at16 = |s: SyncStrategy| TensorParallel::new(16, s).speedup(block, link);
        let ag = at16(SyncStrategy::AllGather);
        let mg = at16(SyncStrategy::Megatron);
        let ar = at16(SyncStrategy::AllReduce);
        assert!(ag > mg && mg > ar, "ag {ag:.1} mg {mg:.1} ar {ar:.1}");
        assert!(ag > 9.0, "all-gather should stay near-linear, got {ag:.1}");
    }

    #[test]
    fn fig13a_megatron_wins_at_two_devices() {
        // With a realistic per-sync barrier (InfiniBand-class, ~5 µs),
        // Megatron's single sync point beats all-gather's two at TP = 2.
        let link = P2pLink::new(ador_units::Bandwidth::from_gbps(128.0))
            .with_latency(Seconds::from_micros(5.0));
        let block = decode_block();
        let ag = TensorParallel::new(2, SyncStrategy::AllGather).speedup(block, link);
        let mg = TensorParallel::new(2, SyncStrategy::Megatron).speedup(block, link);
        assert!(mg > ag, "mg {mg:.2} ag {ag:.2}");
    }

    #[test]
    fn recommended_matches_paper_rule() {
        assert_eq!(
            TensorParallel::recommended(2).strategy,
            SyncStrategy::Megatron
        );
        assert_eq!(
            TensorParallel::recommended(4).strategy,
            SyncStrategy::AllGather
        );
    }

    #[test]
    fn single_device_has_no_overhead() {
        let block = decode_block();
        let t = TensorParallel::single().block_time(block, P2pLink::pcie4_x16());
        assert_eq!(t, block.compute_1dev);
    }

    proptest! {
        #[test]
        fn speedup_never_exceeds_devices(
            n in 1usize..32,
            us in 1.0f64..10_000.0,
            kib in 1u64..10_000,
            gbps in 1.0f64..900.0,
        ) {
            let block = BlockWorkload::new(Seconds::from_micros(us), Bytes::from_kib(kib));
            let tp = TensorParallel::new(n, SyncStrategy::AllGather);
            let link = P2pLink::new(ador_units::Bandwidth::from_gbps(gbps));
            prop_assert!(tp.speedup(block, link) <= n as f64 + 1e-9);
        }

        #[test]
        fn more_bandwidth_never_slower(
            n in 2usize..32, us in 1.0f64..10_000.0, kib in 1u64..10_000, gbps in 1.0f64..450.0,
        ) {
            for s in SyncStrategy::all() {
                let block = BlockWorkload::new(Seconds::from_micros(us), Bytes::from_kib(kib));
                let tp = TensorParallel::new(n, s);
                let slow = tp.block_time(block, P2pLink::new(ador_units::Bandwidth::from_gbps(gbps)));
                let fast = tp.block_time(block, P2pLink::new(ador_units::Bandwidth::from_gbps(gbps * 2.0)));
                prop_assert!(fast <= slow);
            }
        }
    }
}
