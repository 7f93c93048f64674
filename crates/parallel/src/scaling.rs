//! Scalability sweeps: the data series behind Fig. 13.

use ador_noc::{P2pLink, SyncStrategy};
use ador_units::{Bandwidth, Seconds};

use crate::{BlockWorkload, TensorParallel};

/// One point of a scalability curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Tensor-parallel width.
    pub devices: usize,
    /// Latency speedup over one device.
    pub speedup: f64,
}

/// Sweeps TP width over `device_counts` for a fixed block workload and
/// link — the Fig. 13a series (one call per strategy).
pub fn tp_sweep(
    block: BlockWorkload,
    strategy: SyncStrategy,
    link: P2pLink,
    device_counts: &[usize],
) -> Vec<ScalingPoint> {
    device_counts
        .iter()
        .map(|&n| ScalingPoint {
            devices: n,
            speedup: TensorParallel::new(n, strategy).speedup(block, link),
        })
        .collect()
}

/// The phase mixture of a serving step, for the Fig. 13b sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadMix {
    /// Pure prefill (compute-heavy blocks, large messages).
    Prefill,
    /// Pure decode (bandwidth-bound blocks, small messages).
    Decode,
    /// Continuous batching at the paper's prefill:decode = 3:1 step ratio.
    Continuous,
}

impl WorkloadMix {
    /// Blends per-phase block workloads into the mixture's effective block:
    /// a weighted sum of compute times and messages, representing the
    /// average step under this mix.
    pub fn blend(&self, prefill: BlockWorkload, decode: BlockWorkload) -> BlockWorkload {
        match self {
            WorkloadMix::Prefill => prefill,
            WorkloadMix::Decode => decode,
            WorkloadMix::Continuous => {
                // Paper Fig. 13b: "Prefill : Decoding = 3 : 1".
                let w_prefill = 0.75;
                let w_decode = 0.25;
                BlockWorkload::new(
                    Seconds::new(
                        prefill.compute_1dev.get() * w_prefill
                            + decode.compute_1dev.get() * w_decode,
                    ),
                    prefill.msg * w_prefill + decode.msg * w_decode,
                )
            }
        }
    }
}

/// Sweeps P2P bandwidth for a fixed TP width and workload mix — the
/// Fig. 13b series. Returns `(bandwidth_gbps, speedup)` pairs.
pub fn p2p_sweep(
    prefill: BlockWorkload,
    decode: BlockWorkload,
    mix: WorkloadMix,
    devices: usize,
    bandwidths_gbps: &[f64],
) -> Vec<(f64, f64)> {
    let block = mix.blend(prefill, decode);
    let tp = TensorParallel::new(devices, SyncStrategy::AllGather);
    bandwidths_gbps
        .iter()
        .map(|&gbps| {
            let link = P2pLink::new(Bandwidth::from_gbps(gbps));
            (gbps, tp.speedup(block, link))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_units::Bytes;

    fn prefill_block() -> BlockWorkload {
        // Compute-bound: ~1 ms of GEMM per block, 8 MiB activations.
        BlockWorkload::new(Seconds::from_millis(1.0), Bytes::from_mib(8))
    }

    fn decode_block() -> BlockWorkload {
        BlockWorkload::new(Seconds::from_micros(121.0), Bytes::from_kib(256))
    }

    #[test]
    fn tp_sweep_produces_requested_points() {
        let pts = tp_sweep(
            decode_block(),
            SyncStrategy::AllGather,
            P2pLink::pcie5_x16(),
            &[1, 2, 4, 8, 16],
        );
        assert_eq!(pts.len(), 5);
        assert!((pts[0].speedup - 1.0).abs() < 1e-9);
        assert!(pts[4].speedup > pts[1].speedup);
    }

    #[test]
    fn fig13b_modest_bandwidth_suffices_for_decode() {
        // Paper: "A bandwidth of approximately 32 GB/s ... is sufficient for
        // overlapping computation and communication" — decode traffic is
        // small, so speedup saturates early in bandwidth.
        let pts = p2p_sweep(
            prefill_block(),
            decode_block(),
            WorkloadMix::Decode,
            8,
            &[16.0, 32.0, 64.0, 128.0],
        );
        let at32 = pts[1].1;
        let at128 = pts[3].1;
        assert!(
            at32 > 0.75 * at128,
            "32 GB/s {at32:.2} vs 128 GB/s {at128:.2}"
        );
    }

    #[test]
    fn prefill_needs_more_bandwidth_than_decode() {
        let sweep = |mix| p2p_sweep(prefill_block(), decode_block(), mix, 8, &[16.0, 128.0]);
        let prefill = sweep(WorkloadMix::Prefill);
        let decode = sweep(WorkloadMix::Decode);
        // Relative gain from 16 → 128 GB/s is larger for prefill's big
        // messages.
        let gain = |v: &Vec<(f64, f64)>| v[1].1 / v[0].1;
        assert!(gain(&prefill) >= gain(&decode));
    }

    #[test]
    fn continuous_mix_blends_between_phases() {
        let blend = WorkloadMix::Continuous.blend(prefill_block(), decode_block());
        assert!(blend.compute_1dev < prefill_block().compute_1dev);
        assert!(blend.compute_1dev > decode_block().compute_1dev);
    }
}
