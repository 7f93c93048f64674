//! Step 2 of the search: NoC and P2P bandwidth solving (paper §V-C).

use ador_hw::Architecture;
use ador_noc::{minimum_overlap_bandwidth, OverlapModel};
use ador_perf::Deployment;
use ador_units::{Bandwidth, Bytes, Seconds};

use crate::Workload;

/// Solves the ring-NoC bandwidth: the larger of (a) the weight-prefetch
/// stream that keeps the systolic arrays double-buffered during prefill and
/// (b) the core-level all-gather of GEMV final sums during decode
/// (paper §V-C: "The final NoC bandwidth is the higher of these two
/// values"), rounded up to a power-of-two GB/s. `None` when that floor
/// cannot be represented: an absurd clock overflows the prefetch rate or
/// the largest power of two a `u64` holds.
pub fn solve_noc_bandwidth(arch: &Architecture, workload: &Workload) -> Option<Bandwidth> {
    let dtype = workload.model.dtype.bytes();

    // (a) Prefill: every SA instance needs its next weight tile on time.
    let prefetch = match arch.sa {
        Some(sa) => {
            let m = workload.seq_len.min(1024);
            sa.weight_prefetch_bandwidth(m, dtype, arch.frequency)?
        }
        None => Bandwidth::from_bytes_per_sec(0.0),
    };

    // (b) Decode: per-GEMV output slices all-gathered across cores within
    // the GEMV's own streaming window.
    let gemv_output = Bytes::new((workload.batch * workload.model.hidden) as u64 * dtype);
    let gemv_window = Seconds::new(
        workload.model.hidden as f64 * workload.model.hidden as f64 * dtype as f64
            / arch.dram.bandwidth.as_bytes_per_sec(),
    );
    let sync = minimum_overlap_bandwidth(gemv_output, gemv_window, OverlapModel::pipelined());

    round_up_bandwidth(prefetch.max(sync))
}

/// Solves the P2P bandwidth: the minimum link that overlaps one layer
/// block's all-gather under its compute window, clamped to standard link
/// classes (paper §V-C: "approximately 32 GB/s, achievable with
/// PCIe-4 ×16, is sufficient").
pub fn solve_p2p_bandwidth(
    arch: &Architecture,
    workload: &Workload,
    deployment: Deployment,
) -> Bandwidth {
    if deployment.devices <= 1 {
        // Single-device serving still ships a modest link for scale-out.
        return Bandwidth::from_gbps(16.0);
    }
    let dtype = workload.model.dtype.bytes();
    let msg = Bytes::new((workload.batch * workload.model.hidden) as u64 * dtype);
    let cost = deployment.strategy.block_cost(deployment.devices, msg);
    // Compute window: one block ≈ half a layer's weight stream on this
    // device's share of the model.
    let layer_bytes = workload.model.streamed_layer_bytes(workload.batch);
    let window = Seconds::new(
        layer_bytes.get() as f64
            / (2.0 * deployment.devices as f64)
            / arch.dram.bandwidth.as_bytes_per_sec(),
    );
    let need = minimum_overlap_bandwidth(cost.bytes_per_device, window, OverlapModel::pipelined());
    round_up_link(need)
}

/// Rounds an on-chip requirement up to a power-of-two GB/s lane count, or
/// `None` past the largest power of two a `u64` holds (the cast saturates
/// there, so the check sees it).
fn round_up_bandwidth(bw: Bandwidth) -> Option<Bandwidth> {
    let gbps = bw.as_gbps().max(32.0);
    let lanes = (gbps.ceil() as u64).checked_next_power_of_two()?;
    Some(Bandwidth::from_gbps(lanes as f64))
}

/// Rounds a P2P requirement up to the nearest standard link class.
fn round_up_link(bw: Bandwidth) -> Bandwidth {
    const CLASSES: [f64; 6] = [16.0, 32.0, 64.0, 128.0, 256.0, 600.0];
    let need = bw.as_gbps();
    for class in CLASSES {
        if class >= need {
            return Bandwidth::from_gbps(class);
        }
    }
    Bandwidth::from_gbps(900.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_model::presets;

    fn arch() -> Architecture {
        ador_baselines::ador_table3()
    }

    #[test]
    fn noc_grows_with_systolic_array() {
        let w = Workload::new(presets::llama3_8b(), 128, 1024);
        let small = {
            let mut a = arch();
            a.sa = Some(ador_hw::SystolicArray::square(32));
            solve_noc_bandwidth(&a, &w).unwrap()
        };
        let large = {
            let mut a = arch();
            a.sa = Some(ador_hw::SystolicArray::square(128));
            solve_noc_bandwidth(&a, &w).unwrap()
        };
        // §V-C: "the bandwidth required to hide weight pre-fetching
        // increases with the size of the systolic array".
        assert!(large >= small, "{large} vs {small}");
    }

    #[test]
    fn single_device_needs_only_a_stub_link() {
        let w = Workload::new(presets::llama3_8b(), 128, 1024);
        let bw = solve_p2p_bandwidth(&arch(), &w, Deployment::single_device());
        assert!(bw.as_gbps() <= 16.0);
    }

    #[test]
    fn paper_claim_modest_p2p_suffices() {
        // 8-way LLaMA3-70B decode overlaps on a PCIe-class link, not
        // NVLink (§V-C / Table III's 64 GB/s).
        let w = Workload::new(presets::llama3_70b(), 128, 1024);
        let bw = solve_p2p_bandwidth(&arch(), &w, Deployment::tensor_parallel(8));
        assert!(bw.as_gbps() <= 128.0, "{bw}");
    }

    #[test]
    fn link_classes_round_up() {
        assert_eq!(round_up_link(Bandwidth::from_gbps(33.0)).as_gbps(), 64.0);
        assert_eq!(round_up_link(Bandwidth::from_gbps(700.0)).as_gbps(), 900.0);
    }
}
