//! Step 1 of the search: compute-unit and memory sizing (paper §V-A, §V-B).

use ador_hw::{MacTree, SystolicArray};
use ador_units::Bytes;

use crate::{VendorConstraints, Workload};

/// MAC-tree candidates per the paper's §V-A recipe: the tree bank must
/// consume one DRAM beat per cycle (`data_size_per_cycle =
/// memory_bandwidth / core_frequency`); the lane count is swept because
/// KV-reusing attention variants (GQA/MQA, MoE) need more compute per
/// streamed byte (Fig. 11b). A beat too wide for any bank at a lane count
/// drops that candidate.
pub fn mt_candidates(vendor: &VendorConstraints, workload: &Workload) -> Vec<MacTree> {
    let dtype = workload.model.dtype.bytes();
    // Compute-per-byte of the attention: query heads per KV head decides how
    // many times a streamed KV element is reused (MQA reuses most).
    let reuse = (workload.model.heads / workload.model.kv_heads).max(1);
    let lane_options: &[usize] = if reuse >= 16 {
        &[8, 16, 32]
    } else if reuse > 1 {
        &[4, 8, 16]
    } else {
        &[1, 4, 8]
    };
    lane_options
        .iter()
        .filter_map(|&lanes| {
            MacTree::sized_for(vendor.memory_bandwidth, vendor.frequency, dtype, lanes)
        })
        .collect()
}

/// Systolic-array candidates: square arrays in multiples of 32 (§V-A:
/// "configurations are tested in multiples of 32").
pub fn sa_candidates() -> Vec<SystolicArray> {
    [32usize, 64, 96, 128]
        .iter()
        .map(|&d| SystolicArray::square(d))
        .collect()
}

/// Step 1c (§V-B): local memory from the activation-usage simulator, global
/// memory from whatever SRAM budget remains. Returns `None` when the SRAM
/// budget cannot even hold the local memories.
///
/// Activations tile along the token (row) dimension across cores (§IV-B:
/// "activations can be tiled along the token ... for computation"), so each
/// core holds its share of the batch, never less than one token.
pub fn size_memories(
    vendor: &VendorConstraints,
    workload: &Workload,
    cores: usize,
) -> Option<(Bytes, Bytes)> {
    let per_core_batch = workload.batch.div_ceil(cores).max(1);
    let need = ador_perf::local_mem::required_local_memory(
        &workload.model,
        per_core_batch,
        workload.seq_len,
    );
    // Round up to a power-of-two KiB bank size.
    let local = Bytes::from_kib((need.as_kib().ceil() as u64).next_power_of_two());
    let total_local = local * cores as u64;
    if total_local > vendor.sram_budget {
        return None;
    }
    let global = vendor.sram_budget - total_local;
    if global < Bytes::from_mib(1) {
        return None;
    }
    Some((local, global))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UserRequirements;
    use ador_model::presets;

    fn vendor() -> VendorConstraints {
        VendorConstraints::a100_class()
    }

    #[test]
    fn mt_bank_consumes_the_beat() {
        let w = Workload::new(presets::llama3_8b(), 128, 1024);
        for mt in mt_candidates(&vendor(), &w) {
            let consumed = mt.matched_bandwidth(vendor().frequency, 2);
            assert!(
                consumed.as_tbps() >= vendor().memory_bandwidth.as_tbps() * 0.99,
                "{mt} consumes only {consumed}"
            );
        }
    }

    #[test]
    fn mqa_models_get_more_lanes() {
        let gqa = Workload::new(presets::llama3_8b(), 128, 1024);
        let mqa = Workload::new(presets::falcon_7b(), 128, 1024);
        let max_lanes = |w: &Workload| {
            mt_candidates(&vendor(), w)
                .iter()
                .map(|m| m.lanes())
                .max()
                .unwrap()
        };
        assert!(max_lanes(&mqa) > max_lanes(&gqa));
    }

    #[test]
    fn sa_sweep_is_multiples_of_32() {
        for sa in sa_candidates() {
            assert_eq!(sa.rows() % 32, 0);
            assert_eq!(sa.rows(), sa.cols());
        }
    }

    #[test]
    fn memory_sizing_respects_budget() {
        let w = Workload::new(presets::llama3_8b(), 32, 1024);
        let (local, global) = size_memories(&vendor(), &w, 32).unwrap();
        assert!(local * 32 + global <= vendor().sram_budget);
        // Fig. 12 regime: ~2 MiB per core at batch 32.
        assert!(local <= Bytes::from_mib(4), "{local}");
    }

    #[test]
    fn per_core_need_shrinks_as_cores_grow() {
        // Token-dimension tiling: more cores → smaller per-core batch →
        // smaller local memories.
        let w = Workload::new(presets::llama3_8b(), 128, 2048);
        let (local8, _) = size_memories(&vendor(), &w, 8).unwrap();
        let (local128, _) = size_memories(&vendor(), &w, 128).unwrap();
        assert!(local128 <= local8);
        let _ = UserRequirements::chatbot();
    }

    #[test]
    fn tiny_sram_budget_exhausts() {
        let mut v = vendor();
        v.sram_budget = Bytes::from_mib(4);
        let w = Workload::new(presets::llama3_8b(), 128, 2048);
        assert!(size_memories(&v, &w, 128).is_none());
    }
}
