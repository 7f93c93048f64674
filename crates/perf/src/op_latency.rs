//! Per-operator latency under the HDA scheduling policy.

use core::fmt;

use ador_hw::Architecture;
use ador_model::{OpClass, OpKind, Operator, Phase};
use ador_units::{Bandwidth, FlopCount, FlopRate, Seconds};

use crate::schedule::{self, UnitChoice};
use crate::Deployment;

/// What limited an operator's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundKind {
    /// DRAM streaming (weights or KV) governed.
    Memory,
    /// Compute-unit throughput governed.
    Compute,
    /// Fixed dispatch overhead governed (tiny ops).
    Overhead,
}

impl fmt::Display for BoundKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BoundKind::Memory => "memory-bound",
            BoundKind::Compute => "compute-bound",
            BoundKind::Overhead => "overhead-bound",
        };
        f.write_str(s)
    }
}

/// Latency decomposition of one operator on one device
/// (C-INTERMEDIATE — the Fig. 11 breakdowns read the components).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpLatency {
    /// Compute-side time (the governing fabric's busy window).
    pub compute: Seconds,
    /// Memory-side time (DRAM streaming for this op's traffic share).
    pub memory: Seconds,
    /// Fixed dispatch overhead.
    pub overhead: Seconds,
    /// Which side governed.
    pub bound: BoundKind,
    /// The unit the scheduler picked.
    pub unit: UnitChoice,
}

impl OpLatency {
    /// Wall-clock time: compute and memory overlap (double buffering /
    /// direct streaming), so the op costs their maximum plus dispatch.
    pub fn total(&self) -> Seconds {
        self.compute.max(self.memory) + self.overhead
    }
}

/// The DRAM bandwidth each traffic class achieves during one step. The
/// Fig. 10 law reads only the step's per-device work, so every operator of
/// the step streams at the same two rates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamRates {
    /// Weight streaming.
    pub weight: Bandwidth,
    /// KV-cache reads and writes.
    pub attention: Bandwidth,
}

impl StreamRates {
    /// The rates on `arch` for a step of `step_flops_per_device` work.
    pub(crate) fn new(arch: &Architecture, step_flops_per_device: FlopCount) -> Self {
        let profile = &arch.profile;
        Self {
            weight: profile
                .weight_stream
                .effective(arch.dram.bandwidth, step_flops_per_device),
            attention: profile
                .attention_stream
                .effective(arch.dram.bandwidth, step_flops_per_device),
        }
    }
}

/// Computes the latency of `op` on `arch` for one step of `phase`.
///
/// `rates` are the step's stream rates ([`StreamRates::new`] at the whole
/// step's per-device work). `deployment` shards the operator across
/// tensor-parallel devices (weights and heads split; every device processes
/// the full token batch).
pub(crate) fn operator_latency(
    arch: &Architecture,
    op: &Operator,
    phase: Phase,
    deployment: Deployment,
    rates: StreamRates,
) -> OpLatency {
    let d = deployment.devices as f64;
    let profile = &arch.profile;
    let unit = schedule::choose_unit(arch, phase, op.class);

    // -- Memory side ------------------------------------------------------
    let weight_share = op.weight_bytes * (1.0 / d);
    let kv_share = op.kv_read_bytes * (1.0 / d) + op.kv_write_bytes * (1.0 / d);

    let memory = match op.class {
        OpClass::Attention => {
            // Prefill keeps the running chunk's KV in global memory
            // (paper §IV-B); it only spills to DRAM when the chunk exceeds
            // the global SRAM.
            if phase.is_prefill() && kv_share <= arch.global_mem {
                Seconds::ZERO
            } else {
                kv_share / rates.attention
            }
        }
        _ => {
            let wt = if weight_share.is_zero() {
                Seconds::ZERO
            } else {
                weight_share / rates.weight
            };
            let kt = if kv_share.is_zero() {
                Seconds::ZERO
            } else {
                kv_share / rates.attention
            };
            wt + kt
        }
    };

    // -- Compute side -----------------------------------------------------
    let compute = match &op.kind {
        OpKind::MatMul(shape) => {
            let flops = shape.flops() * (1.0 / d);
            let rate = matmul_rate(
                arch,
                unit,
                phase,
                shape.m,
                shape.k,
                shape.n,
                shape.count,
                deployment.devices,
            );
            if rate.is_zero() {
                Seconds::ZERO
            } else {
                flops / rate
            }
        }
        OpKind::Softmax { elements } => {
            vu_time(arch, arch.vu.softmax_cycles(per_device(*elements, d)))
        }
        OpKind::Norm { elements } => vu_time(arch, arch.vu.norm_cycles(per_device(*elements, d))),
        OpKind::Elementwise { elements } => {
            vu_time(arch, arch.vu.elementwise_cycles(per_device(*elements, d)))
        }
        OpKind::Gather { tokens, hidden } => vu_time(
            arch,
            arch.vu.elementwise_cycles(per_device(tokens * hidden, d)),
        ),
    };

    let overhead = profile.op_overhead;
    let bound = if compute.max(memory) < overhead {
        BoundKind::Overhead
    } else if memory >= compute {
        BoundKind::Memory
    } else {
        BoundKind::Compute
    };

    OpLatency {
        compute,
        memory,
        overhead,
        bound,
        unit,
    }
}

fn per_device(elements: u64, d: f64) -> u64 {
    ((elements as f64 / d).ceil() as u64).max(1)
}

fn vu_time(arch: &Architecture, per_core_equiv: ador_units::Cycles) -> Seconds {
    // The element count was already a device total; spread it over the
    // cores' vector units.
    let cycles = (per_core_equiv.get() as f64 / arch.cores as f64).ceil();
    Seconds::new(cycles / arch.frequency.as_hz())
}

/// Effective matmul rate for the chosen unit. Shapes are the *logical*
/// (whole-model) dimensions; tensor parallelism shards the output dimension
/// (weight ops) or the independent-GEMM count (attention heads), which this
/// resolves before asking the fabric models.
#[allow(clippy::too_many_arguments)] // one parameter per GEMM dimension
fn matmul_rate(
    arch: &Architecture,
    unit: UnitChoice,
    phase: Phase,
    m: usize,
    k: usize,
    n: usize,
    count: usize,
    devices: usize,
) -> FlopRate {
    // Shard across TP devices.
    let (n, count) = if count > 1 {
        (n, count.div_ceil(devices))
    } else {
        (n.div_ceil(devices).max(1), count)
    };
    let eff = arch.profile.gemm_efficiency;
    match unit {
        UnitChoice::Fabric => {
            let sat = schedule::simt_saturation(m);
            arch.peak_flops().derated(eff) * sat
        }
        UnitChoice::MacTree => schedule::mt_effective_rate(arch, m, k, n, count).derated(eff),
        UnitChoice::SystolicArray => schedule::sa_effective_rate(arch, m, k, n, count).derated(eff),
        UnitChoice::Both => {
            let rates = schedule::fabric_rates(arch, m, k, n, count);
            rates.combined().derated(eff)
        }
        UnitChoice::VectorUnit => {
            // A matmul should never be scheduled on the VU; treat as fabric
            // fallback so the model stays total.
            let _ = phase;
            arch.peak_flops().derated(eff)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_baselines::{a100, ador_table3, tpuv4};
    use ador_model::presets;

    fn weight_op(model: &ador_model::ModelConfig, phase: Phase) -> Operator {
        model
            .layer_operators(phase)
            .into_iter()
            .find(|o| o.name == ador_model::OpName::MlpUp)
            .unwrap()
    }

    fn attention_op(model: &ador_model::ModelConfig, phase: Phase) -> Operator {
        model
            .layer_operators(phase)
            .into_iter()
            .find(|o| o.name == ador_model::OpName::AttnScore)
            .unwrap()
    }

    const STEP: FlopCount = FlopCount::ZERO;

    /// The operator's latency within a step of `step_flops` per device.
    fn latency(
        arch: &Architecture,
        op: &Operator,
        phase: Phase,
        deployment: Deployment,
        step_flops: FlopCount,
    ) -> OpLatency {
        operator_latency(
            arch,
            op,
            phase,
            deployment,
            StreamRates::new(arch, step_flops),
        )
    }

    fn big_step() -> FlopCount {
        FlopCount::new(1e12)
    }

    #[test]
    fn decode_weight_op_is_memory_bound_at_small_batch() {
        let model = presets::llama3_8b();
        let arch = ador_table3();
        let op = weight_op(&model, Phase::decode(1, 512));
        let lat = latency(
            &arch,
            &op,
            Phase::decode(1, 512),
            Deployment::single_device(),
            big_step(),
        );
        assert_eq!(lat.bound, BoundKind::Memory);
        // 117 MB of fp16 weights at ≤1.8 TB/s effective: at least 65 µs.
        assert!(lat.total().as_micros() > 60.0, "{:?}", lat);
    }

    #[test]
    fn prefill_weight_op_is_compute_bound() {
        let model = presets::llama3_8b();
        let arch = ador_table3();
        let phase = Phase::prefill(1, 1024);
        let op = weight_op(&model, phase);
        let lat = latency(&arch, &op, phase, Deployment::single_device(), big_step());
        assert_eq!(lat.bound, BoundKind::Compute);
    }

    #[test]
    fn prefill_attention_reads_kv_from_global_memory() {
        let model = presets::llama3_8b();
        let arch = ador_table3();
        let phase = Phase::prefill(1, 1024);
        let op = attention_op(&model, phase);
        let lat = latency(&arch, &op, phase, Deployment::single_device(), big_step());
        assert_eq!(lat.memory, Seconds::ZERO, "chunk KV must stay on-chip");
    }

    #[test]
    fn decode_attention_streams_kv_from_dram() {
        let model = presets::llama3_8b();
        let arch = ador_table3();
        let phase = Phase::decode(32, 1024);
        let op = attention_op(&model, phase);
        let lat = latency(&arch, &op, phase, Deployment::single_device(), big_step());
        assert!(lat.memory > Seconds::ZERO);
        assert_eq!(lat.unit, UnitChoice::MacTree);
    }

    #[test]
    fn gpu_pays_kernel_launch_overhead() {
        let model = presets::llama3_8b();
        let phase = Phase::decode(1, 128);
        let op = weight_op(&model, phase);
        let gpu = latency(&a100(), &op, phase, Deployment::single_device(), STEP);
        let npu = latency(
            &ador_table3(),
            &op,
            phase,
            Deployment::single_device(),
            STEP,
        );
        assert!(gpu.overhead > npu.overhead);
    }

    #[test]
    fn tensor_parallelism_shrinks_op_time() {
        let model = presets::llama3_70b();
        let arch = ador_table3();
        let phase = Phase::decode(16, 1024);
        let op = weight_op(&model, phase);
        let one = latency(&arch, &op, phase, Deployment::single_device(), big_step());
        let eight = latency(
            &arch,
            &op,
            phase,
            Deployment::tensor_parallel(8),
            big_step(),
        );
        let ratio = one.total().get() / eight.total().get();
        assert!(ratio > 5.0, "TP-8 should cut the op ~8x, got {ratio:.2}");
    }

    #[test]
    fn tpu_decode_gemv_underutilizes() {
        // TPUv4's big systolic arrays crawl on GEMV (Table II); the op ends
        // up memory-bound but with dismal compute-side utilization as well.
        let model = presets::llama3_8b();
        let phase = Phase::decode(1, 128);
        let op = weight_op(&model, phase);
        let tpu = latency(&tpuv4(), &op, phase, Deployment::single_device(), STEP);
        let ador = latency(
            &ador_table3(),
            &op,
            phase,
            Deployment::single_device(),
            STEP,
        );
        assert!(tpu.total() > ador.total());
    }

    #[test]
    fn vector_ops_are_cheap() {
        let model = presets::llama3_8b();
        let phase = Phase::decode(32, 1024);
        let op = model
            .layer_operators(phase)
            .into_iter()
            .find(|o| o.name == ador_model::OpName::AttnNorm)
            .unwrap();
        let lat = latency(
            &ador_table3(),
            &op,
            phase,
            Deployment::single_device(),
            STEP,
        );
        assert!(lat.total().as_micros() < 10.0);
    }
}
