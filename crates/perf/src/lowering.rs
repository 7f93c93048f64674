//! Lowering: model + phase → instruction [`Program`] (the "model mapper"
//! and "instruction generator" boxes of Fig. 14a).

use ador_hw::Architecture;
use ador_model::{ModelConfig, OpKind, Operator, Phase};

use crate::isa::{Bundle, Instruction, Program};
use crate::schedule;
use crate::{Deployment, PerfError, StepPlan};

/// Lowers one inference step of `model` under `phase` into a per-device
/// instruction program for `arch`.
///
/// The decoder stack becomes one bundle per operator with
/// `repeat = model.layers`; the embedding/final-norm/LM-head run once; TP
/// deployments get an explicit `SyncDevices` bundle per layer.
///
/// # Errors
///
/// Returns [`PerfError::InvalidPhase`] for a zero batch or length.
///
/// # Examples
///
/// ```
/// use ador_perf::{lower, Deployment};
/// use ador_model::{presets, Phase};
///
/// let program = lower(
///     &ador_baselines::ador_table3(),
///     &presets::llama3_8b(),
///     Phase::decode(32, 1024),
///     Deployment::single_device(),
/// )?;
/// assert!(program.dynamic_instruction_count() > 500);
/// # Ok::<(), ador_perf::PerfError>(())
/// ```
pub fn lower(
    arch: &Architecture,
    model: &ModelConfig,
    phase: Phase,
    deployment: Deployment,
) -> Result<Program, PerfError> {
    let plan = StepPlan::new(model, phase)?;
    let mut program = Program::new();

    for op in plan.layer_operators() {
        program.push(lower_op(arch, op, phase, deployment, model.layers));
    }
    if deployment.devices > 1 {
        // The instruction generator schedules communication to pipeline
        // behind compute (Fig. 6d); only the *exposed* remainder is emitted
        // as an explicit sync stall, mirroring the analytical model.
        let (_, layer_time) = plan.price_on(arch, deployment);
        let (cost, exposed) = plan.block_sync(deployment, layer_time);
        let exposed_bytes = deployment.link.bandwidth() * exposed;
        program.push(Bundle {
            label: "tp_sync".to_string(),
            bucket: "Others",
            instrs: vec![
                Instruction::SyncDevices {
                    bytes: exposed_bytes,
                    points: cost.sync_points
                };
                2
            ],
            repeat: model.layers,
        });
    }
    for op in plan.once_operators() {
        program.push(lower_op(arch, op, phase, deployment, 1));
    }
    Ok(program)
}

fn lower_op(
    arch: &Architecture,
    op: &Operator,
    phase: Phase,
    deployment: Deployment,
    repeat: usize,
) -> Bundle {
    let d = deployment.devices;
    let df = d as f64;
    let mut instrs = Vec::with_capacity(4);

    if !op.weight_bytes.is_zero() {
        instrs.push(Instruction::StreamWeights {
            bytes: op.weight_bytes * (1.0 / df),
        });
    }
    if !op.kv_read_bytes.is_zero() {
        let share = op.kv_read_bytes * (1.0 / df);
        let on_chip = phase.is_prefill() && share <= arch.global_mem;
        instrs.push(Instruction::ReadKv {
            bytes: share,
            on_chip,
        });
    }
    if !op.kv_write_bytes.is_zero() {
        instrs.push(Instruction::WriteKv {
            bytes: op.kv_write_bytes * (1.0 / df),
        });
    }

    match &op.kind {
        OpKind::MatMul(shape) => {
            let unit = schedule::choose_unit(arch, phase, op.class);
            let (n, count) = if shape.count > 1 {
                (shape.n, shape.count.div_ceil(d))
            } else {
                (shape.n.div_ceil(d).max(1), shape.count)
            };
            instrs.push(Instruction::MatMul {
                unit,
                m: shape.m,
                k: shape.k,
                n,
                count,
            });
        }
        OpKind::Softmax { elements } => {
            instrs.push(Instruction::Vector {
                passes: 5,
                elements: elements.div_ceil(d as u64),
            });
        }
        OpKind::Norm { elements } => {
            instrs.push(Instruction::Vector {
                passes: 4,
                elements: elements.div_ceil(d as u64),
            });
        }
        OpKind::Elementwise { elements } => {
            instrs.push(Instruction::Vector {
                passes: 1,
                elements: elements.div_ceil(d as u64),
            });
        }
        OpKind::Gather { tokens, hidden } => {
            instrs.push(Instruction::Vector {
                passes: 1,
                elements: (tokens * hidden).div_ceil(d as u64),
            });
        }
    }

    Bundle {
        label: op.name.to_string(),
        bucket: op.name.breakdown_bucket(),
        instrs,
        repeat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CycleExecutor, Evaluator};
    use ador_baselines::{a100, ador_table3};
    use ador_model::presets;
    use ador_model::workload::StepSummary;

    fn cross_validate(arch: &Architecture, phase: Phase, deployment: Deployment, tol: f64) {
        let model = presets::llama3_8b();
        let program = lower(arch, &model, phase, deployment).unwrap();
        let step_flops =
            StepSummary::compute(&model, phase).flops * (1.0 / deployment.devices as f64);
        let exec = CycleExecutor::new(arch, deployment, phase, step_flops).run(&program);
        let analytical = Evaluator::new(arch, &model, deployment)
            .unwrap()
            .step(phase)
            .unwrap();
        let rel = (exec.total.get() - analytical.total.get()).abs() / analytical.total.get();
        assert!(
            rel < tol,
            "{} {phase}: executor {} vs analytical {} (rel {rel:.3})",
            arch.name,
            exec.total,
            analytical.total
        );
    }

    #[test]
    fn executor_matches_analytical_decode() {
        cross_validate(
            &ador_table3(),
            Phase::decode(32, 1024),
            Deployment::single_device(),
            0.02,
        );
    }

    #[test]
    fn executor_matches_analytical_prefill() {
        cross_validate(
            &ador_table3(),
            Phase::prefill(2, 1024),
            Deployment::single_device(),
            0.02,
        );
    }

    #[test]
    fn executor_matches_analytical_on_gpu() {
        cross_validate(
            &a100(),
            Phase::decode(64, 2048),
            Deployment::single_device(),
            0.02,
        );
    }

    #[test]
    fn tp_lowering_emits_sync_bundles() {
        let model = presets::llama3_70b();
        let program = lower(
            &ador_table3(),
            &model,
            Phase::decode(16, 512),
            Deployment::tensor_parallel(8),
        )
        .unwrap();
        assert!(program.bundles().iter().any(|b| b.label == "tp_sync"));
    }

    #[test]
    fn decode_program_reads_kv_from_dram() {
        let model = presets::llama3_8b();
        let program = lower(
            &ador_table3(),
            &model,
            Phase::decode(8, 512),
            Deployment::single_device(),
        )
        .unwrap();
        let has_dram_kv = program
            .bundles()
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instruction::ReadKv { on_chip: false, .. }));
        assert!(has_dram_kv);
    }
}
