//! Cross-validation between the analytical model and the instruction-level
//! executor, plus property-based invariants spanning crates.

use ador::baselines;
use ador::model::workload::StepSummary;
use ador::model::{presets, Phase};
use ador::perf::{lower, CycleExecutor, Deployment, Evaluator};
use proptest::prelude::*;

fn cross_validate(
    arch: &ador::hw::Architecture,
    model: &ador::model::ModelConfig,
    phase: Phase,
    deployment: Deployment,
) -> (f64, f64) {
    let program = lower(arch, model, phase, deployment).unwrap();
    let step_flops = StepSummary::compute(model, phase).flops * (1.0 / deployment.devices as f64);
    let exec = CycleExecutor::new(arch, deployment, phase, step_flops).run(&program);
    let analytical = Evaluator::new(arch, model, deployment)
        .unwrap()
        .step(phase)
        .unwrap();
    (exec.total.get(), analytical.total.get())
}

/// The compiler-stack executor agrees with the analytical evaluator across
/// the architecture zoo and both phases (Fig. 14a consistency).
#[test]
fn executor_agrees_across_the_zoo() {
    let model = presets::llama3_8b();
    let phases = [
        Phase::decode(16, 512),
        Phase::decode(96, 2048),
        Phase::prefill(2, 1024),
    ];
    for arch in [
        baselines::ador_table3(),
        baselines::a100(),
        baselines::llmcompass_l(),
        baselines::llmcompass_t(),
    ] {
        for phase in phases {
            let (exec, analytical) =
                cross_validate(&arch, &model, phase, Deployment::single_device());
            let rel = (exec - analytical).abs() / analytical;
            assert!(
                rel < 0.05,
                "{} {phase}: {exec:.5} vs {analytical:.5}",
                arch.name
            );
        }
    }
}

/// Same agreement under tensor parallelism (sync bundles included).
#[test]
fn executor_agrees_multi_device() {
    let model = presets::llama3_70b();
    let arch = baselines::ador_table3();
    for phase in [Phase::decode(32, 1024), Phase::prefill(1, 512)] {
        let (exec, analytical) =
            cross_validate(&arch, &model, phase, Deployment::tensor_parallel(8));
        let rel = (exec - analytical).abs() / analytical;
        assert!(
            rel < 0.05,
            "{phase}: {exec:.5} vs {analytical:.5} (rel {rel:.3})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Decode latency is monotone in batch for every baseline — above the
    /// effective-bandwidth law's saturation point (below it, bigger steps
    /// legitimately stream *faster* per Fig. 10, so tiny batches can beat
    /// batch 1).
    #[test]
    fn decode_monotone_in_batch(batch in 8usize..96, arch_idx in 0usize..4) {
        let archs = [
            baselines::ador_table3(),
            baselines::a100(),
            baselines::llmcompass_l(),
            baselines::llmcompass_t(),
        ];
        let arch = &archs[arch_idx];
        let model = presets::llama3_8b();
        let eval = Evaluator::new(arch, &model, Deployment::single_device()).unwrap();
        let small = eval.decode_interval(batch, 1024).unwrap();
        let large = eval.decode_interval(batch + 8, 1024).unwrap();
        prop_assert!(large >= small * 0.999, "{}: {} vs {}", arch.name, small, large);
    }

    /// Decode latency is monotone in context length (more KV to stream).
    #[test]
    fn decode_monotone_in_context(ctx in 128usize..4096) {
        let arch = baselines::ador_table3();
        let model = presets::llama3_8b();
        let eval = Evaluator::new(&arch, &model, Deployment::single_device()).unwrap();
        let small = eval.decode_interval(32, ctx).unwrap();
        let large = eval.decode_interval(32, ctx + 512).unwrap();
        prop_assert!(large >= small * 0.999);
    }

    /// Prefill of n tokens always costs more than one decode step at the
    /// same batch (n ≥ 2 tokens of compute vs 1).
    #[test]
    fn prefill_dominates_decode(batch in 1usize..32, seq in 64usize..2048) {
        let arch = baselines::ador_table3();
        let model = presets::llama3_8b();
        let eval = Evaluator::new(&arch, &model, Deployment::single_device()).unwrap();
        let prefill = eval.ttft(batch, seq).unwrap();
        let decode = eval.decode_interval(batch, seq).unwrap();
        prop_assert!(prefill > decode);
    }

    /// Tensor parallelism never makes a step slower than 1.05x the
    /// single-device time (sync can eat gains but not reverse them at
    /// these scales).
    #[test]
    fn tp_never_pathological(devices in 2usize..9, batch in 8usize..64) {
        let arch = baselines::ador_table3();
        let model = presets::llama3_8b();
        let single = Evaluator::new(&arch, &model, Deployment::single_device())
            .unwrap()
            .decode_interval(batch, 1024)
            .unwrap();
        let multi = Evaluator::new(&arch, &model, Deployment::tensor_parallel(devices))
            .unwrap()
            .decode_interval(batch, 1024)
            .unwrap();
        prop_assert!(multi <= single * 1.05, "TP{devices}: {multi} vs {single}");
    }

    /// The lowered program's dynamic instruction count scales with layers
    /// and never comes out empty.
    #[test]
    fn lowering_covers_the_model(batch in 1usize..64) {
        let arch = baselines::ador_table3();
        let model = presets::llama3_8b();
        let program =
            lower(&arch, &model, Phase::decode(batch, 256), Deployment::single_device()).unwrap();
        prop_assert!(program.dynamic_instruction_count() >= model.layers * 10);
    }
}
