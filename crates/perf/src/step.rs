//! Whole-step latency: the quantity behind TTFT, TBT and every Fig. 11/15
//! series.
//!
//! A step is priced in two halves. A [`StepPlan`] holds everything that
//! depends only on the (model, phase) pair: the operator lists, the step's
//! FLOPs and DRAM bytes, its KV-cache footprint and the Fig. 11 bucket each
//! operator feeds. [`Evaluator::price`] adds what depends on the
//! architecture and deployment: the stream rates, each operator's latency
//! and the tensor-parallel sync. One plan prices on any number of
//! evaluators bound to its model.

use core::fmt;

use ador_hw::Architecture;
use ador_model::workload::StepSummary;
use ador_model::{graph, ModelConfig, Operator, Phase};
use ador_noc::CollectiveCost;
use ador_units::{Bytes, FlopCount, Seconds, Utilization};

use crate::op_latency::{operator_latency, StreamRates};
use crate::{Deployment, PerfError};

/// Distinct Fig. 11 buckets one step can fill:
/// `OpName::breakdown_bucket` names eight.
const MAX_BUCKETS: usize = 8;

/// Latency of one inference step (a full prefill pass or one decode step),
/// with the per-bucket breakdown the paper plots in Fig. 11.
#[derive(Clone)]
pub struct StepLatency {
    /// Wall-clock step time (operators + exposed synchronization).
    pub total: Seconds,
    /// Sum of operator times.
    pub ops_time: Seconds,
    /// Exposed tensor-parallel communication (wire + barriers).
    pub sync_time: Seconds,
    /// Sum of the operators' memory-side components (per device).
    pub memory_time: Seconds,
    /// Per-device floating-point work.
    pub flops_per_device: FlopCount,
    /// Per-device DRAM traffic.
    pub dram_bytes_per_device: Bytes,
    /// Time per Fig. 11 breakdown bucket ("QKV Proj", "MHA", "Out Proj",
    /// "MLP1", "MLP2", "LM-Head", "Embed", "Others") in first-seen order;
    /// only the first `bucket_count` entries are in use.
    buckets: [(&'static str, Seconds); MAX_BUCKETS],
    bucket_count: usize,
}

impl StepLatency {
    /// Time spent in one breakdown bucket (zero if absent).
    pub fn bucket(&self, name: &str) -> Seconds {
        self.buckets()
            .iter()
            .find(|(b, _)| *b == name)
            .map(|(_, t)| *t)
            .unwrap_or(Seconds::ZERO)
    }

    /// All buckets in insertion order.
    pub fn buckets(&self) -> &[(&'static str, Seconds)] {
        &self.buckets[..self.bucket_count]
    }

    /// Achieved DRAM utilization over the step.
    pub fn dram_utilization(&self, spec: ador_units::Bandwidth) -> Utilization {
        let ideal = Seconds::new(self.dram_bytes_per_device.get() as f64 / spec.as_bytes_per_sec());
        Utilization::new_clamped(ideal.get() / self.total.get())
    }
}

impl fmt::Debug for StepLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepLatency")
            .field("total", &self.total)
            .field("ops_time", &self.ops_time)
            .field("sync_time", &self.sync_time)
            .field("memory_time", &self.memory_time)
            .field("flops_per_device", &self.flops_per_device)
            .field("dram_bytes_per_device", &self.dram_bytes_per_device)
            .field("buckets", &self.buckets())
            .finish()
    }
}

impl PartialEq for StepLatency {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.ops_time == other.ops_time
            && self.sync_time == other.sync_time
            && self.memory_time == other.memory_time
            && self.flops_per_device == other.flops_per_device
            && self.dram_bytes_per_device == other.dram_bytes_per_device
            && self.buckets() == other.buckets()
    }
}

/// The model side of one step: everything about a (model, phase) pair
/// that no architecture or deployment changes. Build it once, then price
/// it with [`Evaluator::price`] on every evaluator bound to the same model
/// — the design search prices one prefill and one decode plan per
/// candidate architecture.
///
/// A plan always has a non-zero batch and length, so every priced step is
/// well-formed.
///
/// # Examples
///
/// ```
/// use ador_model::{presets, Phase};
/// use ador_perf::{Deployment, Evaluator, PerfError, StepPlan};
///
/// let model = presets::llama3_8b();
/// let plan = StepPlan::new(&model, Phase::decode(64, 1024))?;
/// let (ador, a100) = (ador_baselines::ador_table3(), ador_baselines::a100());
/// let on_ador = Evaluator::new(&ador, &model, Deployment::single_device())?;
/// let on_a100 = Evaluator::new(&a100, &model, Deployment::single_device())?;
/// assert!(on_ador.price(&plan)?.total < on_a100.price(&plan)?.total);
/// // `step` builds the same plan and prices it.
/// assert_eq!(on_ador.price(&plan)?, on_ador.step(Phase::decode(64, 1024))?);
///
/// // Zero-sized phases never become plans.
/// let empty = Phase::Decode { batch: 0, context_len: 1024 };
/// assert_eq!(StepPlan::new(&model, empty).unwrap_err(), PerfError::InvalidPhase(empty));
/// # Ok::<(), PerfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StepPlan<'m> {
    model: &'m ModelConfig,
    phase: Phase,
    layer_ops: Vec<Operator>,
    once_ops: Vec<Operator>,
    /// The bucket slot of every operator, layer operators first.
    slots: Vec<usize>,
    /// Bucket names in first-seen order; the first `bucket_count` are used.
    bucket_names: [&'static str; MAX_BUCKETS],
    bucket_count: usize,
    summary: StepSummary,
    /// The phase's KV cache across all devices.
    kv_bytes: Bytes,
}

impl<'m> StepPlan<'m> {
    /// Plans one step of `model` under `phase`.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::InvalidPhase`] if the phase's batch or its
    /// prompt/context length is zero.
    pub fn new(model: &'m ModelConfig, phase: Phase) -> Result<Self, PerfError> {
        let (batch, len) = match phase {
            Phase::Prefill { batch, prompt_len } => (batch, prompt_len),
            Phase::Decode { batch, context_len } => (batch, context_len),
        };
        if batch == 0 || len == 0 {
            return Err(PerfError::InvalidPhase(phase));
        }
        let layer_ops = graph::layer_operators(model, phase);
        let once_ops = graph::once_operators(model, phase);
        let mut bucket_names = [""; MAX_BUCKETS];
        let mut bucket_count = 0;
        let slots = layer_ops
            .iter()
            .chain(&once_ops)
            .map(|op| {
                let name = op.name.breakdown_bucket();
                match bucket_names[..bucket_count].iter().position(|b| *b == name) {
                    Some(slot) => slot,
                    None => {
                        bucket_names[bucket_count] = name;
                        bucket_count += 1;
                        bucket_count - 1
                    }
                }
            })
            .collect();
        let summary = StepSummary::from_operators(&layer_ops, model.layers, &once_ops);
        Ok(Self {
            model,
            phase,
            layer_ops,
            once_ops,
            slots,
            bucket_names,
            bucket_count,
            summary,
            kv_bytes: model.kv_cache_bytes(batch, len),
        })
    }

    /// The whole step's totals across all devices: FLOPs, DRAM bytes and
    /// their breakdown.
    pub fn summary(&self) -> &StepSummary {
        &self.summary
    }

    /// One decoder layer's operators, in execution order.
    pub(crate) fn layer_operators(&self) -> &[Operator] {
        &self.layer_ops
    }

    /// The operators that run once per step (embedding, final norm, LM head).
    pub(crate) fn once_operators(&self) -> &[Operator] {
        &self.once_ops
    }

    /// Prices the step on `arch` under `deployment`, without the fit checks
    /// [`Evaluator::price`] makes. Also returns one decoder layer's busy
    /// time, the window tensor-parallel sync hides behind.
    pub(crate) fn price_on(
        &self,
        arch: &Architecture,
        deployment: Deployment,
    ) -> (StepLatency, Seconds) {
        let layers = self.model.layers as f64;
        let d = deployment.devices as f64;
        let step_flops = self.summary.flops * (1.0 / d);
        let rates = StreamRates::new(arch, step_flops);
        let mut out = StepLatency {
            total: Seconds::ZERO,
            ops_time: Seconds::ZERO,
            sync_time: Seconds::ZERO,
            memory_time: Seconds::ZERO,
            flops_per_device: step_flops,
            dram_bytes_per_device: self.summary.dram_bytes() * (1.0 / d),
            buckets: self.bucket_names.map(|name| (name, Seconds::ZERO)),
            bucket_count: self.bucket_count,
        };
        let (layer_slots, once_slots) = self.slots.split_at(self.layer_ops.len());

        let mut layer_time = Seconds::ZERO;
        for (op, &slot) in self.layer_ops.iter().zip(layer_slots) {
            let lat = operator_latency(arch, op, self.phase, deployment, rates);
            layer_time += lat.total();
            out.memory_time += lat.memory * layers;
            out.buckets[slot].1 += lat.total() * layers;
        }

        let mut once_time = Seconds::ZERO;
        for (op, &slot) in self.once_ops.iter().zip(once_slots) {
            let lat = operator_latency(arch, op, self.phase, deployment, rates);
            once_time += lat.total();
            out.memory_time += lat.memory;
            out.buckets[slot].1 += lat.total();
        }

        out.ops_time = layer_time * layers + once_time;
        out.sync_time = self.layer_sync_time(deployment, layer_time) * layers;
        out.total = out.ops_time + out.sync_time;
        (out, layer_time)
    }

    /// Exposed TP synchronization per layer: two Megatron-fusable blocks
    /// (attention, MLP), each syncing the layer's activations.
    fn layer_sync_time(&self, deployment: Deployment, layer_time: Seconds) -> Seconds {
        if deployment.devices == 1 {
            return Seconds::ZERO;
        }
        let (cost, exposed) = self.block_sync(deployment, layer_time);
        let barriers = deployment.link.latency() * cost.sync_points as f64;
        (exposed + barriers) * 2.0
    }

    /// One block's activation sync under `deployment`: the collective's
    /// cost, and the wire time left exposed once it overlaps the block's
    /// half of `layer_time`.
    pub(crate) fn block_sync(
        &self,
        deployment: Deployment,
        layer_time: Seconds,
    ) -> (CollectiveCost, Seconds) {
        let msg =
            Bytes::new((self.phase.rows() * self.model.hidden) as u64 * self.model.dtype.bytes());
        let cost = deployment.strategy.block_cost(deployment.devices, msg);
        let wire = cost.wire_time(deployment.link.bandwidth());
        let overlap = deployment.tensor_parallel_plan().overlap();
        (cost, overlap.exposed(layer_time / 2.0, wire))
    }
}

/// Evaluates a (model, architecture, deployment) triple across phases.
///
/// # Examples
///
/// ```
/// use ador_perf::{Deployment, Evaluator};
/// use ador_model::{presets, Phase};
///
/// let model = presets::llama3_8b();
/// let arch = ador_baselines::ador_table3();
/// let eval = Evaluator::new(&arch, &model, Deployment::single_device())?;
/// let tbt = eval.decode_interval(64, 1024)?;
/// assert!(tbt.as_millis() > 5.0 && tbt.as_millis() < 60.0);
/// # Ok::<(), ador_perf::PerfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    arch: &'a Architecture,
    model: &'a ModelConfig,
    deployment: Deployment,
}

impl<'a> Evaluator<'a> {
    /// Binds an architecture, model and deployment.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::InvalidArchitecture`] if the architecture fails
    /// validation, or [`PerfError::ModelTooLarge`] if the per-device weight
    /// shard exceeds device memory.
    pub fn new(
        arch: &'a Architecture,
        model: &'a ModelConfig,
        deployment: Deployment,
    ) -> Result<Self, PerfError> {
        arch.validate().map_err(PerfError::InvalidArchitecture)?;
        let shard = model.weight_bytes() * (1.0 / deployment.devices as f64);
        if shard > arch.dram.capacity {
            return Err(PerfError::ModelTooLarge {
                model: model.name.clone(),
                needed: shard,
                capacity: arch.dram.capacity,
                devices: deployment.devices,
            });
        }
        Ok(Self {
            arch,
            model,
            deployment,
        })
    }

    /// The bound architecture.
    pub fn architecture(&self) -> &Architecture {
        self.arch
    }

    /// The bound model.
    pub fn model(&self) -> &ModelConfig {
        self.model
    }

    /// The bound deployment.
    pub fn deployment(&self) -> Deployment {
        self.deployment
    }

    /// Latency of one step of `phase`: plans it and prices the plan.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::InvalidPhase`] for a zero batch or length, and
    /// propagates [`Self::price`] errors.
    pub fn step(&self, phase: Phase) -> Result<StepLatency, PerfError> {
        self.price(&StepPlan::new(self.model, phase)?)
    }

    /// Prices a planned step on the bound architecture and deployment.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::PlanModelMismatch`] if `plan` was built for a
    /// different model, or [`PerfError::KvCacheTooLarge`] if the phase's KV
    /// cache does not fit next to the weight shard.
    pub fn price(&self, plan: &StepPlan<'_>) -> Result<StepLatency, PerfError> {
        if !core::ptr::eq(plan.model, self.model) && plan.model != self.model {
            return Err(PerfError::PlanModelMismatch {
                plan: plan.model.name.clone(),
                evaluator: self.model.name.clone(),
            });
        }
        self.check_kv(plan.kv_bytes)?;
        Ok(plan.price_on(self.arch, self.deployment).0)
    }

    fn check_kv(&self, kv_bytes: Bytes) -> Result<(), PerfError> {
        let d = self.deployment.devices as f64;
        let kv = kv_bytes * (1.0 / d);
        let weights = self.model.weight_bytes() * (1.0 / d);
        let available = self.arch.dram.capacity.saturating_sub(weights);
        if kv > available {
            return Err(PerfError::KvCacheTooLarge { kv, available });
        }
        Ok(())
    }

    /// Time-to-first-token: the prefill pass for `batch` prompts of
    /// `prompt_len` tokens.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::step`] errors.
    pub fn ttft(&self, batch: usize, prompt_len: usize) -> Result<Seconds, PerfError> {
        Ok(self.step(Phase::Prefill { batch, prompt_len })?.total)
    }

    /// Time-between-tokens: one decode step at the given batch and context.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::step`] errors.
    pub fn decode_interval(&self, batch: usize, context_len: usize) -> Result<Seconds, PerfError> {
        Ok(self.step(Phase::Decode { batch, context_len })?.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_baselines::{a100, ador_table3, llmcompass_l, llmcompass_t};
    use ador_hw::memory::DramSpec;
    use ador_hw::{MacTree, ProcessNode, SystolicArray};
    use ador_model::presets;
    use ador_units::{Bandwidth, Frequency};

    /// `Evaluator::step` as it stood before step plans: it builds the
    /// operator graph twice, evaluates the stream law once per operator
    /// and finds each bucket by name. The pricing oracle holds the
    /// plan-based path to these bits.
    fn reference_step(eval: &Evaluator<'_>, phase: Phase) -> Result<StepLatency, PerfError> {
        let (arch, model, deployment) = (eval.arch, eval.model, eval.deployment);
        let d = deployment.devices as f64;
        let context_len = match phase {
            Phase::Prefill { prompt_len, .. } => prompt_len,
            Phase::Decode { context_len, .. } => context_len,
        };
        let kv = model.kv_cache_bytes(phase.batch(), context_len) * (1.0 / d);
        let weights = model.weight_bytes() * (1.0 / d);
        let available = arch.dram.capacity.saturating_sub(weights);
        if kv > available {
            return Err(PerfError::KvCacheTooLarge { kv, available });
        }
        let summary = StepSummary::compute(model, phase);
        let step_flops = summary.flops * (1.0 / d);
        let mut out = StepLatency {
            total: Seconds::ZERO,
            ops_time: Seconds::ZERO,
            sync_time: Seconds::ZERO,
            memory_time: Seconds::ZERO,
            flops_per_device: step_flops,
            dram_bytes_per_device: summary.dram_bytes() * (1.0 / d),
            buckets: [("", Seconds::ZERO); MAX_BUCKETS],
            bucket_count: 0,
        };
        let mut buckets: Vec<(&'static str, Seconds)> = Vec::new();
        let op = |op: &Operator| {
            let rates = StreamRates::new(arch, step_flops);
            operator_latency(arch, op, phase, deployment, rates)
        };
        let add_bucket = |buckets: &mut Vec<(&'static str, Seconds)>, name, t| match buckets
            .iter_mut()
            .find(|(b, _)| *b == name)
        {
            Some((_, acc)) => *acc += t,
            None => buckets.push((name, t)),
        };

        let mut layer_time = Seconds::ZERO;
        for o in &graph::layer_operators(model, phase) {
            let lat = op(o);
            layer_time += lat.total();
            out.memory_time += lat.memory * model.layers as f64;
            add_bucket(
                &mut buckets,
                o.name.breakdown_bucket(),
                lat.total() * model.layers as f64,
            );
        }
        let mut once_time = Seconds::ZERO;
        for o in &graph::once_operators(model, phase) {
            let lat = op(o);
            once_time += lat.total();
            out.memory_time += lat.memory;
            add_bucket(&mut buckets, o.name.breakdown_bucket(), lat.total());
        }

        out.ops_time = layer_time * model.layers as f64 + once_time;
        let sync = if deployment.devices == 1 {
            Seconds::ZERO
        } else {
            let msg = Bytes::new((phase.rows() * model.hidden) as u64 * model.dtype.bytes());
            let overlap = deployment.tensor_parallel_plan().overlap();
            let cost = deployment.strategy.block_cost(deployment.devices, msg);
            let wire = cost.wire_time(deployment.link.bandwidth());
            let barriers = deployment.link.latency() * cost.sync_points as f64;
            (overlap.exposed(layer_time / 2.0, wire) + barriers) * 2.0
        };
        out.sync_time = sync * model.layers as f64;
        out.total = out.ops_time + out.sync_time;
        out.buckets[..buckets.len()].copy_from_slice(&buckets);
        out.bucket_count = buckets.len();
        Ok(out)
    }

    /// Every reported number as raw bits, buckets in order.
    type Bits = (Vec<u64>, Vec<(&'static str, u64)>);

    fn bits_of(step: &StepLatency) -> Bits {
        let fields = vec![
            step.total.get().to_bits(),
            step.ops_time.get().to_bits(),
            step.sync_time.get().to_bits(),
            step.memory_time.get().to_bits(),
            step.flops_per_device.get().to_bits(),
            step.dram_bytes_per_device.get(),
        ];
        let buckets = step.buckets().iter().map(|(b, t)| (*b, t.get().to_bits()));
        (fields, buckets.collect())
    }

    /// Candidates built the way `ador-search` builds them: each
    /// systolic-array size it sweeps, MAC trees sized to an A100-class
    /// memory system at several lane counts, and core counts whose local
    /// memories leave different global SRAM.
    fn search_like_candidates() -> Vec<Architecture> {
        let bandwidth = Bandwidth::from_tbps(2.0);
        let frequency = Frequency::from_mhz(1500.0);
        let mut out = Vec::new();
        for lanes in [1, 4, 16] {
            for sa in [32, 64, 96, 128] {
                for cores in [8, 32, 128] {
                    let local = Bytes::from_kib(256);
                    let arch = Architecture::builder(format!("ADOR sa{sa} mt{lanes} c{cores}"))
                        .cores(cores)
                        .systolic_array(SystolicArray::square(sa))
                        .mac_tree(MacTree::sized_for(bandwidth, frequency, 2, lanes))
                        .local_memory(local)
                        .global_memory(Bytes::from_mib(80) - local * cores as u64)
                        .dram(DramSpec::hbm2e(Bytes::from_gib(80), bandwidth))
                        .frequency(frequency)
                        .process(ProcessNode::N7)
                        .build();
                    out.push(arch);
                }
            }
        }
        out
    }

    /// Prices the oracle grid on `archs` both ways and returns how many
    /// steps priced and how many errored, asserting bitwise agreement.
    fn oracle_grid(archs: &[Architecture]) -> (usize, usize) {
        let (mut priced, mut errors) = (0, 0);
        for arch in archs {
            for model in presets::all() {
                for devices in [1, 2, 8] {
                    let deployment = if devices == 1 {
                        Deployment::single_device()
                    } else {
                        Deployment::tensor_parallel(devices)
                    };
                    let Ok(eval) = Evaluator::new(arch, &model, deployment) else {
                        continue;
                    };
                    for batch in [1, 3, 16, 64, 150] {
                        for len in [1, 128, 1000, 4096] {
                            for phase in [Phase::prefill(batch, len), Phase::decode(batch, len)] {
                                let case =
                                    format!("{} {} TP{devices} {phase}", arch.name, model.name);
                                match (eval.step(phase), reference_step(&eval, phase)) {
                                    (Ok(new), Ok(old)) => {
                                        assert_eq!(bits_of(&new), bits_of(&old), "{case}");
                                        priced += 1;
                                    }
                                    (Err(new), Err(old)) => {
                                        assert_eq!(new, old, "{case}");
                                        errors += 1;
                                    }
                                    (new, old) => panic!(
                                        "{case}: plan {:?} vs reference {:?}",
                                        new.err(),
                                        old.err()
                                    ),
                                }
                            }
                        }
                    }
                }
            }
        }
        (priced, errors)
    }

    #[test]
    fn pricing_matches_the_pre_plan_reference_bit_for_bit() {
        let (priced, errors) = oracle_grid(&ador_baselines::registry());
        assert_eq!((priced, errors), (9_414, 546));
    }

    #[test]
    fn pricing_matches_the_reference_on_search_candidates() {
        let (priced, errors) = oracle_grid(&search_like_candidates());
        assert!(
            priced > 10_000 && errors > 0,
            "{priced} priced, {errors} errors"
        );
    }

    #[test]
    fn zero_sized_phases_are_errors_not_panics() {
        let model = presets::llama3_8b();
        let arch = ador_table3();
        let eval = Evaluator::new(&arch, &model, Deployment::single_device()).unwrap();
        let invalid = |phase| Err::<Seconds, _>(PerfError::InvalidPhase(phase));
        let empty_prefill = Phase::Prefill {
            batch: 0,
            prompt_len: 128,
        };
        let empty_decode = Phase::Decode {
            batch: 4,
            context_len: 0,
        };
        assert_eq!(eval.ttft(0, 128), invalid(empty_prefill));
        assert_eq!(eval.decode_interval(4, 0), invalid(empty_decode));
        for phase in [
            Phase::Decode {
                batch: 0,
                context_len: 1024,
            },
            Phase::Prefill {
                batch: 1,
                prompt_len: 0,
            },
        ] {
            assert_eq!(eval.step(phase), Err(PerfError::InvalidPhase(phase)));
            assert!(crate::lower(&arch, &model, phase, Deployment::tensor_parallel(2)).is_err());
        }
    }

    #[test]
    fn a_plan_prices_only_on_its_own_model() {
        let (small, large) = (presets::llama3_8b(), presets::llama2_7b());
        let arch = ador_table3();
        let eval = Evaluator::new(&arch, &small, Deployment::single_device()).unwrap();
        let phase = Phase::decode(16, 1024);
        let foreign = StepPlan::new(&large, phase).unwrap();
        assert!(matches!(
            eval.price(&foreign),
            Err(PerfError::PlanModelMismatch { .. })
        ));
        // An equal copy of the bound model is the same model.
        let copy = small.clone();
        let plan = StepPlan::new(&copy, phase).unwrap();
        assert_eq!(eval.price(&plan), eval.step(phase));
    }

    #[test]
    fn one_plan_prices_like_a_fresh_step_on_every_architecture() {
        let model = presets::llama3_8b();
        let phase = Phase::prefill(2, 1000);
        let plan = StepPlan::new(&model, phase).unwrap();
        assert_eq!(*plan.summary(), StepSummary::compute(&model, phase));
        for arch in ador_baselines::registry() {
            let Ok(eval) = Evaluator::new(&arch, &model, Deployment::single_device()) else {
                continue; // the model does not fit this chip's memory
            };
            assert_eq!(eval.price(&plan), eval.step(phase), "{}", arch.name);
        }
    }

    fn tbt_tok_per_s(arch: &Architecture, batch: usize) -> f64 {
        let model = presets::llama3_8b();
        let eval = Evaluator::new(arch, &model, Deployment::single_device()).unwrap();
        1.0 / eval.decode_interval(batch, 1024).unwrap().get()
    }

    #[test]
    fn fig15a_tbt_ordering_at_high_batch() {
        // Paper Fig. 15a at batch 150: ADOR best, then LLMCompass-L, then
        // A100 and LLMCompass-T trailing.
        let ador = tbt_tok_per_s(&ador_table3(), 150);
        let l = tbt_tok_per_s(&llmcompass_l(), 150);
        let a = tbt_tok_per_s(&a100(), 150);
        let t = tbt_tok_per_s(&llmcompass_t(), 150);
        assert!(ador > l, "ador {ador:.1} vs L {l:.1}");
        assert!(l > a, "L {l:.1} vs A100 {a:.1}");
        assert!(ador > t, "ador {ador:.1} vs T {t:.1}");
    }

    #[test]
    fn fig15a_ador_beats_a100_tbt_with_growing_gap() {
        let gap16 = tbt_tok_per_s(&ador_table3(), 16) / tbt_tok_per_s(&a100(), 16);
        let gap150 = tbt_tok_per_s(&ador_table3(), 150) / tbt_tok_per_s(&a100(), 150);
        assert!(
            gap150 > gap16,
            "gap should grow with batch: {gap16:.2} -> {gap150:.2}"
        );
        // Paper reports 2.36x at batch 150; accept the right regime.
        assert!((1.5..3.5).contains(&gap150), "{gap150:.2}");
    }

    #[test]
    fn fig15a_ttft_ordering() {
        // LLMCompass-T (786 TFLOPS) prefills fastest; LLMCompass-L
        // (196 TFLOPS) slowest; ADOR beats the A100 by ~1.9x.
        let model = presets::llama3_8b();
        let ttft = |arch: &Architecture| {
            Evaluator::new(arch, &model, Deployment::single_device())
                .unwrap()
                .ttft(1, 1024)
                .unwrap()
        };
        let a = ttft(&a100());
        let ador = ttft(&ador_table3());
        let l = ttft(&llmcompass_l());
        let t = ttft(&llmcompass_t());
        assert!(
            t < ador && ador < a && a < l,
            "t {t} ador {ador} a {a} l {l}"
        );
        let ratio = a.get() / ador.get();
        assert!(
            (1.4..2.6).contains(&ratio),
            "paper reports ~1.93x, got {ratio:.2}"
        );
    }

    #[test]
    fn decode_breakdown_is_attention_heavy_at_long_context() {
        let model = presets::llama3_8b();
        let arch = ador_table3();
        let eval = Evaluator::new(&arch, &model, Deployment::single_device()).unwrap();
        let step = eval.step(Phase::decode(64, 8192)).unwrap();
        let mha = step.bucket("MHA");
        assert!(mha > step.bucket("MLP1") + step.bucket("MLP2"));
    }

    #[test]
    fn buckets_sum_to_ops_time() {
        let model = presets::llama3_8b();
        let arch = ador_table3();
        let eval = Evaluator::new(&arch, &model, Deployment::single_device()).unwrap();
        let step = eval.step(Phase::decode(32, 1024)).unwrap();
        let sum: Seconds = step.buckets().iter().map(|(_, t)| *t).sum();
        assert!((sum.get() - step.ops_time.get()).abs() < 1e-9 * step.ops_time.get().max(1.0));
    }

    #[test]
    fn model_too_large_detected() {
        let model = presets::llama3_70b(); // ~141 GB of fp16 weights
        let arch = ador_table3(); // 80 GiB
        let err = Evaluator::new(&arch, &model, Deployment::single_device()).unwrap_err();
        assert!(matches!(err, PerfError::ModelTooLarge { .. }));
        // Eight devices fit it (Fig. 15b).
        assert!(Evaluator::new(&arch, &model, Deployment::tensor_parallel(8)).is_ok());
    }

    #[test]
    fn kv_cache_overflow_detected() {
        let model = presets::llama3_8b();
        let arch = ador_table3();
        let eval = Evaluator::new(&arch, &model, Deployment::single_device()).unwrap();
        // 4096 requests x 8192 tokens of KV ≈ 4 TB: cannot fit.
        let err = eval.step(Phase::decode(4096, 8192)).unwrap_err();
        assert!(matches!(err, PerfError::KvCacheTooLarge { .. }));
    }

    #[test]
    fn fig15b_70b_on_8_devices() {
        let model = presets::llama3_70b();
        let arch = ador_table3();
        let a100 = a100();
        let mk = |arch| Evaluator::new(arch, &model, Deployment::tensor_parallel(8)).unwrap();
        let ador_tbt = mk(&arch).decode_interval(150, 1024).unwrap();
        let a100_tbt = mk(&a100).decode_interval(150, 1024).unwrap();
        let gap = a100_tbt.get() / ador_tbt.get();
        // Paper reports 2.51x better TBT at batch 150; our identical-link
        // sync model dilutes both sides, so we assert the structural win.
        assert!(gap > 1.4, "{gap:.2}");
    }

    #[test]
    fn dram_utilization_reported_in_range() {
        let model = presets::llama3_8b();
        let arch = ador_table3();
        let eval = Evaluator::new(&arch, &model, Deployment::single_device()).unwrap();
        let step = eval.step(Phase::decode(16, 1024)).unwrap();
        let util = step.dram_utilization(arch.dram.bandwidth);
        assert!(util.get() > 0.3 && util.get() <= 0.95, "{util}");
    }
}
