//! Datacenter-level co-exploration: hardware config × replica mix ×
//! router policy against a fleet SLO target.
//!
//! The paper's search (Fig. 9) stops at one chip. This module asks the
//! question the datacenter actually buys silicon for: given a traffic
//! mix, a fleet size and an attainment target, *which* chips in *what*
//! mix behind *which* router? The candidate space crosses:
//!
//! - **hardware**: a unified chip serving whole requests, and the
//!   specialized pair — compute-rich prefill chip, bandwidth-rich decode
//!   chip (conventionally `ador_baselines::{ador_table3,
//!   prefill_optimized, decode_optimized}`, see [`FleetChips`]);
//! - **replica mix**: every homogeneous fleet of `replicas` copies, and
//!   every disaggregated split `p` prefill + `replicas − p` decode over
//!   the given [`KvLink`];
//! - **router policy**: join-shortest-queue and least-KV-load on the
//!   front door, with least-KV-load steering the decode pool.
//!
//! Every candidate fields exactly `replicas` engines, so the comparison
//! is iso-count: a win is a *composition* win, not a capacity one. The
//! chooser prefers candidates that meet the attainment target and, among
//! those, the highest goodput; if nothing qualifies it falls back to the
//! highest attainment — the fleet analogue of the chip search's feedback
//! path.

use ador_cluster::{
    ClusterConfig, ClusterRequest, ClusterSim, FleetSpec, KvLink, ReplicaSpec, RouterPolicy,
    TenantMix, Topology,
};
use ador_hw::Architecture;
use ador_model::ModelConfig;
use ador_perf::Deployment;
use ador_serving::{SimConfig, SimError, StepCosts};

/// The chip palette the fleet search draws from.
#[derive(Debug, Clone)]
pub struct FleetChips {
    /// The balanced chip homogeneous aggregated fleets run on.
    pub unified: Architecture,
    /// The compute-rich chip for prefill pools.
    pub prefill: Architecture,
    /// The bandwidth-rich chip for decode pools.
    pub decode: Architecture,
}

impl FleetChips {
    /// The ADOR palette: the Table III design as the unified chip plus
    /// the two disaggregation specials.
    pub fn ador_defaults() -> Self {
        Self {
            unified: ador_baselines::ador_table3(),
            prefill: ador_baselines::prefill_optimized(),
            decode: ador_baselines::decode_optimized(),
        }
    }
}

/// One fleet-search problem instance.
#[derive(Debug, Clone)]
pub struct FleetSearchInput<'a> {
    /// The served model.
    pub model: &'a ModelConfig,
    /// The traffic mix every candidate serves.
    pub mix: &'a TenantMix,
    /// The chip palette.
    pub chips: FleetChips,
    /// Fleet size every candidate must field (iso-count comparison).
    pub replicas: usize,
    /// Per-replica engine knobs shared by all candidates.
    pub engine: SimConfig,
    /// The KV interconnect disaggregated candidates ship contexts over.
    pub link: KvLink,
    /// Requests per evaluation run.
    pub requests: usize,
    /// Workload seed (identical across candidates).
    pub seed: u64,
    /// The fleet SLO target: minimum request-weighted attainment.
    pub target_attainment: f64,
}

/// One evaluated fleet composition.
#[derive(Debug, Clone)]
pub struct FleetCandidate {
    /// Human-readable composition, e.g. `"disagg 1xPrefill-Optimized + 3xDecode-Optimized"`.
    pub label: String,
    /// Front-door router policy.
    pub policy: RouterPolicy,
    /// Decode-pool policy (`None` for aggregated candidates).
    pub decode_policy: Option<RouterPolicy>,
    /// Prefill-pool size (equals `replicas` when aggregated).
    pub prefill_replicas: usize,
    /// Decode-pool size (equals `replicas` when aggregated).
    pub decode_replicas: usize,
    /// Whether the candidate disaggregates.
    pub disaggregated: bool,
    /// Request-weighted fleet SLO attainment.
    pub attainment: f64,
    /// Fleet goodput, completed tokens/s.
    pub goodput: f64,
    /// Fleet p95 TTFT in milliseconds (0 when nothing completed).
    pub ttft_p95_ms: f64,
    /// Fleet p95 mean-TBT in milliseconds (0 when nothing completed).
    pub tbt_p95_ms: f64,
    /// KV-context transfers the run shipped (0 when aggregated).
    pub kv_transfers: usize,
    /// Whether the candidate meets the attainment target.
    pub meets_target: bool,
}

/// The fleet search result: every candidate evaluated plus the chosen
/// composition and the best homogeneous runner-up it is judged against.
#[derive(Debug, Clone)]
pub struct FleetSearchOutcome {
    /// All candidates, in the deterministic enumeration order.
    pub candidates: Vec<FleetCandidate>,
    /// Index of the chosen candidate in `candidates`.
    pub best: usize,
    /// Index of the best *homogeneous aggregated* candidate — the
    /// iso-count baseline a disaggregated winner's margin is quoted
    /// against.
    pub best_homogeneous: usize,
}

impl FleetSearchOutcome {
    /// The chosen composition.
    pub fn winner(&self) -> &FleetCandidate {
        &self.candidates[self.best]
    }

    /// The best homogeneous aggregated composition.
    pub fn homogeneous_baseline(&self) -> &FleetCandidate {
        &self.candidates[self.best_homogeneous]
    }
}

/// Runs the co-exploration: evaluates every composition in the crossed
/// candidate space on the same seeded workload and picks the winner.
///
/// Deterministic: candidates are enumerated in a fixed order, all of
/// them serve the one request stream the input seed generates, and ties
/// break toward the earlier candidate. Every candidate's replicas price
/// their steps in one shared registry ([`StepCosts`]), so a chip's step
/// is priced once per call, not once per replica and candidate. A
/// single replica cannot be split into two pools, so with
/// `replicas == 1` only the six homogeneous candidates run and the
/// winner is the homogeneous baseline.
///
/// # Errors
///
/// Returns [`TenantMix::check`]'s error for a mix class that cannot
/// generate `input.requests` requests ([`SimError::InvalidArrivalRate`],
/// also for an on/off MMPP whose sojourns could overflow the clock,
/// [`SimError::InvalidAcceptRate`] or
/// [`SimError::InvalidSessionShape`]), [`SimError::EmptyConfig`] when
/// `replicas == 0` (no fleet to build), and otherwise propagates the
/// first engine construction or simulation error.
pub fn co_explore(input: &FleetSearchInput<'_>) -> Result<FleetSearchOutcome, SimError> {
    let shapes = candidate_shapes(input);
    input.mix.check(input.requests)?;
    let stream = input.mix.generate(input.requests, input.seed);
    let mut costs = StepCosts::new();
    let candidates = shapes
        .iter()
        .map(|(fleet, cfg, label)| evaluate(input, &stream, &mut costs, fleet, *cfg, label))
        .collect::<Result<Vec<_>, SimError>>()?;
    let best = pick(&candidates, |_| true);
    let best_homogeneous = pick(&candidates, |c| !c.disaggregated);
    Ok(FleetSearchOutcome {
        candidates,
        best,
        best_homogeneous,
    })
}

/// Every candidate's fleet, fleet config and label, in enumeration
/// order. Built before any run, so one step-cost registry can price all
/// of them.
fn candidate_shapes(input: &FleetSearchInput<'_>) -> Vec<(FleetSpec, ClusterConfig, String)> {
    let mut shapes = Vec::new();

    // Homogeneous aggregated fleets: each chip × each front-door policy.
    let chips = [
        &input.chips.unified,
        &input.chips.prefill,
        &input.chips.decode,
    ];
    for arch in chips {
        for policy in [RouterPolicy::JoinShortestQueue, RouterPolicy::LeastKvLoad] {
            let spec = ReplicaSpec::new(arch.clone(), input.engine);
            let fleet = FleetSpec::homogeneous(&spec, input.replicas);
            let cfg = ClusterConfig::new(0, policy);
            let label = format!("{}x{} [{policy}]", input.replicas, arch.name);
            shapes.push((fleet, cfg, label));
        }
    }

    // Disaggregated splits: p prefill-optimized + (n − p) decode-optimized,
    // JSQ at the front door, least-KV-load steering the decode pool.
    for prefill_count in 1..input.replicas {
        let decode_count = input.replicas - prefill_count;
        let prefill = ReplicaSpec::new(input.chips.prefill.clone(), input.engine);
        let decode = ReplicaSpec::new(input.chips.decode.clone(), input.engine);
        let fleet = FleetSpec::prefill_decode(&prefill, prefill_count, &decode, decode_count);
        let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
            .with_decode_policy(RouterPolicy::LeastKvLoad)
            .with_disaggregation(input.link);
        let label = format!(
            "disagg {prefill_count}x{} + {decode_count}x{}",
            input.chips.prefill.name, input.chips.decode.name
        );
        shapes.push((fleet, cfg, label));
    }
    shapes
}

/// Chooses among candidates passing `eligible`: target-meeting candidates
/// by goodput, else everyone by attainment. Strict `>` keeps ties on the
/// earliest candidate.
fn pick(candidates: &[FleetCandidate], eligible: impl Fn(&FleetCandidate) -> bool) -> usize {
    let mut best: Option<usize> = None;
    for (i, c) in candidates.iter().enumerate().filter(|(_, c)| eligible(c)) {
        let better = match best {
            None => true,
            Some(b) => {
                let prev = &candidates[b];
                match (c.meets_target, prev.meets_target) {
                    (true, false) => true,
                    (false, true) => false,
                    (true, true) => c.goodput > prev.goodput,
                    (false, false) => c.attainment > prev.attainment,
                }
            }
        };
        if better {
            best = Some(i);
        }
    }
    best.expect("candidate set is never empty")
}

/// Runs one candidate fleet over `stream`, pricing its steps in `costs`.
fn evaluate<'s>(
    input: &FleetSearchInput<'s>,
    stream: &[ClusterRequest],
    costs: &mut StepCosts<'s>,
    fleet: &'s FleetSpec,
    cfg: ClusterConfig,
    label: &str,
) -> Result<FleetCandidate, SimError> {
    let disaggregated = matches!(cfg.topology, Topology::Disaggregated(_));
    let decode_policy = disaggregated.then_some(cfg.decode_policy);
    let policy = cfg.policy;
    let report =
        ClusterSim::new_fleet_in(fleet, input.model, Deployment::single_device(), cfg, costs)?
            .run_stream(input.mix, stream.to_vec())?;
    let attainment = report.fleet_attainment();
    let goodput = report
        .fleet
        .as_ref()
        .map_or(0.0, |q| q.goodput_tokens_per_sec);
    let qos = report.fleet.as_ref();
    Ok(FleetCandidate {
        label: label.to_owned(),
        policy,
        decode_policy,
        // A homogeneous fleet's replicas are `Unified`, so both its pools
        // are the whole fleet.
        prefill_replicas: fleet.prefill_pool().len(),
        decode_replicas: fleet.decode_pool().len(),
        disaggregated,
        attainment,
        goodput,
        ttft_p95_ms: qos.map_or(0.0, |q| q.ttft.p95.get() * 1e3),
        tbt_p95_ms: qos.map_or(0.0, |q| q.tbt.p95.get() * 1e3),
        kv_transfers: report.kv_transfers,
        meets_target: attainment >= input.target_attainment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_cluster::{scenarios, ArrivalProcess, TenantClass};
    use ador_model::presets;

    #[test]
    fn co_explore_is_deterministic_and_iso_count() {
        let model = presets::llama3_8b();
        let mix = scenarios::disagg_mix(12.0);
        let input = FleetSearchInput {
            model: &model,
            mix: &mix,
            chips: FleetChips::ador_defaults(),
            replicas: 2,
            engine: scenarios::disagg_engine(),
            link: scenarios::disagg_link(),
            requests: 60,
            seed: scenarios::DISAGG_SEED,
            target_attainment: 0.9,
        };
        let a = co_explore(&input).unwrap();
        let b = co_explore(&input).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // 3 chips × 2 policies homogeneous + 1 split.
        assert_eq!(a.candidates.len(), 7);
        assert!(a
            .candidates
            .iter()
            .all(|c| c.prefill_replicas + c.decode_replicas == 2
                || (!c.disaggregated && c.prefill_replicas == 2)));
        assert!(!a.homogeneous_baseline().disaggregated);
    }

    #[test]
    fn small_fleets_return_an_error_or_the_homogeneous_candidates() {
        let model = presets::llama3_8b();
        let mix = scenarios::disagg_mix(6.0);
        let input = |replicas| FleetSearchInput {
            model: &model,
            mix: &mix,
            chips: FleetChips::ador_defaults(),
            replicas,
            engine: scenarios::disagg_engine(),
            link: scenarios::disagg_link(),
            requests: 20,
            seed: scenarios::DISAGG_SEED,
            target_attainment: 0.9,
        };
        assert_eq!(co_explore(&input(0)).unwrap_err(), SimError::EmptyConfig);
        let one = co_explore(&input(1)).unwrap();
        assert_eq!(one.candidates.len(), 6, "3 chips x 2 policies, no split");
        assert!(one
            .candidates
            .iter()
            .all(|c| !c.disaggregated && c.prefill_replicas == 1));
        assert_eq!(one.best, one.best_homogeneous);
    }

    fn input<'a>(model: &'a ModelConfig, mix: &'a TenantMix) -> FleetSearchInput<'a> {
        FleetSearchInput {
            model,
            mix,
            chips: FleetChips::ador_defaults(),
            replicas: 4,
            engine: scenarios::disagg_engine(),
            link: scenarios::disagg_link(),
            requests: 40,
            seed: scenarios::DISAGG_SEED,
            target_attainment: 0.9,
        }
    }

    #[test]
    fn candidates_sharing_step_costs_equal_candidates_priced_alone() {
        // One registry prices every candidate of a call; each candidate
        // must equal the same fleet run through a registry of its own.
        let model = presets::llama3_8b();
        let mix = scenarios::disagg_mix(12.0);
        let input = input(&model, &mix);
        let outcome = co_explore(&input).unwrap();
        let shapes = candidate_shapes(&input);
        assert_eq!(shapes.len(), outcome.candidates.len());
        let stream = mix.generate(input.requests, input.seed);
        for ((fleet, cfg, label), shared) in shapes.iter().zip(&outcome.candidates) {
            let alone = evaluate(&input, &stream, &mut StepCosts::new(), fleet, *cfg, label);
            assert_eq!(format!("{:?}", alone.unwrap()), format!("{shared:?}"));
        }
    }

    #[test]
    fn a_class_with_a_zero_arrival_rate_is_an_error() {
        let model = presets::llama3_8b();
        let mut class = TenantClass::chatbot(4.0);
        class.arrivals = ArrivalProcess::Poisson { rate: 0.0 };
        let mix = TenantMix::new(vec![class]);
        assert_eq!(
            co_explore(&input(&model, &mix)).unwrap_err(),
            SimError::InvalidArrivalRate { rate: 0.0 }
        );
    }

    #[test]
    fn a_class_with_an_acceptance_above_one_is_an_error() {
        let model = presets::llama3_8b();
        let mut class = TenantClass::chatbot(4.0);
        class.accept_rate = 1.5;
        let mix = TenantMix::new(vec![class]);
        assert_eq!(
            co_explore(&input(&model, &mix)).unwrap_err(),
            SimError::InvalidAcceptRate {
                id: None,
                rate: 1.5
            }
        );
    }

    #[test]
    fn winner_prefers_target_then_goodput() {
        let mk = |meets, goodput, attainment| FleetCandidate {
            label: String::new(),
            policy: RouterPolicy::JoinShortestQueue,
            decode_policy: None,
            prefill_replicas: 2,
            decode_replicas: 2,
            disaggregated: false,
            attainment,
            goodput,
            ttft_p95_ms: 0.0,
            tbt_p95_ms: 0.0,
            kv_transfers: 0,
            meets_target: meets,
        };
        let c = vec![
            mk(false, 900.0, 0.97),
            mk(true, 400.0, 0.95),
            mk(true, 500.0, 0.92),
        ];
        assert_eq!(pick(&c, |_| true), 2, "meets-target max-goodput wins");
        let none = vec![mk(false, 100.0, 0.4), mk(false, 90.0, 0.6)];
        assert_eq!(pick(&none, |_| true), 1, "fallback is max attainment");
    }
}
