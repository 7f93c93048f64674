//! The three workloads: fixed scenarios built from the repository's pinned
//! scenario constructors, sized for a single-threaded run of a few
//! seconds per pass. Arrivals are open-loop in simulated time (seeded
//! Poisson / on-off MMPP streams from `TenantMix::generate`); on the host
//! each pass is a batch job run to completion.

use ador_core::baselines;
use ador_core::cluster::scenarios::{
    disagg_cluster, disagg_engine, disagg_link, disagg_mix, session_fleet, session_workload,
    DISAGG_RATE, DISAGG_REPLICAS, DISAGG_REQUESTS,
};
use ador_core::cluster::{ClusterConfig, FleetSpec, ReplicaSpec, RouterPolicy, TenantMix};
use ador_core::model::{presets, ModelConfig};
use ador_core::search::{
    FleetChips, FleetSearchInput, SearchInput, UserRequirements, VendorConstraints, Workload,
};
use ador_core::serving::SimConfig;
use ador_core::telemetry::{EventDetail, TelemetryConfig};
use ador_core::units::Seconds;

use crate::fleet::FleetCase;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 4 prefix-caching replicas behind cache-affinity routing.
    SessionAffinity,
    /// 4 prefill-optimized + 4 decode-optimized replicas over a KV link,
    /// fully traced with attribution and a Chrome trace export.
    DisaggTraced,
    /// The chip-search grid plus fleet co-exploration.
    DesignSweep,
}

pub const ALL: [Kind; 3] = [Kind::SessionAffinity, Kind::DisaggTraced, Kind::DesignSweep];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::SessionAffinity => "session_affinity",
            Kind::DisaggTraced => "disagg_traced",
            Kind::DesignSweep => "design_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Replica count and request count of a fleet workload; `smoke` shrinks
/// both to a run of well under a second.
fn size(kind: Kind, smoke: bool) -> (usize, usize) {
    match (kind, smoke) {
        (Kind::SessionAffinity, false) => (4, 6_000),
        (Kind::DisaggTraced, false) => (8, 6_000),
        (Kind::DesignSweep, false) => (DISAGG_REPLICAS, DISAGG_REQUESTS),
        (Kind::DesignSweep, true) => (2, 60),
        (_, true) => (4, 400),
    }
}

/// The request-stream seed of stream `k` of a run with `--seed` `seed`.
/// A run cycles through streams `1..=streams(kind, smoke)`, so it averages over
/// several streams of its seed; the streams of different seeds never
/// coincide.
pub fn stream_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(k)
}

/// Request streams one end-to-end run cycles through. More streams
/// average out more of one stream's bursts; fewer streams repeat more
/// often within `--seconds`, so each window's fastest repeat is likelier
/// to fall in a quiet moment of the host. The fleet workloads' bursts
/// change how many tokens and engine iterations a request costs, and their
/// passes are short, so they get six. `design_sweep`'s passes are the
/// longest, and most of their time is the `search()` grid, which no seed
/// changes, so it gets two: each of its windows repeats about thirty
/// times in a 35 s run.
pub fn streams(kind: Kind, smoke: bool) -> u64 {
    match (kind, smoke) {
        (_, true) => 1,
        (Kind::SessionAffinity | Kind::DisaggTraced, false) => 6,
        (Kind::DesignSweep, false) => 2,
    }
}

/// `ClusterSim::advance` calls per timed window of an untraced fleet pass:
/// 50 to 120 windows of 0.5 to 4 ms per pass, so a window's fastest repeat
/// falls in a quiet moment of the host. (`design_sweep` times its own
/// windows; see `sweep`.)
pub fn window_advances(kind: Kind, smoke: bool) -> usize {
    match (kind, smoke) {
        (_, true) => 64,
        (Kind::SessionAffinity, false) => 512,
        (Kind::DisaggTraced | Kind::DesignSweep, false) => 128,
    }
}

/// Per-replica request rate of `session_affinity`: the fleet drains and
/// meets its SLO while prefix reuse carries most of the prompt work.
const SESSION_RATE_PER_REPLICA: f64 = 5.0;

/// The fleet case of a fleet workload (`design_sweep` has several; see
/// [`sweep_candidates`]).
pub fn fleet_case(kind: Kind, seed: u64, smoke: bool) -> FleetCase {
    let (replicas, requests) = size(kind, smoke);
    let model = presets::llama3_8b();
    let homogeneous = |cfg: ClusterConfig, mix: TenantMix| FleetCase {
        fleet: FleetSpec::homogeneous(
            &ReplicaSpec::new(baselines::ador_table3(), cfg.engine),
            replicas,
        ),
        model: model.clone(),
        cfg,
        mix,
        requests,
        seed,
    };
    match kind {
        Kind::SessionAffinity => homogeneous(
            session_fleet(replicas, RouterPolicy::CacheAffinity),
            session_workload(SESSION_RATE_PER_REPLICA * replicas as f64),
        ),
        Kind::DisaggTraced => {
            // An unbounded lifecycle event log, a 250 ms series and
            // attribution. Lifecycle detail keeps every phase boundary (the
            // Chrome spans match the per-token log's) but elides steady
            // one-token commits; the per-token log's million events made
            // the pass memory-bound and swing with host contention.
            // `ClusterSim::new_fleet` reads telemetry from each replica's
            // engine config, so the trace rides on the specs.
            let telemetry = TelemetryConfig::trace()
                .with_detail(EventDetail::Lifecycle)
                .with_series(Seconds::from_millis(250.0))
                .with_attribution();
            let engine = disagg_engine().with_telemetry(telemetry);
            let per_replica = DISAGG_RATE / DISAGG_REPLICAS as f64;
            FleetCase {
                fleet: FleetSpec::prefill_decode(
                    &ReplicaSpec::new(baselines::prefill_optimized(), engine),
                    replicas / 2,
                    &ReplicaSpec::new(baselines::decode_optimized(), engine),
                    replicas - replicas / 2,
                ),
                model,
                cfg: disagg_cluster(true),
                mix: disagg_mix(per_replica * replicas as f64),
                requests,
                seed,
            }
        }
        Kind::DesignSweep => unreachable!("design_sweep has no single fleet case"),
    }
}

/// The same case with telemetry off on every replica (the baseline of
/// `telemetry.overhead`).
pub fn without_telemetry(mut case: FleetCase) -> FleetCase {
    for spec in &mut case.fleet.replicas {
        spec.engine.telemetry = TelemetryConfig::OFF;
    }
    case
}

/// Longest context the perf probe prices for a case's model.
pub fn max_context(model: &ModelConfig) -> usize {
    model.max_seq_len.min(8192)
}

/// The inputs of one `design_sweep` pass.
#[derive(Debug, Clone)]
pub struct SweepInputs {
    /// The chip-search grid: model presets × batch × sequence length ×
    /// {chatbot, batch-serving} requirements.
    pub searches: Vec<SearchInput>,
    /// The fleet co-exploration problem's owned parts.
    pub model: ModelConfig,
    pub mix: TenantMix,
    pub replicas: usize,
    pub requests: usize,
    /// Workload seeds of the co-explorations, one search each: many
    /// short-lived fleets, as a design loop builds them.
    pub seeds: Vec<u64>,
}

/// Attainment target of the co-exploration (the pinned problem's).
const TARGET_ATTAINMENT: f64 = 0.9;

/// Co-explorations per `design_sweep` pass (each over its own seed).
const CO_EXPLORE_SEEDS: u64 = 8;

impl SweepInputs {
    pub fn build(seed: u64, smoke: bool) -> Self {
        let models: Vec<ModelConfig> = if smoke {
            vec![presets::llama3_8b(), presets::mistral_7b()]
        } else {
            vec![
                presets::llama3_8b(),
                presets::llama3_70b(),
                presets::llama2_7b(),
                presets::mistral_7b(),
                presets::mixtral_8x7b(),
                presets::qwen2_7b(),
                presets::gemma2_9b(),
                presets::gptj_6b(),
                presets::falcon_7b(),
                presets::yi_34b(),
                presets::opt_1_3b(),
                presets::opt_6_7b(),
                presets::opt_13b(),
                presets::opt_30b(),
                presets::opt_66b(),
            ]
        };
        let batches: &[usize] = if smoke {
            &[8, 64]
        } else {
            &[1, 2, 4, 8, 16, 32, 64, 128, 256]
        };
        let seq_lens: &[usize] = if smoke {
            &[512, 2048]
        } else {
            &[128, 256, 512, 1024, 2048, 4096, 8192]
        };
        let users = [
            UserRequirements::chatbot(),
            UserRequirements::batch_serving(),
        ];
        let vendor = VendorConstraints::a100_class();
        let mut searches = Vec::new();
        for model in &models {
            for &batch in batches {
                for &seq_len in seq_lens {
                    // Points no device budget can place are not design
                    // questions; leave them out of the grid.
                    let workload = Workload::new(model.clone(), batch, seq_len);
                    if workload.deployment(&vendor).is_err() {
                        continue;
                    }
                    for user in users {
                        searches.push(SearchInput {
                            vendor,
                            user,
                            workload: workload.clone(),
                        });
                    }
                }
            }
        }
        let (replicas, requests) = size(Kind::DesignSweep, smoke);
        let count = if smoke { 1 } else { CO_EXPLORE_SEEDS };
        Self {
            searches,
            model: presets::llama3_8b(),
            mix: disagg_mix(DISAGG_RATE / DISAGG_REPLICAS as f64 * replicas as f64),
            replicas,
            requests,
            seeds: (0..count)
                .map(|i| seed.wrapping_mul(CO_EXPLORE_SEEDS).wrapping_add(i))
                .collect(),
        }
    }

    pub fn fleet_input(&self, seed: u64) -> FleetSearchInput<'_> {
        FleetSearchInput {
            model: &self.model,
            mix: &self.mix,
            chips: FleetChips::ador_defaults(),
            replicas: self.replicas,
            engine: disagg_engine(),
            link: disagg_link(),
            requests: self.requests,
            seed,
            target_attainment: TARGET_ATTAINMENT,
        }
    }
}

/// The co-exploration's candidate fleets, enumerated in `co_explore`'s
/// order (every chip × {JSQ, least-KV-load} homogeneous, then every
/// prefill/decode split). Re-running them outside the search gives the
/// per-layer spans, the iteration count, and an oracle for the search's
/// own candidate results. Split candidates record a series so their
/// reports carry the KV-transfer markers the replay needs.
pub fn sweep_candidates(inputs: &SweepInputs, seed: u64) -> Vec<FleetCase> {
    let chips = FleetChips::ador_defaults();
    let engine: SimConfig = disagg_engine();
    let case = |fleet: FleetSpec, cfg: ClusterConfig| FleetCase {
        model: inputs.model.clone(),
        fleet,
        cfg,
        mix: inputs.mix.clone(),
        requests: inputs.requests,
        seed,
    };
    let mut out = Vec::new();
    for arch in [&chips.unified, &chips.prefill, &chips.decode] {
        for policy in [RouterPolicy::JoinShortestQueue, RouterPolicy::LeastKvLoad] {
            let spec = ReplicaSpec::new(arch.clone(), engine);
            out.push(case(
                FleetSpec::homogeneous(&spec, inputs.replicas),
                ClusterConfig::new(0, policy),
            ));
        }
    }
    let marked = engine.with_telemetry(TelemetryConfig::OFF.with_series(Seconds::new(1.0)));
    for prefill in 1..inputs.replicas {
        out.push(case(
            FleetSpec::prefill_decode(
                &ReplicaSpec::new(chips.prefill.clone(), marked),
                prefill,
                &ReplicaSpec::new(chips.decode.clone(), marked),
                inputs.replicas - prefill,
            ),
            ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
                .with_decode_policy(RouterPolicy::LeastKvLoad)
                .with_disaggregation(disagg_link()),
        ));
    }
    out
}
