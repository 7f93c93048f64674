//! Pinned reference scenarios, shared so the regression test
//! (`tests/cluster_serving.rs`), the `exp_cluster` bench table and the
//! `fleet_serving` example all exercise the *same* configuration — the
//! published numbers and the test that pins their ordering cannot drift
//! apart.

use ador_hw::Architecture;
use ador_serving::{SimConfig, Slo, TraceProfile};
use ador_spec::{SpeculationConfig, SpeculationPolicy};
use ador_units::{conv, Bandwidth, Seconds};

use crate::{
    ArrivalProcess, ClusterConfig, FleetSpec, KvLink, ReplicaSpec, RouterPolicy, TenantClass,
    TenantMix,
};

/// Aggregate arrival rate (req/s) of the pinned skewed-mix scenario.
pub const SKEWED_MIX_RATE: f64 = 7.0;

/// Request count of the pinned skewed-mix scenario.
pub const SKEWED_MIX_REQUESTS: usize = 600;

/// Workload seed of the pinned skewed-mix scenario.
pub const SKEWED_MIX_SEED: u64 = 3;

/// The skewed two-tenant mix: 70 % steady strict-SLO chat, 30 % bursty
/// MMPP summarization with heavy prompts.
pub fn skewed_two_tenant(aggregate: f64) -> TenantMix {
    TenantMix::new(vec![
        TenantClass::chatbot(aggregate * 0.7),
        TenantClass::summarization(aggregate * 0.3),
    ])
}

/// A fleet of 16-slot replicas whose KV memory is scarce (5 % fraction).
/// Scarce KV makes placement quality visible: stacking KV-heavy work on
/// one replica triggers preemption storms there, which is what separates
/// the adaptive router policies from round-robin.
pub fn scarce_kv_fleet(replicas: usize, policy: RouterPolicy) -> ClusterConfig {
    ClusterConfig::new(replicas, policy)
        .with_engine(SimConfig::new(1.0, 16).with_kv_memory_fraction(0.05))
}

/// Aggregate request rate (req/s, turns not session starts) of the pinned
/// fleet session scenario: 4 replicas pushed past their cache-cold
/// capacity, so routing that preserves prefix reuse converts saved
/// prefill directly into SLO attainment.
pub const SESSION_RATE: f64 = 80.0;

/// Request rate of the pinned *single-engine* session scenario: moderate
/// load, where prefix caching shows up as TTFT rather than survival.
pub const SESSION_ENGINE_RATE: f64 = 3.0;

/// Request count of the pinned session scenario.
pub const SESSION_REQUESTS: usize = 500;

/// Workload seed of the pinned session scenario.
pub const SESSION_SEED: u64 = 11;

/// The pinned session workload: multi-turn chat conversations
/// ([`TenantClass::chat_sessions`]) whose follow-up turns re-prompt with
/// the whole conversation so far — the traffic class prefix caching and
/// cache-affinity routing exist for. Rescaled so the emitted *request*
/// rate (turns, not session starts) is `aggregate` req/s.
pub fn session_workload(aggregate: f64) -> TenantMix {
    TenantMix::new(vec![TenantClass::chat_sessions(1.0)]).with_aggregate_rate(aggregate)
}

/// A fleet of 32-slot prefix-caching replicas with a moderate KV budget
/// (25 % fraction): enough residency for session prefixes to survive
/// between turns, tight enough that retained prefixes face LRU pressure.
/// Shared by the `exp_prefix_cache` bench, the `session_serving` example
/// and the pinned tests in `tests/prefix_caching.rs`.
pub fn session_fleet(replicas: usize, policy: RouterPolicy) -> ClusterConfig {
    ClusterConfig::new(replicas, policy)
        .with_engine(SimConfig::new(1.0, 32).with_kv_memory_fraction(0.25))
        .with_prefix_caching(true)
}

/// Aggregate request rate (req/s) of the pinned speculative-decoding
/// fleet scenario: past the fleet's no-speculation knee, so the chatbot
/// class cannot hold its tight TBT contract without multi-token commits,
/// while naive fixed-depth drafting inflates every verify pass enough to
/// hurt — the operating point where SLO-customized depth separates from
/// both extremes.
pub const SPEC_RATE: f64 = 92.0;

/// Request count of the pinned speculative-decoding scenario.
pub const SPEC_REQUESTS: usize = 600;

/// Workload seed of the pinned speculative-decoding scenario.
pub const SPEC_SEED: u64 = 17;

/// Replica count of the pinned speculative-decoding fleet.
pub const SPEC_REPLICAS: usize = 2;

/// Draft-model cost ratio of the pinned speculative-decoding scenario:
/// each drafted token costs 15 % of a target token's step share — a
/// 7-to-8-B target with a ~1-B batched drafter.
pub const SPEC_DRAFT_RATIO: f64 = 0.15;

/// The pinned mixed-tenant speculation workload: a latency tenant
/// ("chatbot": short prompts, ~320-token responses, a tight 18 ms TBT /
/// 2 s TTFT contract, 0.85 draft acceptance — conversational text drafts
/// well) multiplexed with a throughput tenant ("analytics": batch
/// generation with ~512-token responses, TTFT-only 8 s contract, 0.55
/// acceptance — free-form generation drafts poorly). Short prompts and
/// long responses keep the decode batch large, which is exactly where
/// indiscriminate drafting stops being free: every drafted token rides a
/// compute-bound verify pass that all co-batched tenants pay for.
pub fn spec_mix(aggregate: f64) -> TenantMix {
    let chatbot_profile = TraceProfile {
        input_mu: 96.0_f64.ln(),
        input_sigma: 0.5,
        output_mu: 320.0_f64.ln(),
        output_sigma: 0.4,
        max_tokens: 2048,
    };
    let analytics_profile = TraceProfile {
        input_mu: 160.0_f64.ln(),
        input_sigma: 0.5,
        output_mu: 512.0_f64.ln(),
        output_sigma: 0.45,
        max_tokens: 4096,
    };
    let chatbot = TenantClass::new(
        "chatbot",
        chatbot_profile,
        Slo {
            ttft_max: Some(Seconds::from_millis(2000.0)),
            tbt_max: Some(Seconds::from_millis(18.0)),
        },
        ArrivalProcess::Poisson {
            rate: aggregate * 0.6,
        },
    )
    .with_acceptance(0.85);
    let analytics = TenantClass::new(
        "analytics",
        analytics_profile,
        Slo {
            ttft_max: Some(Seconds::from_millis(8000.0)),
            tbt_max: None,
        },
        ArrivalProcess::Poisson {
            rate: aggregate * 0.4,
        },
    )
    .with_acceptance(0.55);
    TenantMix::new(vec![chatbot, analytics])
}

/// The pinned speculative-decoding fleet: 256-slot replicas behind
/// join-shortest-queue, running the given speculation `policy` with the
/// pinned draft-cost ratio ([`SPEC_DRAFT_RATIO`]). Shared by the
/// `exp_specdec` bench, the `spec_serving` example and the pinned tests
/// in `tests/spec_decoding.rs`.
pub fn spec_fleet(replicas: usize, policy: SpeculationPolicy) -> ClusterConfig {
    ClusterConfig::new(replicas, RouterPolicy::JoinShortestQueue)
        .with_engine(SimConfig::new(1.0, 256))
        .with_speculation(SpeculationConfig::new(policy).with_draft_time_ratio(SPEC_DRAFT_RATIO))
}

/// Per-replica request rate (req/s) of the scale-grid scenario: each
/// replica sees the same offered load, so the aggregate rate grows
/// linearly with the fleet and cells are comparable across fleet sizes.
/// 6 req/s runs the 32-slot replicas near saturation — the bursty
/// summarization tenant queues tens of requests deep during ON periods,
/// yet the fleet still drains (makespan within ~25 % of the arrival
/// window). That regime is deliberate: deep-but-bounded queues keep
/// every replica busy between arrivals, so the grid prices the event
/// loop under realistic bursty queueing rather than on an idle fleet.
pub const SCALE_RATE_PER_REPLICA: f64 = 6.0;

/// Workload seed of the scale-grid scenario.
pub const SCALE_SEED: u64 = 23;

/// The scale-grid workload: the skewed two-tenant mix rescaled so each
/// of `replicas` replicas sees [`SCALE_RATE_PER_REPLICA`] req/s. Shared
/// by the `bench_cluster` wall-clock grid and the telemetry and
/// attribution overhead benches, so they all time the same traffic.
pub fn scale_mix(replicas: usize) -> TenantMix {
    skewed_two_tenant(SCALE_RATE_PER_REPLICA * conv::f64_from_usize(replicas))
}

/// The scale-grid fleet: 32-slot replicas with an ample KV budget behind
/// join-shortest-queue. Paired with [`scale_mix`], the fleet runs near
/// saturation but always drains — the wall-clock grid measures the
/// driver under realistic bursty queueing, not a divergent backlog.
pub fn scale_fleet(replicas: usize) -> ClusterConfig {
    ClusterConfig::new(replicas, RouterPolicy::JoinShortestQueue)
        .with_engine(SimConfig::new(1.0, 32))
}

/// Aggregate request rate (req/s) of the pinned disaggregation scenario:
/// near the 4-replica fleet's decode knee, so TBT contracts are only
/// holdable when prefill bursts stay out of the decode batches.
pub const DISAGG_RATE: f64 = 30.0;

/// Request count of the pinned disaggregation scenario.
pub const DISAGG_REQUESTS: usize = 400;

/// Workload seed of the pinned disaggregation scenario.
pub const DISAGG_SEED: u64 = 29;

/// Fleet size of the pinned disaggregation scenario — every candidate
/// (homogeneous or mixed) fields exactly this many replicas, so the
/// comparison is iso-count.
pub const DISAGG_REPLICAS: usize = 4;

/// The pinned disaggregation workload: an interactive class (mid-size
/// prompts, ~192-token responses, a tight 24 ms TBT contract) multiplexed
/// with a bursty document-ingest class (~3k-token prompts, short
/// responses, TTFT-only contract). Ingest prefill chunks are what blow
/// the interactive class's TBT whenever both phases share a batch —
/// the traffic shape prefill/decode disaggregation exists for.
pub fn disagg_mix(aggregate: f64) -> TenantMix {
    let interactive_profile = TraceProfile {
        input_mu: 768.0_f64.ln(),
        input_sigma: 0.5,
        output_mu: 192.0_f64.ln(),
        output_sigma: 0.4,
        max_tokens: 2048,
    };
    let ingest_profile = TraceProfile {
        input_mu: 3072.0_f64.ln(),
        input_sigma: 0.4,
        output_mu: 64.0_f64.ln(),
        output_sigma: 0.5,
        max_tokens: 8192,
    };
    let interactive = TenantClass::new(
        "interactive",
        interactive_profile,
        Slo {
            ttft_max: Some(Seconds::from_millis(2500.0)),
            tbt_max: Some(Seconds::from_millis(24.0)),
        },
        ArrivalProcess::Poisson {
            rate: aggregate * 0.65,
        },
    );
    let mean_on = Seconds::new(3.0);
    let mean_off = Seconds::new(9.0);
    let duty = mean_on.get() / (mean_on.get() + mean_off.get());
    let ingest = TenantClass::new(
        "ingest",
        ingest_profile,
        Slo {
            ttft_max: Some(Seconds::from_millis(8000.0)),
            tbt_max: None,
        },
        ArrivalProcess::OnOffMmpp {
            rate_on: aggregate * 0.35 / duty,
            mean_on,
            mean_off,
        },
    );
    TenantMix::new(vec![interactive, ingest])
}

/// The pinned KV interconnect: a 64 GB/s point-to-point link with 0.5 ms
/// setup latency — NVLink-class bandwidth, rack-scale latency. Moving a
/// 3k-token LLaMA3-8B context (~128 KiB/token) costs ~6 ms on top of the
/// latency, small against second-scale TTFT contracts but real enough
/// that the transfer accounting is exercised.
pub fn disagg_link() -> KvLink {
    KvLink::new(Bandwidth::from_gbps(64.0), Seconds::from_millis(0.5))
        // ador-lint: allow(panic) — invariant: both constants are positive and finite
        .expect("the pinned link is valid")
}

/// The pinned per-replica engine config of the disaggregation scenario:
/// 64-slot replicas with the default KV budget.
pub fn disagg_engine() -> SimConfig {
    SimConfig::new(1.0, 64)
}

/// A two-pool fleet for the pinned disaggregation scenario:
/// `prefill_count` replicas of `prefill` feeding `decode_count` replicas
/// of `decode`, all running [`disagg_engine`]. Architectures are passed
/// in (conventionally `ador_baselines::prefill_optimized()` /
/// `decode_optimized()`) so this crate stays baseline-agnostic.
pub fn disagg_fleet(
    prefill: &Architecture,
    prefill_count: usize,
    decode: &Architecture,
    decode_count: usize,
) -> FleetSpec {
    FleetSpec::prefill_decode(
        &ReplicaSpec::new(prefill.clone(), disagg_engine()),
        prefill_count,
        &ReplicaSpec::new(decode.clone(), disagg_engine()),
        decode_count,
    )
}

/// The pinned cluster config of the disaggregation scenario: prefill-side
/// join-shortest-queue, decode-side least-KV-load, over [`disagg_link`]
/// when `disaggregated` (aggregated otherwise — the baseline topology the
/// mixes are judged against).
pub fn disagg_cluster(disaggregated: bool) -> ClusterConfig {
    let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
        .with_decode_policy(RouterPolicy::LeastKvLoad);
    if disaggregated {
        cfg.with_disaggregation(disagg_link())
    } else {
        cfg
    }
}

/// The pinned *single-engine* speculation config: the `exp_specdec`
/// fixed-depth sweep (one 32-slot engine on ultrachat-like chatbot
/// traffic at 8 req/s, acceptance swept explicitly). At this moderate
/// batch the decode pass is weight-bound, so verification is cheap and
/// any positive depth with decent acceptance buys mean TBT — the pin for
/// "Fixed(k > 0) beats Off at acceptance ≥ 0.7".
pub fn spec_engine_config(policy: SpeculationPolicy, acceptance: f64) -> SimConfig {
    SimConfig::new(8.0, 32)
        .with_requests(300)
        .with_seed(7)
        .with_speculation(
            SpeculationConfig::new(policy)
                .with_draft_time_ratio(SPEC_DRAFT_RATIO)
                .with_default_acceptance(acceptance),
        )
}
