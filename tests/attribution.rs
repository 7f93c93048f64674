//! Conservation contract of SLO-miss attribution: across seeds, routing
//! policies, topologies (aggregated and prefill/decode-disaggregated)
//! and speculation, every attributed request's component ledger sums
//! *exactly* (integer nanoseconds, no epsilon) to its end-to-end
//! latency; the fleet ledger is the exact merge of the per-tenant
//! ledgers and of the per-request components; and switching attribution
//! on never perturbs the rest of the report.

use ador::cluster::scenarios::{disagg_cluster, disagg_engine, disagg_mix, DISAGG_RATE};
use ador::cluster::{ClusterSim, FleetReport, FleetSpec, ReplicaSpec, RouterPolicy};
use ador::model::presets;
use ador::perf::Deployment;
use ador::serving::{SpeculationConfig, SpeculationPolicy};
use ador::telemetry::{attribute_events, AttributionReport, Components, TelemetryConfig};
use proptest::prelude::*;

const POLICIES: [RouterPolicy; 3] = [
    RouterPolicy::RoundRobin,
    RouterPolicy::JoinShortestQueue,
    RouterPolicy::LeastKvLoad,
];
const REQUESTS: usize = 60;

/// One traced cluster run. Aggregated fleets go through the homogeneous
/// `ClusterSim::new` path (telemetry on the cluster's engine config);
/// disaggregated fleets go through `ClusterSim::new_fleet`, where each
/// replica's own `SimConfig` carries the telemetry — the fleet path
/// reads it off the `ReplicaSpec`s, not the cluster config.
fn run(
    seed: u64,
    policy: RouterPolicy,
    disaggregated: bool,
    speculate: bool,
    telemetry: TelemetryConfig,
) -> FleetReport {
    let model = presets::llama3_8b();
    let mut engine = disagg_engine().with_telemetry(telemetry);
    if speculate {
        engine = engine.with_speculation(SpeculationConfig::new(SpeculationPolicy::Fixed(2)));
    }
    let mut cfg = disagg_cluster(disaggregated);
    cfg.policy = policy;
    // `disagg_cluster` pins replicas = 0 (the fleet path overrides it
    // with the fleet's length); the homogeneous path needs a real count.
    cfg.replicas = 2;
    cfg = cfg.with_engine(engine);
    let mix = disagg_mix(DISAGG_RATE);
    let fleet = FleetSpec::prefill_decode(
        &ReplicaSpec::new(ador::baselines::prefill_optimized(), engine),
        1,
        &ReplicaSpec::new(ador::baselines::decode_optimized(), engine),
        1,
    );
    let arch = ador::baselines::ador_table3();
    let sim = if disaggregated {
        ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg)
    } else {
        ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
    };
    sim.expect("fleet builds")
        .run(&mix, REQUESTS, seed)
        .expect("fleet runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: components are a *partition* of each
    /// request's end-to-end latency (sum == e2e in integer ns), the
    /// fleet ledger is the exact merge of per-tenant ledgers, and both
    /// equal the field-wise sum over per-request components.
    #[test]
    fn attribution_conserves_and_merges_exactly(
        seed in 0u64..64,
        policy_idx in 0usize..3,
        disagg in 0u8..2,
        speculate in 0u8..2,
    ) {
        let report = run(
            seed,
            POLICIES[policy_idx],
            disagg == 1,
            speculate == 1,
            TelemetryConfig::trace().with_attribution(),
        );
        let telemetry = report.telemetry.as_ref().expect("traced");
        let attrs = attribute_events(&telemetry.events);
        prop_assert!(!attrs.is_empty(), "a completed run attributes requests");
        for attr in &attrs {
            prop_assert!(
                attr.conserved(),
                "request {}: components sum {} != e2e {} ({:?})",
                attr.request,
                attr.components.total_ns(),
                attr.e2e_ns,
                attr.components
            );
        }

        let fa = report.attribution.as_ref().expect("attribution opted in");
        let mut merged = AttributionReport::default();
        for tenant in &fa.per_tenant {
            merged.merge(tenant);
        }
        prop_assert_eq!(&merged, &fa.fleet, "fleet ledger is the exact per-tenant merge");

        let mut summed = Components::default();
        let mut e2e_total = 0u64;
        for attr in &attrs {
            summed.add(&attr.components);
            e2e_total += attr.e2e_ns;
        }
        prop_assert_eq!(fa.fleet.requests, attrs.len() as u64);
        prop_assert_eq!(&fa.fleet.totals, &summed, "fleet totals are the per-request sum");
        prop_assert_eq!(fa.fleet.totals.total_ns(), e2e_total, "conservation survives the merge");
    }

    /// Attribution observes, never perturbs: an attribution-on run is
    /// bit-identical to a trace-only run once its `attribution` field is
    /// stripped — same QoS, same events, same series.
    #[test]
    fn attribution_never_perturbs_the_traced_report(
        seed in 0u64..64,
        disagg in 0u8..2,
    ) {
        let policy = RouterPolicy::JoinShortestQueue;
        let plain = run(seed, policy, disagg == 1, false, TelemetryConfig::trace());
        prop_assert!(plain.attribution.is_none(), "trace-only runs carry no attribution");
        let mut on = run(
            seed,
            policy,
            disagg == 1,
            false,
            TelemetryConfig::trace().with_attribution(),
        );
        prop_assert!(on.attribution.take().is_some());
        prop_assert_eq!(on, plain, "attribution must observe, never perturb");
    }
}

/// Deterministic anchor alongside the property: the pinned disaggregated
/// scenario's shed requests are ledgered (counted, zero time-loss) and
/// every miss is blamed on exactly one cause.
#[test]
fn miss_blame_partitions_the_misses() {
    let report = run(
        29,
        RouterPolicy::JoinShortestQueue,
        true,
        false,
        TelemetryConfig::trace().with_attribution(),
    );
    let fleet = &report.attribution.as_ref().expect("attribution on").fleet;
    assert_eq!(
        fleet.miss_causes.iter().sum::<u64>(),
        fleet.misses,
        "every miss carries exactly one dominant cause"
    );
    assert!(fleet.misses <= fleet.requests);
}
