//! Cluster-serving integration tests: the pinned router-policy ordering,
//! routing determinism, SLO-aware partition isolation, the shared-clock
//! makespan, role-blind routing of aggregated fleets, replicas that share
//! step costs reporting as fresh engines do, and the fleet-wide
//! conservation invariant. The event loop's equivalence pins against the
//! sweep-every-replica reference live in `ador-cluster`'s unit tests,
//! where the reference is visible.

use ador::cluster::scenarios::{
    disagg_cluster, disagg_mix, scarce_kv_fleet, session_fleet, session_workload,
    skewed_two_tenant, DISAGG_RATE, SESSION_RATE, SESSION_REQUESTS, SESSION_SEED, SKEWED_MIX_RATE,
    SKEWED_MIX_REQUESTS,
};
use ador::cluster::{
    ClusterConfig, ClusterRequest, ClusterSim, FleetSpec, ReplicaSpec, RouterPolicy, TenantClass,
    TenantMix,
};
use ador::model::presets;
use ador::perf::Deployment;
use ador::serving::{
    LatencyStats, QosReport, Request, RequestOutcome, ServingSim, SimConfig, SpeculationConfig,
    SpeculationPolicy,
};
use ador::units::Seconds;
use proptest::prelude::*;

/// The pinned scenario (shared with `exp_cluster` and `fleet_serving`
/// via `ador::cluster::scenarios`): a skewed two-tenant mix — 70 %
/// steady strict-SLO chat, 30 % bursty MMPP summarization with heavy
/// prompts — on four 16-slot replicas whose KV memory is scarce (5 %
/// fraction), at a fixed 7 req/s aggregate. Scarce KV makes placement
/// quality visible: stacking KV-heavy work on one replica triggers
/// preemption storms there.
fn skewed_mix() -> TenantMix {
    skewed_two_tenant(SKEWED_MIX_RATE)
}

fn run_policy(policy: RouterPolicy, seed: u64) -> ador::cluster::FleetReport {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    ClusterSim::new(
        &arch,
        &model,
        Deployment::single_device(),
        scarce_kv_fleet(4, policy),
    )
    .unwrap()
    .run(&skewed_mix(), SKEWED_MIX_REQUESTS, seed)
    .unwrap()
}

/// The acceptance pin: on the skewed two-tenant mix at a fixed aggregate
/// rate, both adaptive policies achieve strictly higher fleet SLO
/// attainment than round-robin — and the KV-demand-aware policy, which
/// balances the binding resource directly, beats count-balancing too.
#[test]
fn adaptive_policies_beat_round_robin_on_skewed_mix() {
    use ador::cluster::scenarios::SKEWED_MIX_SEED;
    let rr = run_policy(RouterPolicy::RoundRobin, SKEWED_MIX_SEED);
    let jsq = run_policy(RouterPolicy::JoinShortestQueue, SKEWED_MIX_SEED);
    let kv = run_policy(RouterPolicy::LeastKvLoad, SKEWED_MIX_SEED);

    let attain = |r: &ador::cluster::FleetReport| r.fleet_attainment();
    assert!(
        attain(&jsq) > attain(&rr),
        "JSQ {:.4} must strictly beat RR {:.4}",
        attain(&jsq),
        attain(&rr)
    );
    assert!(
        attain(&kv) > attain(&rr),
        "LeastKvLoad {:.4} must strictly beat RR {:.4}",
        attain(&kv),
        attain(&rr)
    );

    // The mechanism, not just the outcome: round-robin blindly stacks
    // KV-heavy work, so it pays far more KV-pressure preemptions than the
    // KV-demand-aware router.
    let preemptions = |r: &ador::cluster::FleetReport| r.fleet.as_ref().unwrap().preemptions;
    assert!(
        preemptions(&kv) < preemptions(&rr) / 2,
        "LeastKvLoad preemptions {} vs RR {}",
        preemptions(&kv),
        preemptions(&rr)
    );

    // Every policy served the whole offered stream (no admission control
    // here): attainment differences come from QoS, not completion count.
    for r in [&rr, &jsq, &kv] {
        assert_eq!(r.completed, SKEWED_MIX_REQUESTS);
        assert_eq!(r.rejected, 0);
    }
}

/// Same seed ⇒ identical per-replica assignment trace (and identical
/// report); a different seed must change the trace. Routing has no hidden
/// nondeterminism: ties break by replica index, and the tenant streams
/// are pure functions of the seed.
#[test]
fn router_assignment_is_deterministic_under_seed() {
    for policy in [
        RouterPolicy::RoundRobin,
        RouterPolicy::JoinShortestQueue,
        RouterPolicy::LeastKvLoad,
        RouterPolicy::SloAware,
    ] {
        let a = run_policy(policy, 11);
        let b = run_policy(policy, 11);
        assert_eq!(
            a.assignments, b.assignments,
            "{policy}: same seed must reproduce the assignment trace"
        );
        assert_eq!(a, b, "{policy}: full fleet reports must match");
        // A different seed draws a different workload, so the report must
        // change. (The round-robin *trace* is seed-independent by design —
        // it cycles regardless of load — so the trace inequality is only
        // checked for the load-aware policies.)
        let c = run_policy(policy, 12);
        assert_ne!(a, c, "{policy}: the seed must actually reach the workload");
        if policy != RouterPolicy::RoundRobin {
            assert_ne!(
                a.assignments, c.assignments,
                "{policy}: load-aware routing must see the new workload"
            );
        }
    }
}

/// SLO-aware routing really partitions: with two classes on four
/// replicas, chat (class 0) only ever lands on replicas {0, 2} and
/// summarization (class 1) on {1, 3}.
#[test]
fn slo_aware_isolates_classes_onto_their_partition() {
    let report = run_policy(RouterPolicy::SloAware, 5);
    let mix = skewed_mix();
    let stream = mix.generate(SKEWED_MIX_REQUESTS, 5);
    for (cr, (id, replica)) in stream.iter().zip(&report.assignments) {
        assert_eq!(cr.request.id, *id);
        let replica = replica.expect("no admission control, nothing shed");
        assert_eq!(
            replica % 2,
            cr.tenant % 2,
            "request {id} of class {} routed off-partition to replica {replica}",
            cr.tenant
        );
    }
}

/// Drives one fleet over an explicit stream and returns (global clock at
/// drain, per-replica completed outcomes, full report).
fn drive(
    cfg: ClusterConfig,
    mix: &TenantMix,
    stream: Vec<ClusterRequest>,
) -> (
    Seconds,
    Vec<Vec<ador::serving::RequestOutcome>>,
    ador::cluster::FleetReport,
) {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let mut sim = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg).unwrap();
    sim.submit_stream(mix, stream);
    while sim.advance().unwrap() {}
    let now = sim.now();
    let outcomes = sim
        .replica_outcomes()
        .into_iter()
        .map(<[_]>::to_vec)
        .collect();
    (now, outcomes, sim.finish())
}

/// The drain-phase clock-drift fix, pinned: the merged fleet makespan is
/// exactly the latest per-replica makespan on the shared global clock —
/// not a mix of per-replica timelines — and the fleet clock agrees.
#[test]
fn fleet_makespan_is_the_max_replica_makespan_on_the_shared_clock() {
    let mix = skewed_mix();
    let stream = mix.generate(200, 13);
    let (now, _, report) = drive(scarce_kv_fleet(3, RouterPolicy::RoundRobin), &mix, stream);
    let fleet = report.fleet.as_ref().expect("requests completed");
    let max_replica = report
        .per_replica
        .iter()
        .flatten()
        .map(|r| r.makespan)
        .fold(Seconds::ZERO, Seconds::max);
    assert_eq!(
        fleet.makespan, max_replica,
        "fleet makespan must be the shared-clock max, not a per-replica mix"
    );
    // Nothing was shed, so the global clock ends exactly at the last
    // replica's finish instant.
    assert_eq!(now, max_replica);
    // Throughput is measured over that shared makespan.
    let expected_rps = fleet.completed as f64 * fleet.makespan.recip_rate();
    assert!((fleet.requests_per_sec - expected_rps).abs() < 1e-9);
}

/// A zero queue cap sheds every request: the report must come out clean —
/// no NaN imbalance, no fleet QoS, every tenant fully rejected — rather
/// than dividing by an all-zero token spread.
#[test]
fn all_shed_fleet_reports_a_finite_imbalance() {
    let mix = skewed_mix();
    let stream = mix.generate(40, 7);
    let cfg = scarce_kv_fleet(2, RouterPolicy::JoinShortestQueue).with_queue_cap(0);
    let (_, outcomes, report) = drive(cfg, &mix, stream);

    assert_eq!(report.completed, 0);
    assert_eq!(report.rejected, 40);
    assert!(report.fleet.is_none(), "nothing completed, no fleet QoS");
    assert!(outcomes.iter().all(Vec::is_empty));
    assert!(
        report.imbalance.is_finite(),
        "all-shed imbalance must not be NaN"
    );
    assert_eq!(report.imbalance, 0.0);
    assert_eq!(report.fleet_attainment(), 0.0);
    let rejected: usize = report.tenants.iter().map(|t| t.rejected).sum();
    assert_eq!(rejected, 40);
}

/// Requests that arrive at the *same instant* are routed in generation
/// order: `submit_stream`'s sort is stable, so equal arrival timestamps
/// keep their original order and round-robin cycles replicas in exactly
/// that order. Pinned so the tie-break never silently becomes
/// unstable (which would scramble every same-seed trace).
#[test]
fn equal_arrival_ties_are_routed_in_generation_order() {
    let mix = TenantMix::new(vec![TenantClass::chatbot(1.0)]);
    // Nine requests, three per instant, ids in generation order.
    let stream: Vec<ClusterRequest> = (0..9)
        .map(|i| ClusterRequest {
            request: Request::new(i, Seconds::from_millis(250.0 * (i / 3) as f64), 64, 16),
            tenant: 0,
        })
        .collect();
    let cfg = ClusterConfig::new(3, RouterPolicy::RoundRobin);
    let (_, _, report) = drive(cfg, &mix, stream);

    let ids: Vec<u64> = report.assignments.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, (0..9).collect::<Vec<_>>(), "stable tie-break");
    let replicas: Vec<usize> = report
        .assignments
        .iter()
        .map(|(_, r)| r.expect("nothing shed"))
        .collect();
    assert_eq!(replicas, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
}

/// Like [`drive`], but over an explicit heterogeneous [`FleetSpec`]
/// (per-replica architectures and engine configs) instead of
/// `cfg.replicas` homogeneous copies.
fn drive_fleet(
    fleet: &FleetSpec,
    cfg: ClusterConfig,
    mix: &TenantMix,
    stream: Vec<ClusterRequest>,
) -> (
    Seconds,
    Vec<Vec<RequestOutcome>>,
    ador::cluster::FleetReport,
) {
    let model = presets::llama3_8b();
    let mut sim = ClusterSim::new_fleet(fleet, &model, Deployment::single_device(), cfg).unwrap();
    sim.submit_stream(mix, stream);
    while sim.advance().unwrap() {}
    let now = sim.now();
    let outcomes = sim
        .replica_outcomes()
        .into_iter()
        .map(<[_]>::to_vec)
        .collect();
    (now, outcomes, sim.finish())
}

/// The replicas of a fleet price their steps in one shared table, so a
/// step one replica priced is a lookup for the others. Sharing must not
/// change what any replica reports: each of four prefix-caching
/// replicas reports exactly what a fresh engine, pricing alone, reports
/// on the requests the router sent that replica.
#[test]
fn replicas_sharing_step_costs_report_as_fresh_engines_do() {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let cfg = session_fleet(4, RouterPolicy::CacheAffinity);
    let mix = session_workload(SESSION_RATE);
    let stream = mix.generate(SESSION_REQUESTS, SESSION_SEED);
    let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
        .unwrap()
        .run_stream(&mix, stream.clone())
        .unwrap();

    let mut routed: Vec<Vec<Request>> = vec![Vec::new(); 4];
    for &(id, replica) in &report.assignments {
        let request = stream
            .iter()
            .find(|cr| cr.request.id == id)
            .unwrap()
            .request;
        routed[replica.expect("no admission control")].push(request);
    }
    for (i, requests) in routed.into_iter().enumerate() {
        assert!(!requests.is_empty(), "replica {i} got no work");
        let (alone, _) = ServingSim::new(&arch, &model, Deployment::single_device(), cfg.engine)
            .unwrap()
            .run_requests(requests)
            .unwrap();
        assert_eq!(report.per_replica[i].as_ref(), Some(&alone), "replica {i}");
    }
}

/// Roles only mean something under disaggregation: an aggregated fleet
/// built as two prefill-role plus two decode-role replicas still routes
/// every fresh request over all four replicas, and ships nothing.
#[test]
fn aggregated_fleets_route_over_every_replica_whatever_their_roles() {
    let spec = ReplicaSpec::new(ador::baselines::ador_table3(), SimConfig::new(1.0, 16));
    let fleet = FleetSpec::prefill_decode(&spec, 2, &spec, 2);
    let mix = skewed_mix();
    let stream = mix.generate(40, 9);
    let cfg = ClusterConfig::new(0, RouterPolicy::RoundRobin);
    let (_, outcomes, report) = drive_fleet(&fleet, cfg, &mix, stream);

    let replicas: Vec<usize> = report
        .assignments
        .iter()
        .map(|(_, r)| r.expect("nothing shed"))
        .collect();
    let cycle: Vec<usize> = (0..40).map(|i| i % 4).collect();
    assert_eq!(replicas, cycle, "round-robin cycles over all four replicas");
    assert!(
        outcomes.iter().all(|o| o.len() == 10),
        "whole requests everywhere"
    );
    assert_eq!(report.completed, 40);
    assert_eq!(report.kv_transfers, 0);
    assert_eq!(report.decode_policy, None);
}

/// `QosReport::merge` over genuinely mixed replica configs: a
/// three-replica aggregated fleet where one replica runs prefix caching,
/// two run fixed-depth speculation, and batch caps differ. The fleet
/// report's percentiles must be the *true union* percentiles of the
/// pooled per-request outcomes (not a per-replica aggregate), and the
/// workload counters must be exact sums of the per-replica reports.
#[test]
fn fleet_merge_pools_percentiles_and_sums_counters_across_mixed_replicas() {
    let caching = SimConfig::new(1.0, 16).with_prefix_caching(true);
    let speculating = SimConfig::new(1.0, 8).with_speculation(
        SpeculationConfig::new(SpeculationPolicy::Fixed(2)).with_default_acceptance(0.8),
    );
    let fleet = FleetSpec::new(vec![
        ReplicaSpec::new(ador::baselines::ador_table3(), caching),
        ReplicaSpec::new(ador::baselines::prefill_optimized(), speculating),
        ReplicaSpec::new(ador::baselines::decode_optimized(), speculating),
    ]);
    let mix = TenantMix::new(vec![
        TenantClass::chatbot(6.0),
        TenantClass::summarization(2.0),
    ]);
    let stream = mix.generate(120, 41);
    let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue);
    let (_, outcomes, report) = drive_fleet(&fleet, cfg, &mix, stream);
    let fleet_qos = report.fleet.as_ref().expect("requests completed");
    let pooled: Vec<RequestOutcome> = outcomes.into_iter().flatten().collect();
    assert_eq!(pooled.len(), 120, "nothing shed, everything completed");

    // Population-derived figures are recomputed exactly from the pooled
    // outcomes: the union percentiles, not a bound over replicas.
    let stats_of = |samples: Vec<Seconds>| LatencyStats::from_samples(&samples);
    assert_eq!(
        fleet_qos.ttft,
        stats_of(pooled.iter().map(|o| o.ttft).collect())
    );
    assert_eq!(
        fleet_qos.tbt,
        stats_of(pooled.iter().map(|o| o.mean_tbt).collect())
    );
    assert_eq!(
        fleet_qos.e2e,
        stats_of(pooled.iter().map(|o| o.e2e).collect())
    );

    // Counter aggregates are exact sums over the per-replica reports —
    // including the counters only some replicas produce (prefix-cache
    // traffic from the caching replica, draft traffic from the
    // speculating pair).
    let parts: Vec<QosReport> = report.per_replica.iter().flatten().cloned().collect();
    assert_eq!(parts.len(), 3, "every replica served something");
    let sum = |f: fn(&QosReport) -> usize| parts.iter().map(f).sum::<usize>();
    assert_eq!(fleet_qos.completed, sum(|r| r.completed));
    assert_eq!(fleet_qos.prefilled_tokens, sum(|r| r.prefilled_tokens));
    assert_eq!(fleet_qos.generated_tokens, sum(|r| r.generated_tokens));
    assert_eq!(fleet_qos.prefix_hit_tokens, sum(|r| r.prefix_hit_tokens));
    assert_eq!(fleet_qos.prefix_miss_tokens, sum(|r| r.prefix_miss_tokens));
    assert_eq!(fleet_qos.drafted_tokens, sum(|r| r.drafted_tokens));
    assert_eq!(fleet_qos.accepted_tokens, sum(|r| r.accepted_tokens));
    assert_eq!(fleet_qos.rejected_tokens, sum(|r| r.rejected_tokens));
    assert!(
        fleet_qos.drafted_tokens > 0,
        "the speculating replicas must actually draft"
    );
    assert_eq!(
        fleet_qos.drafted_tokens,
        fleet_qos.accepted_tokens + fleet_qos.rejected_tokens
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation across the fleet at every step: requests offered to
    /// the cluster are always exactly accounted for as completed, shed,
    /// or in flight — through routing, admission control, KV-pressure
    /// preemption and drain.
    #[test]
    fn fleet_conserves_requests_at_every_step(
        seed in 0u64..1000,
        replicas in 1usize..4,
        count in 1usize..60,
        policy_pick in 0usize..4,
        capped in 0usize..2,
    ) {
        let arch = ador::baselines::ador_table3();
        let model = presets::llama3_8b();
        let policy = [
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastKvLoad,
            RouterPolicy::SloAware,
        ][policy_pick];
        let mut cfg = ClusterConfig::new(replicas, policy)
            .with_engine(SimConfig::new(1.0, 8).with_kv_memory_fraction(0.05));
        if capped == 1 {
            cfg = cfg.with_queue_cap(3);
        }
        let mix = TenantMix::new(vec![
            TenantClass::chatbot(8.0),
            TenantClass::summarization(3.0),
        ]);
        let mut sim = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg).unwrap();
        sim.submit_stream(&mix, mix.generate(count, seed));
        loop {
            prop_assert_eq!(
                sim.submitted(),
                sim.completed() + sim.rejected() + sim.in_flight(),
                "conservation violated mid-run"
            );
            if !sim.advance().unwrap() {
                break;
            }
        }
        let report = sim.finish();
        prop_assert_eq!(report.completed + report.rejected, count);
        let by_tenant: usize = report.tenants.iter().map(|t| t.completed + t.rejected).sum();
        prop_assert_eq!(by_tenant, count);
    }

    /// Conservation, broadened to heterogeneous and disaggregated fleets:
    /// with mixed chips (prefill-optimized + decode-optimized specs),
    /// varying pool sizes, both mixes, admission control and the KV link
    /// in play, every offered request is exactly accounted for at every
    /// event boundary as completed, shed, in flight on a replica, or in
    /// transfer over the link.
    #[test]
    fn heterogeneous_fleet_conserves_requests_at_every_step(
        seed in 0u64..1000,
        prefill in 1usize..3,
        decode in 1usize..3,
        count in 1usize..60,
        mix_pick in 0usize..2,
        disagg_pick in 0usize..2,
        capped in 0usize..2,
    ) {
        let disaggregated = disagg_pick == 1;
        let model = presets::llama3_8b();
        let engine = SimConfig::new(1.0, 8).with_kv_memory_fraction(0.05);
        let p_spec = ReplicaSpec::new(ador::baselines::prefill_optimized(), engine);
        let d_spec = ReplicaSpec::new(ador::baselines::decode_optimized(), engine);
        let fleet = if disaggregated {
            FleetSpec::prefill_decode(&p_spec, prefill, &d_spec, decode)
        } else {
            // Same mixed chips, but every replica serves whole requests.
            FleetSpec::new(
                (0..prefill)
                    .map(|_| p_spec.clone())
                    .chain((0..decode).map(|_| d_spec.clone()))
                    .collect(),
            )
        };
        let mut cfg = disagg_cluster(disaggregated);
        if capped == 1 {
            cfg = cfg.with_queue_cap(3);
        }
        let mix = if mix_pick == 0 {
            TenantMix::new(vec![
                TenantClass::chatbot(8.0),
                TenantClass::summarization(3.0),
            ])
        } else {
            disagg_mix(DISAGG_RATE)
        };
        let mut sim =
            ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg).unwrap();
        sim.submit_stream(&mix, mix.generate(count, seed));
        loop {
            prop_assert_eq!(
                sim.submitted(),
                sim.completed() + sim.rejected() + sim.in_flight() + sim.in_transfer(),
                "conservation violated mid-run"
            );
            if !sim.advance().unwrap() {
                break;
            }
        }
        prop_assert_eq!(sim.in_flight(), 0);
        prop_assert_eq!(sim.in_transfer(), 0);
        let report = sim.finish();
        prop_assert_eq!(report.completed + report.rejected, count);
        let by_tenant: usize = report.tenants.iter().map(|t| t.completed + t.rejected).sum();
        prop_assert_eq!(by_tenant, count);
        if !disaggregated {
            prop_assert_eq!(report.kv_transfers, 0);
        }
    }
}
