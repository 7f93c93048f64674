//! Golden digests of whole fleet reports: the `Debug` text of every
//! field of a `FleetReport` (per-replica and fleet QoS, tenants, the
//! telemetry block and the attribution block) folded into one FNV-1a
//! value per scenario. The benchmark's digests cover neither telemetry
//! nor attribution, so a change to how the report is built (its sorts,
//! its groupings, its rounding) must leave these values unchanged.
//!
//! Digests of the same kind pin the request streams
//! `TenantMix::generate` draws for the benchmark's workloads and the
//! pinned scenarios, so a change to how a stream is built must leave
//! every request unchanged.

use ador::cluster::scenarios::{
    disagg_cluster, disagg_engine, disagg_mix, session_fleet, session_workload, skewed_two_tenant,
    spec_fleet, spec_mix, DISAGG_RATE, DISAGG_REQUESTS, SKEWED_MIX_RATE, SKEWED_MIX_REQUESTS,
    SKEWED_MIX_SEED, SPEC_RATE, SPEC_REQUESTS, SPEC_SEED,
};
use ador::cluster::{
    ClusterConfig, ClusterSim, FleetReport, FleetSpec, ReplicaSpec, RouterPolicy, TenantMix,
};
use ador::model::presets;
use ador::perf::Deployment;
use ador::serving::SpeculationPolicy;
use ador::telemetry::{EventDetail, TelemetryConfig};
use ador::units::Seconds;

/// Folds `bytes` into an FNV-1a hash.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The report's digest, once it is known to carry every block.
fn digest(report: &FleetReport) -> u64 {
    assert!(report.completed > 0 && report.fleet.is_some());
    assert!(report.telemetry.is_some() && report.attribution.is_some());
    fnv1a(0xcbf2_9ce4_8422_2325, format!("{report:?}").as_bytes())
}

/// A full trace with a series and attribution at `detail`.
fn traced(detail: EventDetail) -> TelemetryConfig {
    TelemetryConfig::trace()
        .with_detail(detail)
        .with_series(Seconds::from_millis(250.0))
        .with_attribution()
}

fn aggregated(cfg: ClusterConfig, mix: &ador::cluster::TenantMix, requests: usize) -> FleetReport {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
        .and_then(|sim| sim.run(mix, requests, 5))
        .expect("the scenario runs")
}

fn disaggregated(detail: EventDetail) -> FleetReport {
    let model = presets::llama3_8b();
    let engine = disagg_engine().with_telemetry(traced(detail));
    let fleet = FleetSpec::prefill_decode(
        &ReplicaSpec::new(ador::baselines::prefill_optimized(), engine),
        2,
        &ReplicaSpec::new(ador::baselines::decode_optimized(), engine),
        2,
    );
    ClusterSim::new_fleet(
        &fleet,
        &model,
        Deployment::single_device(),
        disagg_cluster(true),
    )
    .and_then(|sim| sim.run(&disagg_mix(DISAGG_RATE), 80, 5))
    .expect("the scenario runs")
}

/// (scenario, digest) for the whole grid, in a fixed order.
fn grid() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for detail in [EventDetail::Lifecycle, EventDetail::PerToken] {
        let sessions = session_fleet(2, RouterPolicy::CacheAffinity).with_telemetry(traced(detail));
        let report = aggregated(sessions, &session_workload(10.0), 80);
        assert!(report
            .fleet
            .as_ref()
            .is_some_and(|q| q.prefix_hit_tokens > 0));
        out.push((format!("sessions {detail:?}"), digest(&report)));
        let report = disaggregated(detail);
        assert!(report.kv_transfers > 0);
        out.push((format!("disaggregated {detail:?}"), digest(&report)));
        for policy in [SpeculationPolicy::Off, SpeculationPolicy::SloAdaptive] {
            let cfg = spec_fleet(2, policy).with_telemetry(traced(detail));
            let report = aggregated(cfg, &spec_mix(92.0), 60);
            let drafted = report.fleet.as_ref().map_or(0, |q| q.drafted_tokens);
            assert_eq!(drafted > 0, policy == SpeculationPolicy::SloAdaptive);
            out.push((
                format!("speculation {policy:?} {detail:?}"),
                digest(&report),
            ));
        }
    }
    out
}

#[test]
fn fleet_reports_match_their_golden_digests() {
    // Recorded with the stable `partial_cmp` latency sort and the
    // comparison-sorted attribution grouping; the integer-key sorts and
    // the radix grouping reproduce every value.
    let golden: [(&str, u64); 8] = [
        ("sessions Lifecycle", 0xc8a2_4a3b_3f4b_b198),
        ("disaggregated Lifecycle", 0x85cd_dc16_7bc9_6ef7),
        ("speculation Off Lifecycle", 0x5a09_fabd_346f_dcdf),
        ("speculation SloAdaptive Lifecycle", 0xa537_bf53_9794_2d65),
        ("sessions PerToken", 0xcf11_a99a_63f6_6e17),
        ("disaggregated PerToken", 0xf761_b60f_1218_85c3),
        ("speculation Off PerToken", 0x0f94_cc72_6ee3_d8bb),
        ("speculation SloAdaptive PerToken", 0x6916_1bab_3a2d_40fa),
    ];
    let measured = grid();
    let expected: Vec<(String, u64)> = golden
        .iter()
        .map(|&(name, digest)| (name.to_owned(), digest))
        .collect();
    assert_eq!(
        measured,
        expected,
        "measured digests:\n{}",
        measured
            .iter()
            .map(|(name, d)| format!("(\"{name}\", {d:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// One digest over the streams `mix` draws for `count` requests at each
/// of `seeds`, in order.
fn stream_digest(mix: &TenantMix, count: usize, seeds: impl IntoIterator<Item = u64>) -> u64 {
    seeds.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, seed| {
        let stream = mix.generate(count, seed);
        assert_eq!(stream.len(), count);
        fnv1a(hash, format!("{stream:?}").as_bytes())
    })
}

#[test]
fn request_streams_match_their_golden_digests() {
    // The benchmark's stream seeds at `--seed 1`: streams 1 to 6 of the
    // fleet workloads, and the eight co-exploration seeds of a
    // design_sweep pass.
    let perfbench = || ((1 << 20) + 1)..=((1 << 20) + 6);
    let measured = vec![
        (
            "session_workload(20) x 6000",
            stream_digest(&session_workload(20.0), 6_000, perfbench()),
        ),
        (
            "disagg_mix(60) x 6000",
            stream_digest(&disagg_mix(60.0), 6_000, perfbench()),
        ),
        (
            "disagg_mix(30) x 400",
            stream_digest(&disagg_mix(DISAGG_RATE), DISAGG_REQUESTS, 8..=15),
        ),
        (
            "skewed_two_tenant",
            stream_digest(
                &skewed_two_tenant(SKEWED_MIX_RATE),
                SKEWED_MIX_REQUESTS,
                [SKEWED_MIX_SEED],
            ),
        ),
        (
            "spec_mix",
            stream_digest(&spec_mix(SPEC_RATE), SPEC_REQUESTS, [SPEC_SEED]),
        ),
    ];
    // Recorded with the expand-all-then-sort generator; the lazily
    // expanded one draws the same requests.
    let golden: [(&str, u64); 5] = [
        ("session_workload(20) x 6000", 0x8b4b_7253_daf5_f5e7),
        ("disagg_mix(60) x 6000", 0x6b82_e36f_4de3_cddc),
        ("disagg_mix(30) x 400", 0x47dc_29e4_9162_72b7),
        ("skewed_two_tenant", 0xcfd6_a1bc_836e_72e8),
        ("spec_mix", 0x7f74_fbac_c3fd_cb82),
    ];
    assert_eq!(
        measured,
        golden,
        "measured digests:\n{}",
        measured
            .iter()
            .map(|(name, d)| format!("(\"{name}\", {d:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
