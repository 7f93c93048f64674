//! End-to-end observability contracts: same-seed runs export
//! byte-identical traces, and the Chrome trace-event JSON round-trips
//! through the `ador_bench` parser (i.e. it is real JSON a Perfetto
//! import will accept, not just a string that looks like it).

use ador::cluster::scenarios::{
    disagg_cluster, disagg_engine, disagg_mix, DISAGG_RATE, DISAGG_REPLICAS, DISAGG_REQUESTS,
    DISAGG_SEED,
};
use ador::cluster::{
    ClusterConfig, ClusterSim, FleetReport, FleetSpec, PoolRole, ReplicaSpec, RouterPolicy,
    TenantClass, TenantMix,
};
use ador::model::presets;
use ador::perf::Deployment;
use ador::serving::SimConfig;
use ador::telemetry::{chrome_trace, Event, EventKind, TelemetryConfig};
use ador::units::Seconds;
use ador_bench::json::{self, Value};

fn traced_fleet(seed: u64) -> FleetReport {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let mix = TenantMix::new(vec![
        TenantClass::chatbot(4.0),
        TenantClass::summarization(2.0),
    ]);
    let cfg = ClusterConfig::new(2, RouterPolicy::JoinShortestQueue)
        .with_engine(SimConfig::new(1.0, 32))
        .with_telemetry(TelemetryConfig::trace().with_series(Seconds::from_millis(100.0)));
    ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
        .expect("fleet builds")
        .run(&mix, 80, seed)
        .expect("fleet runs")
}

#[test]
fn same_seed_runs_export_byte_identical_traces() {
    let a = traced_fleet(13);
    let b = traced_fleet(13);
    let ta = a.telemetry.expect("traced");
    let tb = b.telemetry.expect("traced");
    assert_eq!(ta.events, tb.events, "event streams must be deterministic");
    assert_eq!(ta.series, tb.series, "time series must be deterministic");
    assert_eq!(
        chrome_trace(&ta.events),
        chrome_trace(&tb.events),
        "exported trace must be byte-identical across same-seed runs"
    );
}

#[test]
fn chrome_trace_round_trips_through_the_json_parser() {
    let report = traced_fleet(13);
    let telemetry = report.telemetry.expect("traced");
    let trace = chrome_trace(&telemetry.events);
    let doc = json::parse(&trace).expect("exported trace must be valid JSON");

    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "a completed run produces trace events");

    // Every event carries the Chrome trace-event required fields, and
    // the complete ("X") events have non-negative durations.
    let mut complete = 0;
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph field");
        e.get("pid").and_then(Value::as_f64).expect("pid field");
        assert!(
            e.get("name").and_then(Value::as_str).is_some(),
            "name field"
        );
        match ph {
            "X" => {
                complete += 1;
                let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
                let dur = e.get("dur").and_then(Value::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0, "ts {ts}, dur {dur}");
            }
            "i" | "M" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(complete > 0, "phase spans must appear as complete events");
}

#[test]
fn tracing_leaves_the_fleet_report_unchanged() {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let mix = TenantMix::new(vec![
        TenantClass::chatbot(4.0),
        TenantClass::summarization(2.0),
    ]);
    let run = |telemetry: TelemetryConfig| {
        let cfg = ClusterConfig::new(2, RouterPolicy::LeastKvLoad)
            .with_engine(SimConfig::new(1.0, 32))
            .with_telemetry(telemetry);
        ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .expect("fleet builds")
            .run(&mix, 80, 17)
            .expect("fleet runs")
    };
    let off = run(TelemetryConfig::OFF);
    assert!(off.telemetry.is_none(), "untraced runs carry no telemetry");
    let mut on =
        run(TelemetryConfig::flight_recorder(4096).with_series(Seconds::from_millis(50.0)));
    assert!(on.telemetry.take().is_some());
    assert_eq!(on, off, "telemetry must observe, never perturb");
}

#[test]
fn flight_recorder_keeps_exactly_the_tail_of_the_full_log() {
    // One seeded fleet, traced once into unbounded logs and then into
    // rings: per replica, a ring holds exactly the last `cap` events of
    // the log, router-recorded sheds included. One cap wraps on every
    // replica; the other exceeds every stream and keeps all of it.
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let mix = TenantMix::new(vec![
        TenantClass::chatbot(12.0),
        TenantClass::summarization(4.0),
    ]);
    let run = |telemetry: TelemetryConfig| -> Vec<Vec<Event>> {
        let cfg = ClusterConfig::new(3, RouterPolicy::JoinShortestQueue)
            .with_engine(SimConfig::new(1.0, 8))
            .with_queue_cap(4)
            .with_telemetry(telemetry);
        ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .expect("fleet builds")
            .run(&mix, 120, 13)
            .expect("fleet runs")
            .telemetry
            .expect("traced")
            .events
    };
    let logs = run(TelemetryConfig::trace());
    assert!(
        logs.iter().flatten().any(|e| e.kind == EventKind::Shed),
        "the queue cap must shed, so the router's records are covered"
    );
    let shortest = logs.iter().map(Vec::len).min().expect("replicas");
    let longest = logs.iter().map(Vec::len).max().expect("replicas");
    let wraps = 64;
    assert!(
        shortest > wraps,
        "the small ring must wrap on every replica"
    );
    for cap in [wraps, longest + 1] {
        let rings = run(TelemetryConfig::flight_recorder(cap));
        assert_eq!(rings.len(), logs.len());
        for (ring, log) in rings.iter().zip(&logs) {
            assert_eq!(ring[..], log[log.len().saturating_sub(cap)..], "cap {cap}");
        }
    }
}

/// Runs the pinned disaggregation scenario with per-replica tracing and
/// windowed series (the fleet path reads telemetry off each replica's
/// engine config, not the cluster config).
fn traced_disagg(seed: u64) -> FleetReport {
    let model = presets::llama3_8b();
    let engine = disagg_engine()
        .with_telemetry(TelemetryConfig::trace().with_series(Seconds::from_millis(250.0)));
    let fleet = FleetSpec::prefill_decode(
        &ReplicaSpec::new(ador::baselines::prefill_optimized(), engine),
        DISAGG_REPLICAS / 2,
        &ReplicaSpec::new(ador::baselines::decode_optimized(), engine),
        DISAGG_REPLICAS / 2,
    );
    ClusterSim::new_fleet(
        &fleet,
        &model,
        Deployment::single_device(),
        disagg_cluster(true),
    )
    .expect("fleet builds")
    .run(&disagg_mix(DISAGG_RATE), DISAGG_REQUESTS, seed)
    .expect("fleet runs")
}

#[test]
fn disaggregated_series_stay_separable_by_pool_role() {
    let report = traced_disagg(DISAGG_SEED);
    let telemetry = report.telemetry.expect("traced");
    assert_eq!(
        telemetry.series.len(),
        telemetry.series_roles.len(),
        "every series carries its replica's pool role"
    );
    assert!(
        telemetry.series_roles.contains(&PoolRole::Prefill)
            && telemetry.series_roles.contains(&PoolRole::Decode),
        "a disaggregated fleet tags both pools: {:?}",
        telemetry.series_roles
    );
    // The decode pool commits ~all output tokens; the prefill pool only
    // first tokens — the per-pool goodput split must show it.
    let pool_goodput = |role: PoolRole| -> f64 {
        telemetry
            .series
            .iter()
            .zip(&telemetry.series_roles)
            .filter(|(_, r)| **r == role)
            .flat_map(|(s, _)| s.points.iter().map(|p| p.goodput_tps))
            .sum()
    };
    let prefill = pool_goodput(PoolRole::Prefill);
    let decode = pool_goodput(PoolRole::Decode);
    assert!(
        decode > prefill && decode > 0.0,
        "decode-pool goodput ({decode:.1}) must dominate prefill-pool ({prefill:.1})"
    );

    // Aggregated fleets tag every series Unified.
    let model = presets::llama3_8b();
    let mix = TenantMix::new(vec![TenantClass::chatbot(4.0)]);
    let cfg = ClusterConfig::new(2, RouterPolicy::JoinShortestQueue)
        .with_engine(SimConfig::new(1.0, 32))
        .with_telemetry(TelemetryConfig::trace().with_series(Seconds::from_millis(100.0)));
    let arch = ador::baselines::ador_table3();
    let aggregated = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
        .expect("fleet builds")
        .run(&mix, 60, 5)
        .expect("fleet runs");
    let roles = aggregated.telemetry.expect("traced").series_roles;
    assert!(
        !roles.is_empty() && roles.iter().all(|r| *r == PoolRole::Unified),
        "aggregated fleets are all-Unified: {roles:?}"
    );
}

#[test]
fn kv_transfer_spans_nest_between_prefill_completion_and_decode_admission() {
    let report = traced_disagg(DISAGG_SEED);
    assert!(report.kv_transfers > 0, "the scenario must transfer");
    let telemetry = report.telemetry.as_ref().expect("traced");

    // Index the per-request lifecycle instants across both pools.
    let mut complete_at = std::collections::BTreeMap::new();
    let mut enqueues: std::collections::BTreeMap<u64, Vec<f64>> = std::collections::BTreeMap::new();
    for events in &telemetry.events {
        for e in events {
            match e.kind {
                EventKind::Complete => {
                    // First Complete = the prefill half's finish.
                    complete_at.entry(e.request).or_insert(e.time.get());
                }
                EventKind::Enqueue => enqueues.entry(e.request).or_default().push(e.time.get()),
                _ => {}
            }
        }
    }

    let mut checked = 0;
    let mut start_at = std::collections::BTreeMap::new();
    for (_, e) in &telemetry.transfer_events {
        match e.kind {
            EventKind::KvTransferStart { .. } => {
                start_at.insert(e.request, e.time.get());
            }
            EventKind::KvTransferEnd { .. } => {
                let Some(&start) = start_at.get(&e.request) else {
                    continue;
                };
                let end = e.time.get();
                let Some(&complete) = complete_at.get(&e.request) else {
                    continue;
                };
                // The decode half re-enqueues at transfer maturity.
                let Some(decode_enqueue) = enqueues
                    .get(&e.request)
                    .and_then(|ts| ts.iter().copied().find(|&t| t >= start))
                else {
                    continue;
                };
                assert!(
                    complete <= start && start <= end && end <= decode_enqueue,
                    "request {}: transfer [{start}, {end}] must nest between prefill \
                     completion {complete} and decode admission {decode_enqueue}",
                    e.request
                );
                checked += 1;
            }
            _ => {}
        }
    }
    assert!(checked > 0, "at least one full transfer span is checked");

    // The combined streams (lifecycles plus transfer markers) render to
    // one Chrome trace that round-trips the JSON parser and is
    // byte-identical across same-seed runs.
    let merge = |report: &FleetReport| -> Vec<Vec<Event>> {
        let t = report.telemetry.as_ref().expect("traced");
        let mut streams = t.events.clone();
        for (replica, e) in &t.transfer_events {
            streams[*replica].push(*e);
        }
        streams
    };
    let second = traced_disagg(DISAGG_SEED);
    let trace = chrome_trace(&merge(&report));
    assert_eq!(
        trace,
        chrome_trace(&merge(&second)),
        "same-seed disaggregated traces must be byte-identical"
    );
    let doc = json::parse(&trace).expect("disaggregated trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let named = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
            .count()
    };
    assert!(
        named("kv_transfer_out") > 0 && named("kv_transfer_in") > 0,
        "transfer markers must survive the export"
    );
}
