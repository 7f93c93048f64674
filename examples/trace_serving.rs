//! Observability demo: trace a small fleet, decompose request latency
//! into lifecycle phases, peek at the windowed time series, and export
//! a Chrome trace-event file for the Perfetto waterfall view.
//!
//! Everything printed here is deterministic: events are stamped with sim
//! time only, so the same seed reproduces the same trace byte for byte
//! (pinned by `tests/telemetry.rs`).
//!
//! Run with: `cargo run --release --example trace_serving -- [replicas]`
//! (default 2 replicas). The Chrome trace lands in the system temp
//! directory; open it at <https://ui.perfetto.dev>.

use ador::cluster::{ClusterConfig, ClusterSim, RouterPolicy, TenantClass, TenantMix};
use ador::model::presets;
use ador::perf::Deployment;
use ador::serving::{LatencyStats, SimConfig};
use ador::telemetry::{chrome_trace, spans, Phase, Span, TelemetryConfig};
use ador::units::Seconds;
use ador::AdorError;

fn main() -> Result<(), AdorError> {
    let replicas: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(2);

    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let mix = TenantMix::new(vec![
        TenantClass::chatbot(3.0 * replicas as f64),
        TenantClass::summarization(1.0 * replicas as f64),
    ]);
    let cfg = ClusterConfig::new(replicas, RouterPolicy::JoinShortestQueue)
        .with_engine(SimConfig::new(1.0, 32))
        .with_telemetry(TelemetryConfig::trace().with_series(Seconds::from_millis(100.0)));
    let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)?.run(
        &mix,
        60 * replicas,
        7,
    )?;
    let telemetry = report.telemetry.as_ref().expect("tracing was enabled");

    println!(
        "=== Fleet run: {replicas} replicas, {} requests ===",
        report.completed
    );
    let events_total: usize = telemetry.events.iter().map(Vec::len).sum();
    println!("captured {events_total} lifecycle events across the fleet");

    // Phase decomposition: where did request time actually go?
    println!("\n=== Latency decomposition by lifecycle phase ===");
    println!("phase     | spans | p50 (ms) | p95 (ms) | max (ms)");
    let pooled: Vec<Span> = telemetry.events.iter().flat_map(|e| spans(e)).collect();
    for phase in [Phase::Queue, Phase::Prefill, Phase::Decode, Phase::Stall] {
        let label = phase.label();
        let durations: Vec<Seconds> = pooled
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.end - s.start)
            .collect();
        if durations.is_empty() {
            println!("{label:<10}|     0 |        - |        - |        -");
        } else {
            let stats = LatencyStats::from_samples(&durations);
            println!(
                "{label:<10}| {:>5} | {:>8.2} | {:>8.2} | {:>8.2}",
                durations.len(),
                stats.p50.as_millis(),
                stats.p95.as_millis(),
                stats.max.as_millis(),
            );
        }
    }

    // The windowed time series: the fleet's shape over time.
    println!("\n=== Replica 0 time series (100 ms windows) ===");
    println!("t (s) | queue | active | kv tokens | goodput (tok/s)");
    let series = &telemetry.series[0];
    let stride = (series.points.len() / 8).max(1);
    for p in series.points.iter().step_by(stride) {
        println!(
            "{:>5.2} | {:>5} | {:>6} | {:>9} | {:>8.0}",
            p.time.get(),
            p.queue_depth,
            p.active,
            p.kv_in_use,
            p.goodput_tps,
        );
    }

    // Per-tenant goodput from the same run.
    println!("\n=== Per-tenant goodput (tokens/s per window) ===");
    for (lane, tenant) in telemetry.tenant_goodput.iter().zip(&report.tenants) {
        let peak = lane.iter().copied().fold(0.0f64, f64::max);
        let mean = lane.iter().sum::<f64>() / lane.len().max(1) as f64;
        println!(
            "{:<14}: mean {:>7.0}, peak {:>7.0} over {} windows",
            tenant.name,
            mean,
            peak,
            lane.len()
        );
    }

    // Export the waterfall for Perfetto / chrome://tracing.
    let trace = chrome_trace(&telemetry.events);
    let path = std::env::temp_dir().join("ador_trace_serving.json");
    std::fs::write(&path, &trace).expect("write trace file");
    println!(
        "\nwrote {} ({} bytes) — load it at https://ui.perfetto.dev",
        path.display(),
        trace.len()
    );
    Ok(())
}
