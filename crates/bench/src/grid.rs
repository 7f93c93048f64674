//! The replicas × requests grid that the fleet wall-clock benches
//! (`bench_cluster`, `bench_telemetry`, `bench_attribution`) share: its
//! cells, the always-on telemetry shape they budget, and their
//! min-of-N timer.
//!
//! Every cell runs the shared scale-grid scenario
//! ([`scale_mix`]/[`scale_fleet`]), which scales the offered load with
//! the fleet so each cell isolates driver cost on a healthy fleet
//! rather than queueing collapse.

use std::time::Instant;

use ador_core::baselines;
use ador_core::cluster::scenarios::{scale_fleet, scale_mix, SCALE_SEED};
use ador_core::cluster::{ClusterRequest, ClusterSim, FleetReport};
use ador_core::model::presets;
use ador_core::perf::Deployment;
use ador_core::telemetry::{EventDetail, TelemetryConfig};
use ador_core::units::Seconds;

/// The full grid: small fleets up to the 128-replica / 100k-request
/// cell, where the ready heap keeps idle replicas out of each instant
/// and the overhead caps are enforced
/// ([`crate::schema::TELEMETRY_OVERHEAD_FLOOR_REQUESTS`]).
const FULL_GRID: [(usize, usize); 4] = [(4, 4_000), (16, 16_000), (64, 64_000), (128, 100_000)];

/// The `--quick` smoke grid: exercises the same code path (timed runs,
/// re-checks, JSON write) in seconds.
const QUICK_GRID: [(usize, usize); 2] = [(2, 300), (4, 600)];

/// The `(replicas, requests)` cells of a full or a `--quick` run.
pub fn cells(quick: bool) -> &'static [(usize, usize)] {
    if quick {
        &QUICK_GRID
    } else {
        &FULL_GRID
    }
}

/// Per-replica flight-recorder capacity of the traced configurations —
/// enough to post-mortem the recent past (≈40 batch-32 steps of
/// commits), constant memory, and small enough (128 KB of events per
/// replica) that the fleet's rings stay cache-resident: ring-write
/// memory traffic, not CPU, is what the overhead budget is spent on.
pub const RING_CAPACITY: usize = 4_096;

/// Time-series sampling interval of the traced configurations.
pub fn series_interval() -> Seconds {
    Seconds::from_millis(250.0)
}

/// The budgeted always-on telemetry shape: a bounded per-replica flight
/// recorder plus windowed time series, at `EventDetail::Lifecycle`
/// granularity (steady one-token decode commits elided, every phase
/// boundary kept).
pub fn lifecycle() -> TelemetryConfig {
    TelemetryConfig::flight_recorder(RING_CAPACITY)
        .with_detail(EventDetail::Lifecycle)
        .with_series(series_interval())
}

/// The request stream of the `replicas`-wide cell.
pub fn stream(replicas: usize, requests: usize) -> Vec<ClusterRequest> {
    scale_mix(replicas).generate(requests, SCALE_SEED)
}

/// Times `ClusterSim::run_stream` over `stream` on a `replicas`-wide
/// scale fleet under each of `configs`, `runs` times with the configs
/// interleaved within each repeat (so machine-load drift hits every
/// config alike), and keeps each config's fastest wall-clock seconds
/// with its report — the report is identical across repeats, since the
/// simulation is deterministic.
pub fn time_cell<const N: usize>(
    replicas: usize,
    stream: &[ClusterRequest],
    configs: [TelemetryConfig; N],
    runs: usize,
) -> [(f64, FleetReport); N] {
    let arch = baselines::ador_table3();
    let model = presets::llama3_8b();
    let mix = scale_mix(replicas);
    let mut best: [Option<(f64, FleetReport)>; N] = std::array::from_fn(|_| None);
    for _ in 0..runs {
        for (config, best) in configs.iter().zip(&mut best) {
            let sim = ClusterSim::new(
                &arch,
                &model,
                Deployment::single_device(),
                scale_fleet(replicas).with_telemetry(*config),
            )
            .expect("fleet builds");
            let start = Instant::now();
            let report = sim.run_stream(&mix, stream.to_vec()).expect("fleet runs");
            let elapsed = start.elapsed().as_secs_f64();
            if best.as_ref().is_none_or(|(t, _)| elapsed < *t) {
                *best = Some((elapsed, report));
            }
        }
    }
    best.map(|b| b.expect("at least one run"))
}
