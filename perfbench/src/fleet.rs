//! One fleet evaluation, run three ways: untraced (the end-to-end
//! timing), traced (spans around every `ClusterSim` call), and replayed
//! replica by replica through fresh engines (the serving-layer spans and
//! the per-replica oracle).

use std::collections::BTreeMap;
use std::time::Instant;

use ador_core::cluster::{
    ClusterConfig, ClusterRequest, ClusterSim, FleetReport, FleetSpec, ReplicaSnapshot, Router,
    TenantMix, Topology,
};
use ador_core::model::{ModelConfig, Phase};
use ador_core::perf::{Deployment, Evaluator};
use ador_core::serving::{Engine, Request, ServingSim, SimError, StepEvent};
use ador_core::telemetry::{EventKind, TelemetryConfig};

use crate::trace::Tracer;

/// Everything one fleet evaluation needs: the served model, the replica
/// mix, the fleet config and the seeded open-loop request stream's
/// generator.
#[derive(Debug, Clone)]
pub struct FleetCase {
    pub model: ModelConfig,
    pub fleet: FleetSpec,
    pub cfg: ClusterConfig,
    pub mix: TenantMix,
    pub requests: usize,
    pub seed: u64,
}

impl FleetCase {
    /// The seeded request stream (a pure function of the case).
    pub fn stream(&self) -> Vec<ClusterRequest> {
        self.mix.generate(self.requests, self.seed)
    }

    /// Builds the fleet simulator over this case's replicas.
    pub fn sim(&self) -> Result<ClusterSim<'_>, SimError> {
        ClusterSim::new_fleet(
            &self.fleet,
            &self.model,
            Deployment::single_device(),
            self.cfg,
        )
    }

    /// A fresh engine for replica `i`, with telemetry off (it is
    /// passive, so outcomes do not depend on it).
    fn engine(&self, i: usize) -> Result<Engine<'_>, SimError> {
        let spec = &self.fleet.replicas[i];
        let cfg = spec.engine.with_telemetry(TelemetryConfig::OFF);
        Ok(ServingSim::new(&spec.arch, &self.model, Deployment::single_device(), cfg)?.engine())
    }

    fn disaggregated(&self) -> bool {
        matches!(self.cfg.topology, Topology::Disaggregated(_))
    }
}

/// The outcome of one pass over a case: host seconds spent in the run
/// (after set-up: building the case, generating its stream, constructing
/// the fleet), the same run cut into consecutive windows, plus the fleet
/// report.
#[derive(Debug)]
pub struct Pass {
    pub case: FleetCase,
    pub run_s: f64,
    /// Host seconds of each window of the run; they sum to `run_s`.
    pub windows: Vec<f64>,
    pub report: FleetReport,
}

/// One untraced pass: `ClusterSim::run_stream`'s own calls
/// (`submit_stream`, `advance` until drained, `finish`), with a clock read
/// after every `window` `advance` calls and none elsewhere. The call
/// count is a pure function of the case, so every repeat of a case cuts
/// its run into the same windows.
pub fn untraced_pass(build: &dyn Fn() -> FleetCase, window: usize) -> Result<Pass, SimError> {
    let case = build();
    let stream = case.stream();
    let mut sim = case.sim()?;
    let mut windows = Vec::new();
    let t1 = Instant::now();
    let mut mark = t1;
    sim.submit_stream(&case.mix, stream);
    let mut calls = 0;
    while sim.advance()? {
        calls += 1;
        if calls % window == 0 {
            let now = Instant::now();
            windows.push((now - mark).as_secs_f64());
            mark = now;
        }
    }
    let report = sim.finish();
    let t2 = Instant::now();
    windows.push((t2 - mark).as_secs_f64());
    Ok(Pass {
        run_s: (t2 - t1).as_secs_f64(),
        windows,
        case,
        report,
    })
}

/// One traced pass: the same calls as [`untraced_pass`], driven through
/// the incremental `submit_stream` / `advance` / `finish` surface with a
/// span around each call.
pub fn traced_pass(build: &dyn Fn() -> FleetCase, tr: &mut Tracer) -> Result<Pass, SimError> {
    let setup = tr.begin("bench.setup");
    let case = tr.span("bench.build_case", |_| build());
    let stream = tr.span("cluster.generate", |_| case.stream());
    let sim = tr.span("cluster.new_fleet", |_| case.sim());
    tr.end(setup);
    let mut sim = sim?;
    let run = tr.begin("bench.run");
    tr.span("cluster.submit_stream", |_| {
        sim.submit_stream(&case.mix, stream)
    });
    loop {
        let id = tr.begin("cluster.advance");
        let more = sim.advance();
        tr.end(id);
        if !more? {
            break;
        }
    }
    let report = tr.span("cluster.finish", |_| sim.finish());
    let run_ns = tr.end(run);
    let run_s = run_ns as f64 / 1e9;
    Ok(Pass {
        run_s,
        windows: vec![run_s],
        case,
        report,
    })
}

/// What replaying a fleet's routed requests through fresh engines found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Engine iterations (`StepEvent::Worked`) across all replicas.
    pub steps: u64,
    /// Requests re-submitted.
    pub submits: u64,
    /// Replicas whose replayed QoS report differs from the fleet's.
    pub mismatched: usize,
}

/// Each replica's requests as the fleet handed them over: the routing
/// trace for whole requests, and under disaggregation the prefill halves
/// plus the decode halves reconstructed from the KV-transfer markers.
/// `None` when a disaggregated report carries no transfer markers.
fn replica_requests(case: &FleetCase, report: &FleetReport) -> Option<Vec<Vec<Request>>> {
    let by_id: BTreeMap<u64, Request> = case
        .stream()
        .into_iter()
        .map(|cr| (cr.request.id, cr.request))
        .collect();
    let mut lists: Vec<Vec<Request>> = vec![Vec::new(); case.fleet.len()];
    let split = case.disaggregated();
    for &(id, replica) in &report.assignments {
        if let Some(r) = replica {
            let mut job = by_id[&id];
            if split && job.output_tokens > 1 {
                job.output_tokens = 1;
            }
            lists[r].push(job);
        }
    }
    if split {
        let telemetry = report.telemetry.as_ref()?;
        for &(replica, ev) in &telemetry.transfer_events {
            if let EventKind::KvTransferEnd { .. } = ev.kind {
                let orig = by_id[&ev.request];
                lists[replica].push(Request {
                    arrival: ev.time,
                    input_tokens: orig.input_tokens + 1,
                    output_tokens: orig.output_tokens - 1,
                    prefix_group: None,
                    imported_context: orig.input_tokens,
                    ..orig
                });
            }
        }
    }
    Some(lists)
}

/// Replays every replica's requests through a fresh engine and checks
/// its QoS report against the fleet's per-replica report. Every
/// `ServingSim::new` + `engine`, `submit` loop and `step` call gets a span
/// (`serving.step` for iterations, `serving.jump` for idle jumps).
pub fn replay(
    case: &FleetCase,
    report: &FleetReport,
    tr: &mut Tracer,
) -> Result<Option<Replay>, SimError> {
    let Some(lists) = replica_requests(case, report) else {
        return Ok(None);
    };
    let mut out = Replay::default();
    let outer = tr.begin("serving.replay");
    for (i, mut requests) in lists.into_iter().enumerate() {
        let mut engine = tr.span("serving.engine_new", |_| case.engine(i))?;
        requests.sort_by(|a, b| {
            a.arrival
                .get()
                .total_cmp(&b.arrival.get())
                .then(a.id.cmp(&b.id))
        });
        out.submits += requests.len() as u64;
        tr.span("serving.submit_all", |_| {
            requests.into_iter().try_for_each(|r| engine.submit(r))
        })?;
        loop {
            let span = tr.begin("serving.step");
            let ev = engine.step();
            tr.end(span);
            match ev? {
                StepEvent::Idle => {
                    tr.rename(span, "serving.idle");
                    break;
                }
                StepEvent::Jumped => tr.rename(span, "serving.jump"),
                StepEvent::Worked { .. } => out.steps += 1,
            }
        }
        if engine.report() != report.per_replica[i] {
            out.mismatched += 1;
        }
    }
    tr.end(outer);
    Ok(Some(out))
}

/// Requests fed to the router probe.
const ROUTE_PROBE_REQUESTS: usize = 16_384;

/// Times `Router::route` at the case's fleet size and front-door policy:
/// fresh engines receive the stream's first requests in arrival order,
/// each routed from snapshots read through the engines' public
/// accessors (refreshed for the receiving replica only, as the fleet
/// driver does). Engines are not stepped, so loads only grow; the probe
/// prices the decision, not the placement.
pub fn route_probe(case: &FleetCase, tr: &mut Tracer) -> Result<(), SimError> {
    let pool: Vec<usize> = if case.disaggregated() {
        case.fleet.prefill_pool()
    } else {
        (0..case.fleet.len()).collect()
    };
    let mut engines = pool
        .iter()
        .map(|&i| case.engine(i))
        .collect::<Result<Vec<_>, SimError>>()?;
    let snap = |e: &Engine<'_>| ReplicaSnapshot {
        queue_depth: e.queue_depth(),
        active: e.active_len(),
        kv_in_use: e.kv_in_use(),
        backlog_tokens: e.backlog_tokens(),
        kv_budget_tokens: e.kv_budget_tokens(),
    };
    let mut snapshots: Vec<ReplicaSnapshot> = engines.iter().map(snap).collect();
    let mut router = Router::new(case.cfg.policy);
    let classes = case.mix.classes().len();
    let mut stream = case.stream();
    stream.truncate(ROUTE_PROBE_REQUESTS);
    for cr in stream {
        let id = tr.begin("cluster.route");
        let idx = router.route(cr.tenant, classes, cr.request.prefix_group, &snapshots);
        tr.end(id);
        engines[idx].submit(cr.request)?;
        snapshots[idx] = snap(&engines[idx]);
    }
    Ok(())
}

/// Times `Evaluator::new` and uncached `Evaluator::step` for every
/// distinct chip in the case, over the batch × context grid its engine
/// config spans: batches doubling up to `max_batch`, contexts doubling
/// from one step-cache bucket (128 tokens) up to `max_context`.
pub fn perf_probe(case: &FleetCase, max_context: usize, tr: &mut Tracer) {
    const NEW_REPEATS: usize = 64;
    let mut seen: Vec<&str> = Vec::new();
    for spec in &case.fleet.replicas {
        if seen.contains(&spec.arch.name.as_str()) {
            continue;
        }
        seen.push(&spec.arch.name);
        let dep = Deployment::single_device();
        for _ in 0..NEW_REPEATS {
            tr.span("perf.evaluator_new", |_| {
                std::hint::black_box(Evaluator::new(&spec.arch, &case.model, dep)).is_ok()
            });
        }
        let Ok(eval) = Evaluator::new(&spec.arch, &case.model, dep) else {
            continue;
        };
        let mut batch = 1;
        while batch <= spec.engine.max_batch {
            let mut ctx = 128;
            while ctx <= max_context {
                let decode = Phase::decode(batch, ctx);
                let prefill = Phase::prefill(batch, ctx);
                tr.span("perf.eval_decode", |_| {
                    std::hint::black_box(eval.step(std::hint::black_box(decode))).is_ok()
                });
                tr.span("perf.eval_prefill", |_| {
                    std::hint::black_box(eval.step(std::hint::black_box(prefill))).is_ok()
                });
                ctx *= 2;
            }
            batch *= 2;
        }
    }
}

/// FNV-1a over a byte stream: the simulated-output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a fleet report's simulated outputs: the routing trace, the
    /// per-replica reports and the fleet totals.
    pub fn fleet(&mut self, report: &FleetReport) {
        for &(id, replica) in &report.assignments {
            self.update(&id.to_le_bytes());
            self.update(&replica.map_or(u64::MAX, |r| r as u64).to_le_bytes());
        }
        self.update(format!("{:?}", report.per_replica).as_bytes());
        self.update(format!("{:?}", report.fleet).as_bytes());
        self.update(format!("{:?}", report.tenants).as_bytes());
        let totals = [
            report.submitted,
            report.completed,
            report.rejected,
            report.kv_transfers,
        ];
        for n in totals {
            self.update(&(n as u64).to_le_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The correctness gate of one fleet run: conservation (every offered
/// request completed, none shed or lost).
pub fn conserved(case: &FleetCase, report: &FleetReport) -> bool {
    report.submitted == case.requests
        && report.submitted == report.completed + report.rejected
        && report.completed == case.requests
}
