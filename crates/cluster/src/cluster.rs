//! The fleet simulator: N engine replicas behind a router, driven by one
//! discrete-event loop on one global clock.
//!
//! Each [`ClusterSim::advance`] call processes one *boundary instant*:
//! the earliest of the next request arrival, the next KV-transfer
//! maturity and, when the fleet has a [`KvLink`], a causality guard. A
//! binary-heap event queue keyed by [`Engine::next_event_time`] picks out
//! the replicas with work strictly before the instant, and only those are
//! swept up to it, so idle replicas cost nothing. With a link, the
//! completions that surfaced are then classified and the matured KV
//! transfers delivered; last, the arrivals at the instant are routed.
//! An aggregated fleet is the case with no link and no guard. The unit
//! tests hold the loop equal to a reference that sweeps every replica to
//! every instant.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use ador_hw::Architecture;
use ador_model::ModelConfig;
use ador_perf::Deployment;
use ador_serving::{
    Engine, QosReport, Request, RequestOutcome, ServingSim, SimConfig, SimError, StepCosts,
};
use ador_telemetry::{
    goodput_series, AttributionReport, Event, EventKind, TelemetryConfig, TimeSeries,
};
use ador_units::{conv, Seconds};

use crate::fleet;
use crate::ledger::Ledger;
use crate::report::{imbalance, FleetAttribution, FleetTelemetry};
use crate::{
    ClusterRequest, FleetReport, FleetSpec, KvLink, PoolRole, ReplicaSnapshot, Router,
    RouterPolicy, TenantClass, TenantMix, TenantQos, Topology,
};

/// Fleet-level configuration: replica count, routing policy, admission
/// control, and the per-replica engine knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Engine replicas in the fleet.
    pub replicas: usize,
    /// The routing policy at the front door.
    pub policy: RouterPolicy,
    /// Admission control: shed a request when its chosen replica already
    /// has this many requests waiting. `None` admits everything.
    pub queue_cap: Option<usize>,
    /// Per-replica engine knobs (batch cap, prefill chunk, KV fraction,
    /// scheduler policy). The `arrival_rate`, `requests` and `seed`
    /// fields are unused — the cluster's [`TenantMix`] owns the workload.
    pub engine: SimConfig,
    /// How the fleet divides request lifecycles across replicas
    /// ([`Topology::Aggregated`] by default; see
    /// [`ClusterConfig::with_disaggregation`]).
    pub topology: Topology,
    /// The decode-pool routing policy of a disaggregated fleet (ignored
    /// under [`Topology::Aggregated`]). Defaults to
    /// [`RouterPolicy::LeastKvLoad`]: decode replicas are KV-residency
    /// bound, so token demand — not request count — is the scarce
    /// resource worth balancing there.
    pub decode_policy: RouterPolicy,
}

impl ClusterConfig {
    /// Creates a config with `replicas` engines behind `policy`, 128-slot
    /// replicas and no admission control.
    pub fn new(replicas: usize, policy: RouterPolicy) -> Self {
        Self {
            replicas,
            policy,
            queue_cap: None,
            engine: SimConfig::new(1.0, 128),
            topology: Topology::Aggregated,
            decode_policy: RouterPolicy::LeastKvLoad,
        }
    }

    /// Switches the fleet to prefill/decode disaggregation over `link`:
    /// fresh prompts are routed within the prefill pool under
    /// [`ClusterConfig::policy`]; each finished context is shipped over
    /// `link` (latency plus tokens × KV-bytes-per-token at link
    /// bandwidth, charged on the event clock) and decodes on a replica
    /// chosen by [`ClusterConfig::decode_policy`].
    pub fn with_disaggregation(mut self, link: KvLink) -> Self {
        self.topology = Topology::Disaggregated(link);
        self
    }

    /// Sets the decode-pool routing policy of a disaggregated fleet.
    pub fn with_decode_policy(mut self, policy: RouterPolicy) -> Self {
        self.decode_policy = policy;
        self
    }

    /// Sets the per-replica engine configuration.
    pub fn with_engine(mut self, engine: SimConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the admission-control queue cap.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }

    /// Enables or disables prefix-aware KV reuse on every replica engine
    /// (shorthand for setting
    /// [`SimConfig::prefix_caching`](ador_serving::SimConfig::prefix_caching)
    /// on the embedded engine config). Reuse is strictly per-replica, so
    /// pair it with [`RouterPolicy::CacheAffinity`] to keep a session's
    /// turns where its prefix lives.
    pub fn with_prefix_caching(mut self, enabled: bool) -> Self {
        self.engine.prefix_caching = enabled;
        self
    }

    /// Configures speculative decoding on every replica engine (shorthand
    /// for setting
    /// [`SimConfig::speculation`](ador_serving::SimConfig::speculation)
    /// on the embedded engine config). Per-request acceptance profiles
    /// come from each [`TenantClass::accept_rate`]; the `SloAdaptive`
    /// policy reads each request's class SLO, both stamped onto requests
    /// by [`TenantMix::generate`](crate::TenantMix::generate).
    pub fn with_speculation(mut self, speculation: ador_spec::SpeculationConfig) -> Self {
        self.engine.speculation = speculation;
        self
    }

    /// Configures telemetry on every replica engine (shorthand for
    /// setting [`SimConfig::telemetry`](ador_serving::SimConfig) on the
    /// embedded engine config). With anything enabled, the drained
    /// artifacts land on [`FleetReport::telemetry`]; shed requests are
    /// additionally stamped with [`EventKind::Shed`](ador_telemetry::EventKind)
    /// in the sink of the replica the router chose for them. The default
    /// ([`TelemetryConfig::OFF`]) records nothing and leaves the run
    /// bit-identical to an untraced fleet.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.engine.telemetry = telemetry;
        self
    }
}

/// An entry of the fleet's event queues: `value` falls due at `time` on
/// the global fleet clock. Min-heap ordered via [`Reverse`] by
/// `(time, key)`, so equal times pop in key order. The ready heap holds
/// `Due<usize, ()>` keyed by replica index (engines are independent, so
/// this order only keeps the event trace deterministic). The transfer
/// heap holds `Due<u64, usize>`: the ledger slot of a split request, due
/// when its context finishes landing and keyed by request id, so
/// delivery order is part of the pinned trace. The
/// request stream's generator queues its drawn turns the same way (see
/// `tenant::Pending`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Due<K, V> {
    pub(crate) time: Seconds,
    pub(crate) key: K,
    pub(crate) value: V,
}

impl<K: Ord, V> PartialEq for Due<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K: Ord, V> Eq for Due<K, V> {}

impl<K: Ord, V> PartialOrd for Due<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, V> Ord for Due<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .partial_cmp(&other.time)
            // ador-lint: allow(panic) — invariant: event times are finite sums of latencies and draws
            .expect("event times are never NaN")
            .then(self.key.cmp(&other.key))
    }
}

/// A fleet of engine replicas behind a [`Router`].
///
/// The driver is one discrete-event loop on one global clock. Each
/// [`ClusterSim::advance`] call processes one boundary instant: the
/// earliest of the next arrival, the next KV-transfer maturity and, over
/// a [`KvLink`], a causality guard. A binary-heap event queue holds each
/// busy replica keyed by the instant it next has work
/// ([`Engine::next_event_time`]), so only the replicas with work before
/// the instant are swept to it; idle replicas are never touched, and the
/// cost of an instant scales with the busy part of the fleet. The
/// arrivals at the instant are then routed from cached load snapshots
/// that are refreshed only when a replica steps or receives a request.
/// The drain after the last arrival runs on the same clock.
///
/// [`ClusterSim::run`] does all of this in one call; the incremental
/// [`ClusterSim::submit_stream`] / [`ClusterSim::advance`] /
/// [`ClusterSim::finish`] surface exists so tests and tools can observe
/// fleet state (e.g. the conservation invariant
/// `submitted == completed + rejected + in_flight`) between events.
///
/// # Examples
///
/// ```
/// use ador_cluster::{ClusterConfig, ClusterSim, RouterPolicy, TenantClass, TenantMix};
/// use ador_perf::Deployment;
///
/// let arch = ador_baselines::ador_table3();
/// let model = ador_model::presets::llama3_8b();
/// let mix = TenantMix::new(vec![
///     TenantClass::chatbot(4.0),
///     TenantClass::code_completion(2.0),
/// ]);
/// let cfg = ClusterConfig::new(2, RouterPolicy::JoinShortestQueue);
/// let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)?
///     .run(&mix, 60, 7)?;
/// assert_eq!(report.completed, 60);
/// assert_eq!(report.tenants.len(), 2);
/// # Ok::<(), ador_serving::SimError>(())
/// ```
pub struct ClusterSim<'a> {
    engines: Vec<Engine<'a>>,
    router: Router,
    cfg: ClusterConfig,
    /// The offered stream, sorted by arrival, and how many of its
    /// requests were routed or shed so far.
    stream: Vec<ClusterRequest>,
    routed: usize,
    classes: Vec<TenantClass>,
    /// Per-request stream positions and prefill halves, built by
    /// [`ClusterSim::submit_stream`].
    ledger: Ledger,
    submitted_per_tenant: Vec<usize>,
    rejected_per_tenant: Vec<usize>,
    assignments: Vec<(u64, Option<usize>)>,
    /// The global fleet clock: the latest event instant processed. Every
    /// routing decision is stamped at or after this time.
    clock: Seconds,
    /// The event queue of the driver: busy replicas keyed by
    /// [`Engine::next_event_time`]. Entries are invalidated lazily —
    /// every state change pushes a fresh entry, and a popped entry whose
    /// key no longer matches its replica's live peek is discarded.
    ready: BinaryHeap<Reverse<Due<usize, ()>>>,
    /// Cached per-replica load snapshots, refreshed only when a replica
    /// steps or receives a submission (its load state changes exactly
    /// then, and never merely by time passing).
    snapshots: Vec<ReplicaSnapshot>,
    /// Replica indices the front door routes fresh arrivals over: every
    /// replica under [`Topology::Aggregated`], the prefill pool
    /// (`Prefill` and `Unified` roles) under disaggregation.
    front_pool: Vec<usize>,
    /// Replica indices serving transferred contexts under disaggregation
    /// (`Decode` and `Unified` roles).
    decode_pool: Vec<usize>,
    /// Decode-pool router (consulted only under disaggregation; it only
    /// ever sees the decode pool, so its policy state stays coherent).
    decode_router: Router,
    /// The KV interconnect — `Some` exactly under
    /// [`Topology::Disaggregated`]. Only with it do boundary instants
    /// carry the causality guard and completions get classified.
    link: Option<KvLink>,
    /// Full-model KV bytes per token (transfer serialization sizing).
    kv_bytes_per_token: u64,
    /// In-flight KV-context transfers, keyed by maturity. Tracked like
    /// admissions: a split request counts here between leaving its
    /// prefill replica and landing on its decode replica, so
    /// `submitted == completed + rejected + in_flight + in_transfer`
    /// holds at every [`ClusterSim::advance`] boundary.
    transfers: BinaryHeap<Reverse<Due<u64, usize>>>,
    /// Per-engine cursor into [`Engine::outcomes`]: completions before
    /// it are already classified (split bookkeeping done).
    seen_outcomes: Vec<usize>,
    /// Fully stitched end-to-end outcomes (disaggregated runs only): one
    /// per request finished end-to-end.
    stitched: Vec<RequestOutcome>,
    /// Transfer-span telemetry lane (replica index + event), kept at
    /// fleet level rather than in engine sinks and time-sorted when the
    /// report is built.
    transfer_events: Vec<(usize, Event)>,
    /// KV-context transfers launched.
    kv_transfers: usize,
    /// Context tokens shipped across the link in total.
    kv_transferred_tokens: u64,
    /// The fleet's effective telemetry config. Per-replica configs may
    /// differ under [`ClusterSim::new_fleet`]; the first enabled one
    /// decides whether the report carries a telemetry block.
    telemetry_cfg: TelemetryConfig,
    /// Pool role per replica, index-aligned with `engines` (all
    /// `Unified` for aggregated fleets) — tags the per-replica telemetry
    /// artifacts so pools stay separable in the report.
    roles: Vec<PoolRole>,
}

impl<'a> ClusterSim<'a> {
    /// Builds a fleet of `cfg.replicas` identical replicas: exactly the
    /// fleet [`ClusterSim::new_fleet`] builds from as many copies of
    /// `ReplicaSpec::new(arch.clone(), cfg.engine)`, through the same
    /// builder and telemetry rule (here `cfg.engine.telemetry`). They
    /// price their steps in one shared table ([`StepCosts`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyConfig`] for a zero replica count, and
    /// propagates per-replica construction errors (model does not fit,
    /// no KV headroom, …).
    pub fn new(
        arch: &'a Architecture,
        model: &'a ModelConfig,
        deployment: Deployment,
        cfg: ClusterConfig,
    ) -> Result<Self, SimError> {
        let replicas = (0..cfg.replicas).map(|_| (arch, cfg.engine, PoolRole::Unified));
        Self::build(replicas, model, deployment, cfg, &mut StepCosts::new())
    }

    /// Builds a heterogeneous fleet from an explicit replica mix: each
    /// replica runs its own [`ReplicaSpec`](crate::ReplicaSpec) hardware
    /// and engine config, and under [`Topology::Disaggregated`] the
    /// specs' [`PoolRole`]s decide which pool each replica serves.
    /// `cfg.replicas` is ignored — the fleet's length wins. Replicas of
    /// equal hardware price their steps in one shared table
    /// ([`StepCosts`]). The fleet's telemetry config, which decides
    /// whether the report carries a telemetry block, is the first
    /// enabled replica config's, else `cfg.engine.telemetry`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyConfig`] for an empty fleet or a
    /// disaggregated topology whose prefill or decode pool is empty, and
    /// propagates per-replica construction errors.
    pub fn new_fleet(
        fleet: &'a FleetSpec,
        model: &'a ModelConfig,
        deployment: Deployment,
        cfg: ClusterConfig,
    ) -> Result<Self, SimError> {
        Self::new_fleet_in(fleet, model, deployment, cfg, &mut StepCosts::new())
    }

    /// Like [`ClusterSim::new_fleet`], but every replica prices its steps
    /// in `costs`, so fleets built through one registry share the tables
    /// of their common hardware. Sharing changes no output.
    ///
    /// # Errors
    ///
    /// As [`ClusterSim::new_fleet`].
    pub fn new_fleet_in(
        fleet: &'a FleetSpec,
        model: &'a ModelConfig,
        deployment: Deployment,
        cfg: ClusterConfig,
        costs: &mut StepCosts<'a>,
    ) -> Result<Self, SimError> {
        let replicas = fleet
            .replicas
            .iter()
            .map(|spec| (&spec.arch, spec.engine, spec.role));
        Self::build(replicas, model, deployment, cfg, costs)
    }

    /// The one fleet builder: one engine per (architecture, engine
    /// config, pool role) replica, in order, each pricing its steps in
    /// `costs`.
    fn build(
        replicas: impl Iterator<Item = (&'a Architecture, SimConfig, PoolRole)>,
        model: &'a ModelConfig,
        deployment: Deployment,
        mut cfg: ClusterConfig,
        costs: &mut StepCosts<'a>,
    ) -> Result<Self, SimError> {
        let (mut engines, mut roles, mut telemetry) = (Vec::new(), Vec::new(), None);
        for (arch, engine, role) in replicas {
            engines.push(ServingSim::new(arch, model, deployment, engine)?.engine_in(costs));
            roles.push(role);
            telemetry = telemetry.or(engine.telemetry.enabled().then_some(engine.telemetry));
        }
        if engines.is_empty() {
            return Err(SimError::EmptyConfig);
        }
        cfg.replicas = engines.len();
        let link = match cfg.topology {
            Topology::Aggregated => None,
            Topology::Disaggregated(link) => Some(link),
        };
        // Under disaggregation a replica serves the pools its role allows
        // (`Unified` joins both); an aggregated fleet ignores roles.
        let served = |&role: &PoolRole| link.map_or(PoolRole::Unified, |_| role);
        let front_pool = fleet::pool(roles.iter().map(served), PoolRole::Decode);
        let decode_pool = fleet::pool(roles.iter().map(served), PoolRole::Prefill);
        if link.is_some() && (front_pool.is_empty() || decode_pool.is_empty()) {
            return Err(SimError::EmptyConfig);
        }
        let snapshots = engines.iter().map(snapshot).collect();
        let replicas = engines.len();
        Ok(Self {
            engines,
            router: Router::new(cfg.policy),
            decode_router: Router::new(cfg.decode_policy),
            cfg,
            stream: Vec::new(),
            routed: 0,
            classes: Vec::new(),
            ledger: Ledger::default(),
            submitted_per_tenant: Vec::new(),
            rejected_per_tenant: Vec::new(),
            assignments: Vec::new(),
            clock: Seconds::ZERO,
            ready: BinaryHeap::new(),
            snapshots,
            front_pool,
            decode_pool,
            link,
            kv_bytes_per_token: model.kv_bytes_per_token().get(),
            transfers: BinaryHeap::new(),
            seen_outcomes: vec![0; replicas],
            stitched: Vec::new(),
            transfer_events: Vec::new(),
            kv_transfers: 0,
            kv_transferred_tokens: 0,
            telemetry_cfg: telemetry.unwrap_or(cfg.engine.telemetry),
            roles,
        })
    }

    /// Generates `count` requests from `mix` under `seed` and runs the
    /// fleet to completion.
    ///
    /// # Errors
    ///
    /// Returns [`TenantMix::check`]'s error for a class that cannot
    /// generate `count` requests ([`SimError::InvalidArrivalRate`], also
    /// for an on/off MMPP whose sojourns could overflow the clock,
    /// [`SimError::InvalidAcceptRate`] or
    /// [`SimError::InvalidSessionShape`]), and propagates engine errors
    /// (see [`Engine::submit`] / [`Engine::step`]).
    pub fn run(self, mix: &TenantMix, count: usize, seed: u64) -> Result<FleetReport, SimError> {
        mix.check(count)?;
        let stream = mix.generate(count, seed);
        self.run_stream(mix, stream)
    }

    /// Runs an explicit tagged request stream (a recorded trace, say) to
    /// completion. See [`ClusterSim::submit_stream`] for its requirements.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`], before anything is
    /// simulated, for the first request in stream order whose arrival is
    /// NaN or infinite (`Seconds` arithmetic does not check its results)
    /// or whose tenant tag indexes no class of `mix`, and else for the
    /// smallest request id the stream holds twice. Propagates engine
    /// errors (see [`Engine::submit`] / [`Engine::step`]).
    pub fn run_stream(
        mut self,
        mix: &TenantMix,
        stream: Vec<ClusterRequest>,
    ) -> Result<FleetReport, SimError> {
        let classes = mix.classes().len();
        let invalid = stream
            .iter()
            .find(|cr| !cr.request.arrival.get().is_finite() || cr.tenant >= classes);
        if let Some(cr) = invalid {
            return Err(SimError::InvalidRequest { id: cr.request.id });
        }
        self.load(mix, stream)
            .map_err(|id| SimError::InvalidRequest { id })?;
        while self.advance()? {}
        Ok(self.finish())
    }

    /// Loads a tagged request stream for incremental driving. The stream
    /// is sorted by arrival internally; request ids must be unique and
    /// tenant tags must index into `mix`'s classes.
    ///
    /// # Panics
    ///
    /// Panics on a NaN arrival, duplicate request ids or out-of-range
    /// tenant tags (which [`ClusterSim::run_stream`] returns as errors
    /// instead), or if a stream was already loaded.
    pub fn submit_stream(&mut self, mix: &TenantMix, stream: Vec<ClusterRequest>) {
        let duplicate = self.load(mix, stream).err();
        assert!(
            duplicate.is_none(),
            "duplicate request id {}",
            duplicate.unwrap_or_default()
        );
    }

    /// [`ClusterSim::submit_stream`]'s body, which returns the smallest
    /// duplicated request id, found by the ledger's one sort of the ids,
    /// instead of panicking on it.
    fn load(&mut self, mix: &TenantMix, mut stream: Vec<ClusterRequest>) -> Result<(), u64> {
        assert!(
            self.classes.is_empty() && self.stream.is_empty(),
            "a cluster runs one stream per lifetime"
        );
        self.classes = mix.classes().to_vec();
        self.submitted_per_tenant = vec![0; self.classes.len()];
        self.rejected_per_tenant = vec![0; self.classes.len()];
        stream.sort_by(|a, b| {
            a.request
                .arrival
                .partial_cmp(&b.request.arrival)
                // ador-lint: allow(panic) — invariant: arrivals are finite draws from the workload
                .expect("arrival times are never NaN")
        });
        for cr in &stream {
            assert!(
                cr.tenant < self.classes.len(),
                "tenant tag {} out of range for a {}-class mix",
                cr.tenant,
                self.classes.len()
            );
            self.submitted_per_tenant[cr.tenant] += 1;
        }
        self.ledger = Ledger::new(&stream)?;
        self.stream = stream;
        Ok(())
    }

    /// Advances the fleet by one boundary instant and returns `false`
    /// once fully drained.
    ///
    /// The instant is the earliest of the next arrival, the next
    /// KV-transfer maturity and, under [`Topology::Disaggregated`], the
    /// causality guard: the earliest instant any prefill-pool replica
    /// could still discover a completion, plus the link latency. One call
    /// sweeps each replica with work strictly before the instant up to
    /// it; then, with a link, classifies the completions that surfaced in
    /// replica-index order (launching KV transfers) and delivers the
    /// transfers matured by the instant; last, routes the arrivals at the
    /// instant. With no instant left nothing can create a submission
    /// again, so the instant is unbounded: the call drains every busy
    /// replica, and the next call returns `false`. The conservation
    /// invariant `submitted == completed + rejected + in_flight +
    /// in_transfer` holds between calls.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn advance(&mut self) -> Result<bool, SimError> {
        let instant = match self.horizon() {
            Some(instant) => instant,
            None if self.peek_ready().is_none() => return Ok(false),
            None => Seconds::new(f64::MAX),
        };
        while let Some(ev) = self.peek_ready() {
            if ev.time >= instant {
                break;
            }
            self.ready.pop();
            self.sweep(ev.key, instant)?;
            self.push_ready(ev.key);
        }
        self.settle(instant)?;
        Ok(true)
    }

    /// The next boundary instant: the earliest of the next arrival, the
    /// next transfer maturity, and (with a link) the *causality guard* —
    /// the earliest instant any prefill-pool replica could still
    /// discover a completion, plus the link latency. A completion
    /// discovered at `t ≥ e` spawns a transfer maturing at
    /// `≥ t + latency ≥ guard`, so nothing swept up to the instant can
    /// ever be swept past an undelivered submission (this is why a
    /// [`KvLink`]'s latency is strictly positive). `None` means no event
    /// can create a new submission anywhere — the fleet just drains.
    fn horizon(&self) -> Option<Seconds> {
        let arrival = self.stream.get(self.routed).map(|cr| cr.request.arrival);
        let transfer = self.transfers.peek().map(|&Reverse(t)| t.time);
        let guard = self.link.and_then(|link| {
            self.front_pool
                .iter()
                .filter_map(|&i| self.engines[i].next_event_time())
                .reduce(Seconds::min)
                .map(|t| t + link.latency())
        });
        [arrival, transfer, guard]
            .into_iter()
            .flatten()
            .reduce(Seconds::min)
    }

    /// Steps replica `idx` through its work strictly before `instant`
    /// (an iteration that starts before it may end after it) and
    /// refreshes the clock and the replica's snapshot.
    fn sweep(&mut self, idx: usize, instant: Seconds) -> Result<(), SimError> {
        self.engines[idx].step_until(instant)?;
        self.clock = self.clock.max(self.engines[idx].now());
        self.snapshots[idx] = snapshot(&self.engines[idx]);
        Ok(())
    }

    /// The rest of boundary instant `instant`, once every replica with
    /// work before it is swept: with a link, classify the completions
    /// that surfaced and deliver the transfers matured by then (heap
    /// order: maturity, then id); last, route the arrivals at the
    /// instant.
    fn settle(&mut self, instant: Seconds) -> Result<(), SimError> {
        if self.link.is_some() {
            self.scan_completions();
        }
        while let Some(&Reverse(t)) = self.transfers.peek() {
            if t.time > instant {
                break;
            }
            self.transfers.pop();
            self.deliver_transfer(t)?;
        }
        while let Some(&cr) = self.stream.get(self.routed) {
            if cr.request.arrival > instant {
                break;
            }
            self.routed += 1;
            self.clock = self.clock.max(cr.request.arrival);
            self.route_and_submit(cr)?;
        }
        Ok(())
    }

    /// Classifies every newly completed engine outcome (replica index
    /// order, cursor per replica) by its ledger slot: a completion whose
    /// request already has a prefill half is its decode half, stitched
    /// with that half into one end-to-end outcome; otherwise an offered
    /// request of more than one output token (routing split it) finished
    /// its prefill half and becomes an in-flight transfer, and any other
    /// request finished whole.
    fn scan_completions(&mut self) {
        for idx in 0..self.engines.len() {
            while let Some(&o) = self.engines[idx].outcomes().get(self.seen_outcomes[idx]) {
                let index = self.seen_outcomes[idx];
                self.seen_outcomes[idx] += 1;
                let slot = self.ledger.slot(o.request.id);
                if let Some(prefill) = self.ledger.prefill(slot) {
                    self.stitch(slot, prefill, &o);
                } else if self.offered(slot).request.output_tokens > 1 {
                    self.launch_transfer(slot, idx, index);
                } else {
                    self.stitched.push(o);
                }
            }
        }
    }

    /// The prefill half of the request in ledger `slot` just completed
    /// as outcome `index` of replica `src`: record it, price the KV
    /// handoff (latency + context × bytes-per-token over the link) and
    /// schedule the decode-side continuation at its maturity.
    fn launch_transfer(&mut self, slot: usize, src: usize, index: usize) {
        // ador-lint: allow(panic) — invariant: only classification with a link launches transfers
        let link = self.link.expect("disaggregated fleet");
        let orig = self.offered(slot).request;
        let done_at = orig.arrival + self.engines[src].outcomes()[index].e2e;
        // The whole landed context moves: the prompt plus its first token.
        let ctx = orig.input_tokens + 1;
        let wire = Seconds::new(
            conv::f64_from_u64(self.kv_bytes_per_token) * conv::f64_from_usize(ctx)
                / link.bandwidth().as_bytes_per_sec(),
        );
        let maturity = done_at + link.latency() + wire;
        self.kv_transfers += 1;
        self.kv_transferred_tokens += conv::u64_from_usize(ctx);
        if self.telemetry_cfg.enabled() {
            self.transfer_events.push((
                src,
                Event {
                    time: done_at,
                    request: orig.id,
                    kind: EventKind::KvTransferStart {
                        tokens: conv::u32_from_usize(ctx),
                    },
                },
            ));
        }
        self.ledger.record_prefill(slot, src, index);
        self.transfers.push(Reverse(Due {
            time: maturity,
            key: orig.id,
            value: slot,
        }));
    }

    /// The decode half of the request in ledger `slot` just completed:
    /// join it with its prefill half, outcome `index` of replica
    /// `replica`, into the offered request's end-to-end outcome.
    fn stitch(&mut self, slot: usize, (replica, index): (usize, usize), decode: &RequestOutcome) {
        let orig = self.offered(slot).request;
        let prefill = &self.engines[replica].outcomes()[index];
        let ttft = prefill.ttft;
        let e2e = (decode.request.arrival + decode.e2e) - orig.arrival;
        // Token 1 lands at the prefill side's first-token instant, token
        // 2 at the decode side's: the handoff (transfer + decode-side
        // queueing + KV attach) is a real token gap the user sees.
        let handoff_gap = (decode.request.arrival + decode.ttft) - (orig.arrival + prefill.ttft);
        let gaps = conv::f64_from_usize(orig.output_tokens - 1);
        self.stitched.push(RequestOutcome {
            request: orig,
            ttft,
            mean_tbt: (e2e - ttft) / gaps,
            max_tbt: handoff_gap.max(decode.max_tbt),
            e2e,
        });
    }

    /// Lands one matured transfer: route within the decode pool and
    /// submit the decode continuation of the offered request there
    /// (transfers are never shed — admission control happened at the
    /// front door). The continuation arrives with the whole landed
    /// context imported and generates the rest of the response.
    fn deliver_transfer(&mut self, t: Due<u64, usize>) -> Result<(), SimError> {
        self.clock = self.clock.max(t.time);
        let cr = *self.offered(t.value);
        let orig = cr.request;
        let idx = self.decode_router.route_pool(
            cr.tenant,
            self.classes.len(),
            None,
            &self.snapshots,
            &self.decode_pool,
        );
        let request = Request {
            id: orig.id,
            arrival: t.time,
            input_tokens: orig.input_tokens + 1,
            output_tokens: orig.output_tokens - 1,
            prefix_group: None,
            slo: orig.slo,
            accept_rate: orig.accept_rate,
            imported_context: orig.input_tokens,
        };
        if self.telemetry_cfg.enabled() {
            self.transfer_events.push((
                idx,
                Event {
                    time: t.time,
                    request: request.id,
                    kind: EventKind::KvTransferEnd {
                        tokens: conv::u32_from_usize(request.input_tokens),
                    },
                },
            ));
        }
        self.submit(idx, request)
    }

    /// Routes one fresh arrival through the front door and submits or
    /// sheds it. The front-door pool is every replica under
    /// [`Topology::Aggregated`] and the prefill pool under
    /// disaggregation, where an admitted request is split into its
    /// prefill half (same id, `output_tokens == 1`) unless it generates
    /// nothing beyond its first token — those complete on the prefill
    /// side and are never shipped. The snapshots reflect every replica
    /// swept past all its work before the arrival instant.
    fn route_and_submit(&mut self, cr: ClusterRequest) -> Result<(), SimError> {
        let idx = self.router.route_pool(
            cr.tenant,
            self.classes.len(),
            cr.request.prefix_group,
            &self.snapshots,
            &self.front_pool,
        );
        let admit = self
            .cfg
            .queue_cap
            .is_none_or(|cap| self.snapshots[idx].queue_depth < cap);
        if !admit {
            // The shed is attributed to the replica the router *would*
            // have used — that is the queue whose pressure caused it.
            if let Some(sink) = self.engines[idx].event_sink_mut() {
                sink.record(&Event {
                    time: self.clock,
                    request: cr.request.id,
                    kind: EventKind::Shed,
                });
            }
            self.rejected_per_tenant[cr.tenant] += 1;
            self.assignments.push((cr.request.id, None));
            return Ok(());
        }
        let mut job = cr.request;
        if self.link.is_some() && job.output_tokens > 1 {
            job.output_tokens = 1;
        }
        self.submit(idx, job)?;
        self.assignments.push((cr.request.id, Some(idx)));
        Ok(())
    }

    /// Submits `request` to replica `idx`, refreshing its snapshot and
    /// its ready event.
    fn submit(&mut self, idx: usize, request: Request) -> Result<(), SimError> {
        self.engines[idx].submit(request)?;
        self.snapshots[idx] = snapshot(&self.engines[idx]);
        self.push_ready(idx);
        Ok(())
    }

    /// Enqueues `replica`'s next-work instant (no-op once drained).
    fn push_ready(&mut self, replica: usize) {
        if let Some(time) = self.engines[replica].next_event_time() {
            self.ready.push(Reverse(Due {
                time,
                key: replica,
                value: (),
            }));
        }
    }

    /// Peeks the earliest *live* replica-ready event, lazily discarding
    /// stale entries: every state change pushed a fresh entry, so an
    /// entry whose key no longer equals its replica's live
    /// [`Engine::next_event_time`] is an outdated duplicate.
    fn peek_ready(&mut self) -> Option<Due<usize, ()>> {
        while let Some(&Reverse(ev)) = self.ready.peek() {
            if self.engines[ev.key].next_event_time() == Some(ev.time) {
                return Some(ev);
            }
            self.ready.pop();
        }
        None
    }

    /// The global fleet clock: the latest instant any replica has worked
    /// to, or the latest routed arrival — whichever is later. All merged
    /// fleet metrics are measured against this single timeline.
    pub fn now(&self) -> Seconds {
        self.engines
            .iter()
            .map(Engine::now)
            .fold(self.clock, Seconds::max)
    }

    /// Requests offered to the cluster so far (routed, shed, or still in
    /// the arrival stream).
    pub fn submitted(&self) -> usize {
        self.ledger.len()
    }

    /// Requests completed end-to-end. Under disaggregation a request
    /// counts only once its decode half finishes and is stitched — its
    /// prefill-half completion is an internal handoff, not service.
    pub fn completed(&self) -> usize {
        if self.link.is_some() {
            self.stitched.len()
        } else {
            self.engines.iter().map(|e| e.completed()).sum()
        }
    }

    /// Requests shed by admission control.
    pub fn rejected(&self) -> usize {
        self.rejected_per_tenant.iter().sum()
    }

    /// Requests inside the cluster: still in the arrival stream or inside
    /// a replica (queued, prefilling or decoding). KV handoffs on the
    /// wire are counted separately by [`ClusterSim::in_transfer`].
    pub fn in_flight(&self) -> usize {
        self.stream.len() - self.routed + self.engines.iter().map(|e| e.in_flight()).sum::<usize>()
    }

    /// KV-context transfers currently on the wire between pools (always
    /// 0 under [`Topology::Aggregated`]). Tracked like admissions, so
    /// the conservation invariant at every [`ClusterSim::advance`]
    /// boundary is `submitted == completed + rejected + in_flight +
    /// in_transfer`.
    pub fn in_transfer(&self) -> usize {
        self.transfers.len()
    }

    /// Whether every offered request has completed or been shed.
    pub fn is_done(&self) -> bool {
        self.routed == self.stream.len()
            && self.transfers.is_empty()
            && self.engines.iter().all(|e| e.is_drained())
    }

    /// Per-replica completed outcomes (completion order within each
    /// replica) — the raw populations behind the report, exposed so tests
    /// can compare per-request outcomes directly rather than through
    /// aggregates. Under disaggregation these are the split halves.
    pub fn replica_outcomes(&self) -> Vec<&[RequestOutcome]> {
        self.engines.iter().map(|e| e.outcomes()).collect()
    }

    /// Builds the fleet report. The merged fleet [`QosReport`] is exact:
    /// latency percentiles come from the pooled end-to-end outcomes and
    /// all throughput figures are measured over the shared fleet clock
    /// (the latest replica finish time) via [`QosReport::merge`] —
    /// per-replica timelines are never mixed.
    ///
    /// # Panics
    ///
    /// Panics if the fleet has not fully drained (call after
    /// [`ClusterSim::advance`] returns `false`).
    pub fn finish(mut self) -> FleetReport {
        assert!(self.is_done(), "finish() requires a drained fleet");
        if self.link.is_some() {
            debug_assert_eq!(
                self.ledger.len(),
                self.stitched.len() + self.rejected(),
                "disaggregated conservation must close the books"
            );
        }
        let telemetry = self.collect_telemetry();
        let attribution = match &telemetry {
            Some(t) if self.telemetry_cfg.attribution_enabled() => Some(self.attribute(&t.events)),
            _ => None,
        };
        let per_replica: Vec<Option<QosReport>> = self.engines.iter().map(|e| e.report()).collect();
        // Engine counters come from the per-replica reports (halves under
        // disaggregation); every population figure comes from the
        // end-to-end outcomes, read in place.
        let fleet = self.e2e_outcomes().next().is_some().then(|| {
            let completed: Vec<QosReport> = per_replica.iter().flatten().cloned().collect();
            QosReport::merge(&completed, self.e2e_outcomes())
        });

        let tokens_per_replica: Vec<f64> = self
            .engines
            .iter()
            .map(|e| {
                e.outcomes()
                    .iter()
                    .map(|o| conv::f64_from_usize(o.request.total_tokens()))
                    .sum()
            })
            .collect();

        let tenants: Vec<TenantQos> = self
            .classes
            .iter()
            .enumerate()
            .map(|(i, class)| {
                TenantQos::from_outcomes(
                    class.name.clone(),
                    class.slo,
                    self.e2e_outcomes().filter(|o| self.tenant_of(o) == i),
                    self.submitted_per_tenant[i],
                    self.rejected_per_tenant[i],
                )
            })
            .collect();

        FleetReport {
            replicas: self.engines.len(),
            policy: self.cfg.policy,
            decode_policy: self.link.map(|_| self.cfg.decode_policy),
            submitted: self.ledger.len(),
            completed: self.completed(),
            rejected: self.rejected_per_tenant.iter().sum(),
            fleet,
            per_replica,
            tenants,
            assignments: self.assignments,
            imbalance: imbalance(&tokens_per_replica),
            kv_transfers: self.kv_transfers,
            kv_transferred_tokens: self.kv_transferred_tokens,
            telemetry,
            attribution,
        }
    }

    /// Drains every replica's event sink and series collector into the
    /// report's [`FleetTelemetry`] block, or `None` when the run was
    /// untraced (keeping untraced reports bit-identical to
    /// pre-telemetry ones). Per-tenant goodput is derived post-hoc from
    /// the pooled outcomes on the shared fleet clock, so it exists even
    /// when events flow through a bounded flight recorder.
    fn collect_telemetry(&mut self) -> Option<FleetTelemetry> {
        let tcfg = self.telemetry_cfg;
        if !tcfg.enabled() {
            return None;
        }
        let end = self.now();
        let events: Vec<Vec<Event>> = self
            .engines
            .iter_mut()
            .map(|e| {
                e.take_event_sink()
                    .map(|mut sink| sink.drain())
                    .unwrap_or_default()
            })
            .collect();
        // Series and their pool-role tags are built in one pass so the
        // two vectors stay index-aligned even when some replicas carry
        // no collector.
        let mut series: Vec<TimeSeries> = Vec::new();
        let mut series_roles: Vec<PoolRole> = Vec::new();
        for (i, e) in self.engines.iter_mut().enumerate() {
            if let Some(collector) = e.take_series() {
                series.push(ador_telemetry::SeriesCollector::finish(collector));
                series_roles.push(self.roles[i]);
            }
        }
        // The lane accumulates in classification/delivery order; pin a
        // single time-ordered view (starts before ends at equal stamps).
        // The key is total (a request departs once and lands once), so an
        // unstable sort orders the lane exactly as a stable one would.
        // Lane times are non-negative sums of latencies (never `-0.0`),
        // whose bit patterns order like their values.
        let mut transfer_events = std::mem::take(&mut self.transfer_events);
        transfer_events.sort_unstable_by_key(|(_, e)| {
            let is_end = matches!(e.kind, EventKind::KvTransferEnd { .. });
            (e.time.get().to_bits(), e.request, is_end)
        });
        let (tenant_goodput, goodput_interval) = match tcfg.series_interval {
            None => (Vec::new(), Seconds::ZERO),
            Some(interval) => {
                let mut completions: Vec<Vec<(Seconds, u64)>> =
                    vec![Vec::new(); self.classes.len()];
                for o in self.e2e_outcomes() {
                    completions[self.tenant_of(o)].push((
                        o.request.arrival + o.e2e,
                        conv::u64_from_usize(o.request.output_tokens),
                    ));
                }
                let per_tenant = completions
                    .iter()
                    .map(|c| goodput_series(c, interval, end))
                    .collect();
                (per_tenant, interval)
            }
        };
        Some(FleetTelemetry {
            events,
            series,
            series_roles,
            tenant_goodput,
            goodput_interval,
            transfer_events,
        })
    }

    /// Replays the recorded event streams into per-tenant blame ledgers
    /// (see [`ador_telemetry::attribution`]): each attributed request is
    /// judged against its tenant's SLO, misses are blamed on their
    /// dominant loss, and shed requests are counted without time-loss.
    /// The fleet ledger is the exact merge of the tenant ledgers.
    fn attribute(&self, events: &[Vec<Event>]) -> FleetAttribution {
        // Per ledger slot: whether the request's end-to-end outcome
        // missed its tenant's SLO. Requests with no outcome (still in
        // flight at a truncated ring's horizon) cannot have missed.
        let mut missed = vec![false; self.ledger.len()];
        for o in self.e2e_outcomes() {
            let slot = self.ledger.slot(o.request.id);
            missed[slot] = !self.classes[self.offered(slot).tenant].slo.met(o);
        }
        let mut per_tenant = vec![AttributionReport::default(); self.classes.len()];
        for attr in ador_telemetry::attribute_events(events) {
            let slot = self.ledger.slot(attr.request);
            per_tenant[self.offered(slot).tenant].record(&attr, missed[slot]);
        }
        for (tenant, &rejected) in self.rejected_per_tenant.iter().enumerate() {
            per_tenant[tenant].record_shed(conv::u64_from_usize(rejected));
        }
        let mut fleet = AttributionReport::default();
        for tenant in &per_tenant {
            fleet.merge(tenant);
        }
        FleetAttribution { per_tenant, fleet }
    }

    /// The completed end-to-end outcomes the report judges: under
    /// disaggregation the stitched ones (halves are bookkeeping and mean
    /// nothing to a user), otherwise every replica's, replica by replica.
    fn e2e_outcomes(&self) -> impl Iterator<Item = &RequestOutcome> {
        let (stitched, engines): (&[RequestOutcome], &[Engine<'a>]) = if self.link.is_some() {
            (&self.stitched, &[])
        } else {
            (&[], &self.engines)
        };
        stitched
            .iter()
            .chain(engines.iter().flat_map(|e| e.outcomes()))
    }

    /// The tenant of a completed request.
    fn tenant_of(&self, outcome: &RequestOutcome) -> usize {
        self.offered(self.ledger.slot(outcome.request.id)).tenant
    }

    /// The request in ledger `slot` as offered, with its tenant.
    fn offered(&self, slot: usize) -> &ClusterRequest {
        &self.stream[self.ledger.position(slot)]
    }
}

impl std::fmt::Debug for ClusterSim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("replicas", &self.engines.len())
            .field("policy", &self.cfg.policy)
            .field("offered", &self.ledger.len())
            .field("completed", &self.completed())
            .field("rejected", &self.rejected())
            .finish()
    }
}

fn snapshot(engine: &Engine<'_>) -> ReplicaSnapshot {
    ReplicaSnapshot {
        queue_depth: engine.queue_depth(),
        active: engine.active_len(),
        kv_in_use: engine.kv_in_use(),
        backlog_tokens: engine.backlog_tokens(),
        kv_budget_tokens: engine.kv_budget_tokens(),
    }
}

#[cfg(test)]
mod tests {
    // tests may unwrap: a failed unwrap is exactly the test failing
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::{scenarios, SessionShape};
    use ador_baselines::ador_table3;
    use ador_model::presets;
    use proptest::prelude::*;

    fn two_class_mix(rate: f64) -> TenantMix {
        TenantMix::new(vec![
            TenantClass::chatbot(rate * 0.7),
            TenantClass::summarization(rate * 0.3),
        ])
    }

    #[test]
    fn fleet_completes_everything_without_admission_control() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = ClusterConfig::new(3, RouterPolicy::JoinShortestQueue);
        let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(&two_class_mix(6.0), 90, 5)
            .unwrap();
        assert_eq!(report.submitted, 90);
        assert_eq!(report.completed, 90);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.replicas, 3);
        assert_eq!(report.assignments.len(), 90);
        assert!(report.fleet.is_some());
        let by_tenant: usize = report.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(by_tenant, 90, "every outcome maps back to a tenant");
    }

    /// Runs a two-replica fleet over a chatbot class plus `class`, a
    /// literal that bypasses `TenantClass`'s constructor checks.
    fn run_with(class: TenantClass) -> Result<FleetReport, SimError> {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mix = TenantMix::new(vec![TenantClass::chatbot(2.0), class]);
        let cfg = ClusterConfig::new(2, RouterPolicy::JoinShortestQueue);
        ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)?.run(&mix, 20, 1)
    }

    #[test]
    fn a_class_with_a_bad_arrival_process_is_an_error() {
        use crate::ArrivalProcess;
        let never_on = ArrivalProcess::OnOffMmpp {
            rate_on: 4.0,
            mean_on: Seconds::ZERO,
            mean_off: Seconds::new(12.0),
        };
        // ON sojourns so short that an arrival takes ~1e300 cycles.
        let hardly_on = ArrivalProcess::OnOffMmpp {
            rate_on: 4.0,
            mean_on: Seconds::new(1e-300),
            mean_off: Seconds::new(12.0),
        };
        let poisson = [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-307, 1e-320]
            .map(|rate| ArrivalProcess::Poisson { rate });
        for arrivals in poisson.into_iter().chain([never_on, hardly_on]) {
            let mut class = TenantClass::chatbot(1.0);
            class.arrivals = arrivals;
            let err = run_with(class).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidArrivalRate { rate }
                    if rate.to_bits() == arrivals.mean_rate().to_bits()),
                "{arrivals:?}: {err:?}"
            );
        }
    }

    #[test]
    fn an_mmpp_whose_sojourns_overflow_the_clock_is_an_error() {
        // One OFF draw of up to ~36 means overflows at 1e308 s. Alone in
        // a mix, the class reaches such a draw before its 50th arrival at
        // these seeds, and would panic on an infinite arrival.
        use crate::ArrivalProcess;
        let arrivals = ArrivalProcess::OnOffMmpp {
            rate_on: 4.0,
            mean_on: Seconds::new(4.0),
            mean_off: Seconds::new(1e308),
        };
        let mut class = TenantClass::summarization(1.0);
        class.arrivals = arrivals;
        let mix = TenantMix::new(vec![class]);
        let arch = ador_table3();
        let model = presets::llama3_8b();
        for seed in [32, 34] {
            let cfg = ClusterConfig::new(2, RouterPolicy::JoinShortestQueue);
            let err = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(&mix, 50, seed)
                .unwrap_err();
            assert!(
                matches!(err, SimError::InvalidArrivalRate { rate }
                    if rate.to_bits() == arrivals.mean_rate().to_bits()),
                "seed {seed}: {err:?}"
            );
        }
    }

    #[test]
    fn every_preset_and_pinned_mix_passes_its_check() {
        let presets = [
            TenantClass::chatbot(1.0),
            TenantClass::summarization(1.0),
            TenantClass::code_completion(1.0),
            TenantClass::chat_sessions(1.0),
        ];
        let pinned = [
            scenarios::skewed_two_tenant(scenarios::SKEWED_MIX_RATE),
            scenarios::session_workload(scenarios::SESSION_RATE),
            scenarios::spec_mix(scenarios::SPEC_RATE),
            scenarios::scale_mix(128),
            scenarios::disagg_mix(scenarios::DISAGG_RATE),
        ];
        for mix in presets
            .map(|class| TenantMix::new(vec![class]))
            .into_iter()
            .chain(pinned)
        {
            assert!(mix.check(1_000_000).is_ok(), "{mix:?}");
        }
    }

    /// Runs `run_with` on a chat-session class whose shape is `shape`, a
    /// literal that bypasses `TenantClass::with_sessions`' assert, and
    /// asserts the typed error that names it.
    fn assert_bad_session_shape(shape: SessionShape) {
        let mut class = TenantClass::chat_sessions(1.0);
        class.session = Some(shape);
        let err = run_with(class).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidSessionShape { mean_turns, mean_think }
                if mean_turns.to_bits() == shape.mean_turns.to_bits()
                    && mean_think == shape.mean_think),
            "{shape:?}: {err:?}"
        );
    }

    #[test]
    fn a_session_shape_with_a_negative_think_time_is_an_error() {
        assert_bad_session_shape(SessionShape {
            // `Seconds` subtraction does not check the sign.
            mean_think: Seconds::ZERO - Seconds::new(1.0),
            ..SessionShape::chat()
        });
    }

    #[test]
    fn a_session_shape_whose_turns_overflow_the_clock_is_an_error() {
        // A single think draw of up to ~36 means overflows at 1e308 s.
        for seed in 1..=3 {
            let mut class = TenantClass::chat_sessions(1.0);
            let shape = SessionShape {
                mean_think: Seconds::new(1e308),
                ..SessionShape::chat()
            };
            class.session = Some(shape);
            let arch = ador_table3();
            let model = presets::llama3_8b();
            let mix = TenantMix::new(vec![TenantClass::chatbot(2.0), class]);
            let cfg = ClusterConfig::new(2, RouterPolicy::JoinShortestQueue);
            let err = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(&mix, 50, seed)
                .unwrap_err();
            assert!(
                matches!(err, SimError::InvalidSessionShape { mean_think, .. }
                    if mean_think == shape.mean_think),
                "seed {seed}: {err:?}"
            );
        }
        // The bound scales with the turn cap: a think time whose largest
        // draw (~3.6e307 s) is finite but that a longest session (126
        // turns at a mean of 4) multiplies past the clock fails too, and
        // the preset shape passes.
        assert_bad_session_shape(SessionShape {
            mean_think: Seconds::new(1e306),
            ..SessionShape::chat()
        });
        let mut class = TenantClass::chat_sessions(1.0);
        class.session = Some(SessionShape::chat());
        assert!(run_with(class).is_ok());
    }

    #[test]
    fn a_session_shape_with_a_nan_turn_count_is_an_error() {
        assert_bad_session_shape(SessionShape {
            mean_turns: f64::NAN,
            ..SessionShape::chat()
        });
    }

    #[test]
    fn a_session_shape_with_under_one_turn_is_an_error() {
        assert_bad_session_shape(SessionShape {
            mean_turns: 0.5,
            ..SessionShape::chat()
        });
    }

    #[test]
    fn a_class_with_an_acceptance_outside_zero_one_is_an_error() {
        for rate in [1.5, -0.1, f64::NAN] {
            let mut class = TenantClass::chatbot(1.0);
            class.accept_rate = rate;
            let err = run_with(class).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidAcceptRate { id: None, rate: r }
                    if r.to_bits() == rate.to_bits()),
                "{rate}: {err:?}"
            );
        }
    }

    /// Runs `stream` on a two-replica fleet serving `mix`, whose first
    /// request has no response: its engine would reject it once it
    /// arrives, so an error naming another request was found before
    /// anything was simulated.
    fn run_malformed(mix: &TenantMix, mut stream: Vec<ClusterRequest>) -> SimError {
        stream[0].request.output_tokens = 0;
        let cfg = ClusterConfig::new(2, RouterPolicy::JoinShortestQueue);
        ClusterSim::new(
            &ador_table3(),
            &presets::llama3_8b(),
            Deployment::single_device(),
            cfg,
        )
        .unwrap()
        .run_stream(mix, stream)
        .unwrap_err()
    }

    #[test]
    fn a_non_finite_arrival_is_an_error_before_anything_is_simulated() {
        let mix = two_class_mix(6.0);
        // `Seconds` arithmetic does not check its results: ∞ − ∞ is NaN.
        let inf = Seconds::new(1.0) * f64::INFINITY;
        for arrival in [inf - inf, inf] {
            let mut stream = mix.generate(20, 5);
            stream[7].request.arrival = arrival;
            let id = stream[7].request.id;
            let err = run_malformed(&mix, stream);
            assert_eq!(err, SimError::InvalidRequest { id }, "{arrival:?}");
        }
    }

    #[test]
    fn a_duplicate_request_id_is_an_error_before_anything_is_simulated() {
        let mix = two_class_mix(6.0);
        let mut stream = mix.generate(20, 5);
        let (low, high) = (
            stream[3].request.id.min(stream[4].request.id),
            stream[3].request.id.max(stream[4].request.id),
        );
        stream[12].request.id = high;
        stream[15].request.id = low;
        let err = run_malformed(&mix, stream);
        assert_eq!(err, SimError::InvalidRequest { id: low });
    }

    #[test]
    fn an_out_of_range_tenant_is_an_error_before_anything_is_simulated() {
        let mix = two_class_mix(6.0);
        let mut stream = mix.generate(20, 5);
        stream[9].tenant = 2;
        stream[14].tenant = usize::MAX;
        let id = stream[9].request.id;
        let err = run_malformed(&mix, stream);
        assert_eq!(err, SimError::InvalidRequest { id });
    }

    #[test]
    fn zero_replicas_is_an_error() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let err = ClusterSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            ClusterConfig::new(0, RouterPolicy::RoundRobin),
        )
        .unwrap_err();
        assert_eq!(err, SimError::EmptyConfig);
    }

    #[test]
    fn a_kv_memory_fraction_outside_zero_one_is_an_error() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        for fraction in [0.0, -0.1, 1.5, 1e300, f64::INFINITY, f64::NAN] {
            let cfg = ClusterConfig::new(2, RouterPolicy::CacheAffinity)
                .with_engine(SimConfig::new(1.0, 8).with_kv_memory_fraction(fraction))
                .with_prefix_caching(true);
            let err = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg).err();
            assert!(
                matches!(err, Some(SimError::InvalidKvMemoryFraction { fraction: f })
                    if f.to_bits() == fraction.to_bits()),
                "{fraction}: {err:?}"
            );
        }
    }

    #[test]
    fn new_builds_the_fleet_new_fleet_builds_from_copies_of_one_spec() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let deployment = Deployment::single_device();
        let mix = two_class_mix(6.0);
        let stream = mix.generate(60, 11);
        let traced = TelemetryConfig::trace()
            .with_series(Seconds::from_millis(50.0))
            .with_attribution();
        for telemetry in [TelemetryConfig::OFF, traced] {
            let cfg =
                ClusterConfig::new(3, RouterPolicy::JoinShortestQueue).with_telemetry(telemetry);
            let spec = crate::ReplicaSpec::new(arch.clone(), cfg.engine);
            let fleet = FleetSpec::homogeneous(&spec, cfg.replicas);
            let new = ClusterSim::new(&arch, &model, deployment, cfg)
                .unwrap()
                .run_stream(&mix, stream.clone())
                .unwrap();
            let new_fleet = ClusterSim::new_fleet(&fleet, &model, deployment, cfg)
                .unwrap()
                .run_stream(&mix, stream.clone())
                .unwrap();
            assert_eq!(new.attribution.is_some(), telemetry.attribution_enabled());
            assert_eq!(new, new_fleet);
        }
    }

    #[test]
    fn fleet_engines_ignore_the_request_count() {
        // A fleet feeds its engines its own stream and never reads
        // `SimConfig::requests`, so a zero there must not reject it.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = ClusterConfig::new(2, RouterPolicy::JoinShortestQueue)
            .with_engine(SimConfig::new(1.0, 16).with_requests(0));
        let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(&two_class_mix(6.0), 20, 5)
            .unwrap();
        assert_eq!(report.completed, 20);
    }

    #[test]
    fn queue_cap_sheds_under_overload() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        // One tiny replica, a flood of arrivals, and a 2-deep queue cap.
        let cfg = ClusterConfig::new(1, RouterPolicy::JoinShortestQueue)
            .with_engine(SimConfig::new(1.0, 4))
            .with_queue_cap(2);
        let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(&two_class_mix(100.0), 80, 9)
            .unwrap();
        assert!(report.rejected > 0, "overload must shed");
        assert_eq!(report.completed + report.rejected, 80);
        let shed_tenants: usize = report.tenants.iter().map(|t| t.rejected).sum();
        assert_eq!(shed_tenants, report.rejected);
        // Shed requests appear as unassigned in the routing trace.
        let unassigned = report
            .assignments
            .iter()
            .filter(|(_, r)| r.is_none())
            .count();
        assert_eq!(unassigned, report.rejected);
    }

    #[test]
    fn untraced_fleets_carry_no_telemetry_and_traced_runs_change_nothing() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mix = two_class_mix(6.0);
        let run = |telemetry: TelemetryConfig| {
            let cfg =
                ClusterConfig::new(2, RouterPolicy::JoinShortestQueue).with_telemetry(telemetry);
            ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(&mix, 60, 11)
                .unwrap()
        };
        let off = run(TelemetryConfig::OFF);
        assert!(off.telemetry.is_none());
        let mut on = run(TelemetryConfig::trace().with_series(Seconds::from_millis(50.0)));
        let telemetry = on.telemetry.take().expect("traced run carries telemetry");
        // Telemetry observes the run without perturbing it.
        assert_eq!(on, off);
        assert_eq!(telemetry.events.len(), 2);
        assert_eq!(telemetry.series.len(), 2);
        assert!(telemetry.events.iter().any(|e| !e.is_empty()));
        assert!(telemetry.series.iter().any(|s| !s.points.is_empty()));
        // One goodput lane per tenant, on the configured window.
        assert_eq!(telemetry.tenant_goodput.len(), 2);
        assert_eq!(telemetry.goodput_interval, Seconds::from_millis(50.0));
        let total: f64 = telemetry.tenant_goodput.iter().flatten().sum();
        assert!(total > 0.0, "completed tokens must show up as goodput");
    }

    #[test]
    fn shed_requests_are_stamped_in_the_chosen_replicas_trace() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = ClusterConfig::new(1, RouterPolicy::JoinShortestQueue)
            .with_engine(SimConfig::new(1.0, 4))
            .with_queue_cap(2)
            .with_telemetry(TelemetryConfig::trace());
        let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(&two_class_mix(100.0), 80, 9)
            .unwrap();
        assert!(report.rejected > 0, "overload must shed");
        let telemetry = report.telemetry.expect("traced run carries telemetry");
        let sheds = telemetry.events[0]
            .iter()
            .filter(|e| e.kind == ador_telemetry::EventKind::Shed)
            .count();
        assert_eq!(sheds, report.rejected);
    }

    fn disagg_link() -> KvLink {
        KvLink::new(
            ador_units::Bandwidth::from_gbps(64.0),
            Seconds::from_millis(0.25),
        )
        .unwrap()
    }

    fn pd_fleet(prefill: usize, decode: usize) -> FleetSpec {
        let spec = crate::ReplicaSpec::new(ador_table3(), SimConfig::new(1.0, 64));
        FleetSpec::prefill_decode(&spec, prefill, &spec, decode)
    }

    #[test]
    fn disaggregated_fleet_completes_and_stitches_everything() {
        let model = presets::llama3_8b();
        let fleet = pd_fleet(1, 2);
        let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
            .with_disaggregation(disagg_link());
        let one_tenant = TenantMix::new(vec![TenantClass::chatbot(6.0)]);
        for mix in [two_class_mix(6.0), one_tenant] {
            let report = ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(&mix, 60, 5)
                .unwrap();
            assert_eq!(report.submitted, 60);
            assert_eq!(report.completed, 60);
            assert_eq!(report.rejected, 0);
            assert_eq!(report.replicas, 3);
            assert_eq!(report.decode_policy, Some(RouterPolicy::LeastKvLoad));
            // Every multi-token request crossed the link exactly once, with
            // its whole landed context (prompt + first token).
            assert_eq!(report.kv_transfers, 60);
            assert!(report.kv_transferred_tokens > 60, "contexts carry tokens");
            let fleet_qos = report.fleet.expect("completions produce a report");
            assert_eq!(fleet_qos.completed, 60);
            // Stitched lifecycles are whole: generated tokens across the two
            // halves equal the declared response lengths.
            let declared: usize = mix
                .generate(60, 5)
                .iter()
                .map(|r| r.request.output_tokens)
                .sum();
            assert_eq!(fleet_qos.generated_tokens, declared);
            // The other engine counters merge over the halves of both pools.
            let halves: Vec<&QosReport> = report.per_replica.iter().flatten().collect();
            assert_eq!(halves.len(), 3);
            let sum = |f: fn(&QosReport) -> usize| halves.iter().map(|r| f(r)).sum::<usize>();
            assert_eq!(fleet_qos.prefilled_tokens, sum(|r| r.prefilled_tokens));
            assert_eq!(fleet_qos.preemptions, sum(|r| r.preemptions));
            let peak_kv = halves.iter().map(|r| r.peak_kv_tokens).max();
            assert_eq!(Some(fleet_qos.peak_kv_tokens), peak_kv);
            let by_tenant: usize = report.tenants.iter().map(|t| t.completed).sum();
            assert_eq!(by_tenant, 60);
            // A lone tenant judges the same stitched population as the fleet.
            if let [only] = report.tenants.as_slice() {
                assert_eq!(only.ttft, Some(fleet_qos.ttft));
                assert_eq!(only.tbt, Some(fleet_qos.tbt));
            }
            // Split halves never leak into the per-request populations: every
            // stitched e2e covers at least its TTFT plus the handoff.
            assert!(fleet_qos.e2e.mean > fleet_qos.ttft.mean);
        }
    }

    #[test]
    fn disaggregated_fleet_serves_requests_that_carry_imported_context() {
        // A recorded trace may offer requests with imported context of
        // their own; which half completed is read from the ledger, so the
        // field decides nothing. One request splits, one does not.
        let model = presets::llama3_8b();
        let fleet = pd_fleet(1, 1);
        let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
            .with_disaggregation(disagg_link());
        let mix = TenantMix::new(vec![TenantClass::chatbot(1.0)]);
        for output_tokens in [8, 1] {
            let request =
                Request::new(3, Seconds::ZERO, 256, output_tokens).with_imported_context(128);
            let report = ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run_stream(&mix, vec![ClusterRequest { request, tenant: 0 }])
                .unwrap();
            assert_eq!(report.completed, 1, "{output_tokens} output tokens");
            assert_eq!(report.kv_transfers, usize::from(output_tokens > 1));
            let qos = report.fleet.unwrap();
            assert_eq!(qos.generated_tokens, output_tokens);
            assert_eq!(report.tenants[0].completed, 1);
        }
    }

    #[test]
    fn disaggregated_event_loop_matches_the_reference() {
        let model = presets::llama3_8b();
        let fleet = pd_fleet(2, 2);
        let mix = two_class_mix(8.0);
        let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
            .with_disaggregation(disagg_link());
        let build =
            || ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg).unwrap();
        assert_matches_reference(build, &mix, mix.generate(80, 13));
    }

    #[test]
    fn disaggregated_conservation_holds_at_every_boundary() {
        let model = presets::llama3_8b();
        let fleet = pd_fleet(1, 1);
        let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
            .with_disaggregation(disagg_link());
        let mix = two_class_mix(10.0);
        let mut sim =
            ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg).unwrap();
        sim.submit_stream(&mix, mix.generate(50, 3));
        let mut saw_transfer = false;
        loop {
            assert_eq!(
                sim.submitted(),
                sim.completed() + sim.rejected() + sim.in_flight() + sim.in_transfer(),
                "conservation must hold between events"
            );
            saw_transfer |= sim.in_transfer() > 0;
            if !sim.advance().unwrap() {
                break;
            }
        }
        assert!(saw_transfer, "the handoff must be observable mid-flight");
        let report = sim.finish();
        assert_eq!(report.completed + report.rejected, 50);
    }

    #[test]
    fn transfer_link_cost_is_charged_on_the_clock() {
        let model = presets::llama3_8b();
        let fleet = pd_fleet(1, 1);
        let mix = two_class_mix(4.0);
        let run = |link: KvLink| {
            let cfg =
                ClusterConfig::new(0, RouterPolicy::JoinShortestQueue).with_disaggregation(link);
            ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(&mix, 40, 7)
                .unwrap()
        };
        let fast = run(disagg_link());
        let slow = run(KvLink::new(
            ador_units::Bandwidth::from_gbps(1.0),
            Seconds::from_millis(20.0),
        )
        .unwrap());
        let (fast_qos, slow_qos) = (fast.fleet.unwrap(), slow.fleet.unwrap());
        // A slower link cannot change TTFT (prefill side is untouched)
        // but must show up in the handoff gap and end-to-end latency.
        assert_eq!(fast_qos.ttft.mean, slow_qos.ttft.mean);
        assert!(slow_qos.e2e.mean > fast_qos.e2e.mean);
        assert!(slow_qos.tbt.max >= fast_qos.tbt.max);
    }

    #[test]
    fn disaggregation_with_an_empty_pool_is_rejected() {
        let model = presets::llama3_8b();
        let spec = crate::ReplicaSpec::new(ador_table3(), SimConfig::new(1.0, 64));
        let fleet = FleetSpec::prefill_decode(&spec, 2, &spec, 0);
        let cfg =
            ClusterConfig::new(0, RouterPolicy::RoundRobin).with_disaggregation(disagg_link());
        let err =
            ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg).unwrap_err();
        assert_eq!(err, SimError::EmptyConfig);
    }

    #[test]
    fn fresh_arrivals_land_only_on_the_prefill_pool_of_a_fleet_with_a_unified_member() {
        let model = presets::llama3_8b();
        let spec = crate::ReplicaSpec::new(ador_table3(), SimConfig::new(1.0, 64));
        let fleet = FleetSpec::new(vec![
            spec.clone().with_role(PoolRole::Prefill),
            spec.clone().with_role(PoolRole::Decode),
            spec.clone(),
            spec.with_role(PoolRole::Decode),
        ]);
        assert_eq!(fleet.prefill_pool(), vec![0, 2]);
        let cfg =
            ClusterConfig::new(0, RouterPolicy::RoundRobin).with_disaggregation(disagg_link());
        let report = ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(&two_class_mix(6.0), 40, 3)
            .unwrap();
        assert_eq!(report.completed, 40);
        assert!(report.kv_transfers > 0);
        let mut landed: Vec<usize> = report.assignments.iter().filter_map(|&(_, r)| r).collect();
        landed.sort_unstable();
        landed.dedup();
        assert_eq!(landed, fleet.prefill_pool());
    }

    #[test]
    fn disaggregated_telemetry_carries_transfer_spans() {
        let model = presets::llama3_8b();
        let fleet = pd_fleet(1, 1);
        let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
            .with_disaggregation(disagg_link())
            .with_telemetry(TelemetryConfig::trace());
        let mix = two_class_mix(4.0);
        let report = ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(&mix, 30, 11)
            .unwrap();
        let telemetry = report.telemetry.expect("traced run carries telemetry");
        let starts = telemetry
            .transfer_events
            .iter()
            .filter(|(r, e)| {
                *r == 0 && matches!(e.kind, ador_telemetry::EventKind::KvTransferStart { .. })
            })
            .count();
        let ends = telemetry
            .transfer_events
            .iter()
            .filter(|(r, e)| {
                *r == 1 && matches!(e.kind, ador_telemetry::EventKind::KvTransferEnd { .. })
            })
            .count();
        assert_eq!(starts, report.kv_transfers, "one departure per transfer");
        assert_eq!(ends, report.kv_transfers, "one landing per transfer");
        let times: Vec<f64> = telemetry
            .transfer_events
            .iter()
            .map(|(_, e)| e.time.get())
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "the lane is time-ordered"
        );
    }

    #[test]
    fn single_replica_fleet_matches_the_bare_engine() {
        // A 1-replica cluster with no admission control is exactly one
        // ServingSim run over the same stream.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mix = two_class_mix(4.0);
        let stream = mix.generate(50, 21);
        let engine_cfg = SimConfig::new(1.0, 64);

        let cfg = ClusterConfig::new(1, RouterPolicy::RoundRobin).with_engine(engine_cfg);
        let fleet = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run_stream(&mix, stream.clone())
            .unwrap();

        let (solo, _) = ServingSim::new(&arch, &model, Deployment::single_device(), engine_cfg)
            .unwrap()
            .run_requests(stream.into_iter().map(|cr| cr.request).collect())
            .unwrap();
        assert_eq!(fleet.fleet.as_ref(), Some(&solo));
        assert_eq!(fleet.per_replica[0].as_ref(), Some(&solo));
        assert_eq!(fleet.imbalance, 0.0);
    }

    /// The reference the event loop is held equal to: the same boundary
    /// instants, the same unbounded one at the end, but every replica is
    /// swept to each one in index order, whether or not it has work
    /// before it, and the run stops when every engine is drained rather
    /// than when the ready heap is empty. Sweeping a replica without
    /// such work is a no-op, so any difference from
    /// [`ClusterSim::advance`] is a replica the ready heap failed to
    /// sweep, or swept at the wrong time.
    fn advance_reference(sim: &mut ClusterSim<'_>) -> Result<bool, SimError> {
        let instant = match sim.horizon() {
            Some(instant) => instant,
            None if sim.engines.iter().all(Engine::is_drained) => return Ok(false),
            None => Seconds::new(f64::MAX),
        };
        for idx in 0..sim.engines.len() {
            sim.sweep(idx, instant)?;
        }
        sim.settle(instant)?;
        Ok(true)
    }

    /// What driving a fleet to completion leaves behind: the global clock
    /// at drain, every replica's completed outcomes, and the report.
    type Drive = (Seconds, Vec<Vec<RequestOutcome>>, FleetReport);

    /// Drives `sim` over `stream` to completion with the event loop, or
    /// with [`advance_reference`] when `reference` is set.
    fn drive(
        mut sim: ClusterSim<'_>,
        mix: &TenantMix,
        stream: Vec<ClusterRequest>,
        reference: bool,
    ) -> Drive {
        sim.submit_stream(mix, stream);
        loop {
            let more = if reference {
                advance_reference(&mut sim)
            } else {
                sim.advance()
            };
            if !more.unwrap() {
                break;
            }
        }
        let outcomes = sim
            .replica_outcomes()
            .into_iter()
            .map(<[_]>::to_vec)
            .collect();
        (sim.now(), outcomes, sim.finish())
    }

    /// Drives two fleets from `build` over `stream`, one with the event
    /// loop and one with the reference, and asserts they agree on every
    /// per-replica outcome (completion order included), the clock at
    /// drain and the full report. Returns the event loop's report.
    fn assert_matches_reference<'a>(
        build: impl Fn() -> ClusterSim<'a>,
        mix: &TenantMix,
        stream: Vec<ClusterRequest>,
    ) -> FleetReport {
        let (ev_now, ev_outcomes, ev_report) = drive(build(), mix, stream.clone(), false);
        let (ref_now, ref_outcomes, ref_report) = drive(build(), mix, stream, true);
        assert_eq!(
            ev_outcomes, ref_outcomes,
            "per-replica, per-request outcomes must be identical"
        );
        assert_eq!(ev_now, ref_now, "drained fleets end on the same clock");
        assert_eq!(ev_report, ref_report);
        ev_report
    }

    /// The pinned scarce-KV scenario (the router-ordering pin of
    /// `tests/cluster_serving.rs`): the event loop reproduces the
    /// reference exactly — per-request outcomes replica by replica, the
    /// routing trace, the clock and the full report.
    #[test]
    fn event_loop_matches_the_reference_on_the_pinned_scenario() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mix = scenarios::skewed_two_tenant(scenarios::SKEWED_MIX_RATE);
        let stream = mix.generate(scenarios::SKEWED_MIX_REQUESTS, scenarios::SKEWED_MIX_SEED);
        let cfg = scenarios::scarce_kv_fleet(4, RouterPolicy::JoinShortestQueue);
        let build = || ClusterSim::new(&arch, &model, Deployment::single_device(), cfg).unwrap();
        assert_matches_reference(build, &mix, stream);
    }

    /// The pin extended to a heterogeneous two-pool fleet: on the pinned
    /// disaggregation scenario (2 prefill-optimized + 2 decode-optimized
    /// replicas over the pinned KV link, interactive + bursty-ingest mix)
    /// the event loop reproduces the reference exactly, stitched
    /// outcomes and KV-transfer accounting included.
    #[test]
    fn disaggregated_event_loop_matches_the_reference_on_the_heterogeneous_pin() {
        let model = presets::llama3_8b();
        let mix = scenarios::disagg_mix(scenarios::DISAGG_RATE);
        let fleet = scenarios::disagg_fleet(
            &ador_baselines::prefill_optimized(),
            2,
            &ador_baselines::decode_optimized(),
            2,
        );
        let stream = mix.generate(scenarios::DISAGG_REQUESTS, scenarios::DISAGG_SEED);
        let cfg = scenarios::disagg_cluster(true);
        let build =
            || ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg).unwrap();
        let report = assert_matches_reference(build, &mix, stream);
        // The pin is only meaningful if the scenario actually
        // disaggregates: every completed request shipped its context.
        assert_eq!(report.kv_transfers, report.completed);
        assert!(report.kv_transferred_tokens > 0);
        assert_eq!(report.completed, scenarios::DISAGG_REQUESTS);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The pin, broadened: across seeds, fleet sizes, routing
        /// policies, admission control, both topologies (an aggregated
        /// fleet of 1-4 replicas, or 2 prefill + 2 decode replicas over a
        /// link) and telemetry (off, or a trace with attribution), the
        /// event loop and the reference produce identical per-request
        /// outcomes and fleet reports, attribution included.
        #[test]
        fn event_loop_matches_the_reference_across_seeds_policies_and_topologies(
            seed in 0u64..1000,
            replicas in 1usize..5,
            count in 1usize..80,
            policy_pick in 0usize..4,
            capped in 0usize..2,
            disaggregated in 0usize..2,
            traced in 0usize..2,
        ) {
            let policy = [
                RouterPolicy::RoundRobin,
                RouterPolicy::JoinShortestQueue,
                RouterPolicy::LeastKvLoad,
                RouterPolicy::SloAware,
            ][policy_pick];
            let telemetry = if traced == 1 {
                TelemetryConfig::trace().with_attribution()
            } else {
                TelemetryConfig::OFF
            };
            let engine = SimConfig::new(1.0, 8)
                .with_kv_memory_fraction(0.05)
                .with_telemetry(telemetry);
            let mut cfg = ClusterConfig::new(replicas, policy).with_engine(engine);
            if capped == 1 {
                cfg = cfg.with_queue_cap(2);
            }
            let mix = two_class_mix(10.0);
            let arch = ador_table3();
            let model = presets::llama3_8b();
            let spec = crate::ReplicaSpec::new(ador_table3(), engine);
            let fleet = FleetSpec::prefill_decode(&spec, 2, &spec, 2);
            let dep = Deployment::single_device();
            let build = || {
                if disaggregated == 1 {
                    ClusterSim::new_fleet(&fleet, &model, dep, cfg.with_disaggregation(disagg_link()))
                } else {
                    ClusterSim::new(&arch, &model, dep, cfg)
                }
                .unwrap()
            };
            let report = assert_matches_reference(build, &mix, mix.generate(count, seed));
            prop_assert_eq!(report.attribution.is_some(), traced == 1);
        }
    }
}
