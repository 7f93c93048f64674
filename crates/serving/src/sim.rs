//! The serving engine: a continuous-batching scheduler over the analytical
//! performance model (paper Fig. 2b, Fig. 14b).
//!
//! Each engine iteration fuses up to [`SimConfig::prefill_chunk`] tokens of
//! prefill work with one decode step of the running batch — the
//! continuous-batching behaviour whose QoS side-effects (prefill time
//! bleeding into TBT, queueing inflating TTFT) the paper's Fig. 2b
//! illustrates. Three properties make the scheduler faithful to production
//! engines (vLLM-style chunked prefill, token-granular paged KV):
//!
//! - **Chunked prefill**: a prompt larger than the chunk budget is
//!   prefilled across several iterations, so a 32 K-token prompt adds at
//!   most one chunk's prefill time to any running request's inter-token
//!   gap per iteration instead of stalling the whole batch once.
//! - **Token-granular KV accounting**: `kv_tokens_in_use` is the sum of
//!   live contexts and grows one token per decode step (and chunk by chunk
//!   during prefill), instead of reserving a request's entire
//!   prompt+response footprint at admission.
//! - **Preemption**: when decode-step growth would overflow the KV budget,
//!   the youngest request is paused and its KV released; it re-enters the
//!   queue head and recomputes its context (prompt plus already-generated
//!   tokens) on resume. The oldest request is never preempted, so the
//!   engine always makes forward progress. With prefix caching on, cold
//!   cached blocks are LRU-evicted before any request is preempted.
//! - **Prefix caching** (opt-in, [`SimConfig::prefix_caching`]): prompts
//!   tagged with a [`Request::prefix_group`](crate::Request::prefix_group)
//!   skip the prefill of token blocks already resident in the
//!   [`PrefixCache`](crate::PrefixCache); shared blocks are charged once.
//!
//! Chunk cost is modeled as a fresh prefill pass of the chunk length; the
//! attention cost over earlier chunks' KV is folded into the analytical
//! model's bucketing rather than accounted per chunk.

use std::fmt;

use ador_hw::Architecture;
use ador_model::ModelConfig;
use ador_perf::{Deployment, Evaluator, PerfError};
use ador_spec::SpeculationConfig;
use ador_telemetry::TelemetryConfig;
use ador_units::{conv, Bandwidth, Seconds};

use crate::engine::{Engine, StepEvent};
use crate::{QosReport, Request, RequestGenerator, RequestOutcome, TraceProfile};

/// How the scheduler shares engine iterations between prefill and decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Every iteration carries up to one prefill chunk alongside the decode
    /// step (fused continuous batching). Fastest admission and best TTFT;
    /// every chunk stretches that iteration's TBT.
    #[default]
    Fused,
    /// Prefill runs only on iterations where no decode is in flight or the
    /// previous iteration was prefill-free, so at most every other decode
    /// step pays prefill interference. Lower TBT jitter, slower admission.
    DecodePrioritized,
}

/// Serving-simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Mean Poisson arrival rate, requests/s.
    pub arrival_rate: f64,
    /// Maximum concurrent requests in the engine (prefilling + decoding).
    pub max_batch: usize,
    /// Requests to simulate.
    pub requests: usize,
    /// RNG seed (arrivals and lengths).
    pub seed: u64,
    /// Prefill token budget per engine iteration, shared by in-flight
    /// chunked prefills and new admissions.
    pub prefill_chunk: usize,
    /// Fraction of post-weight device memory usable for KV cache.
    pub kv_memory_fraction: f64,
    /// Prefill/decode interleaving policy.
    pub policy: SchedulerPolicy,
    /// Prefix-aware KV reuse: when `true`, requests tagged with a
    /// [`Request::prefix_group`](crate::Request::prefix_group) skip the
    /// prefill of prompt blocks already resident in the engine's
    /// [`PrefixCache`](crate::PrefixCache), shared blocks are charged
    /// against the KV budget once, and cold blocks are LRU-evicted before
    /// the scheduler resorts to preemption.
    pub prefix_caching: bool,
    /// Speculative decoding: draft-and-verify multi-token commits per
    /// decode step ([`SpeculationConfig::off`] by default, which is
    /// bit-identical to the pre-speculation engine). See
    /// [`ador_spec`] for the policy/acceptance/cost model.
    pub speculation: SpeculationConfig,
    /// Observability: event tracing and time-series collection
    /// ([`TelemetryConfig::OFF`] by default, which is bit-identical to an
    /// untraced engine). See [`ador_telemetry`] for the event recorder.
    pub telemetry: TelemetryConfig,
}

impl SimConfig {
    /// Creates a config with `arrival_rate` req/s and `max_batch` engine
    /// slots; 200 requests, seed 0, 4096-token prefill chunks, 90 % KV
    /// memory fraction, fused scheduling, prefix caching off.
    pub fn new(arrival_rate: f64, max_batch: usize) -> Self {
        Self {
            arrival_rate,
            max_batch,
            requests: 200,
            seed: 0,
            prefill_chunk: 4096,
            kv_memory_fraction: 0.9,
            policy: SchedulerPolicy::Fused,
            prefix_caching: false,
            speculation: SpeculationConfig::off(),
            telemetry: TelemetryConfig::OFF,
        }
    }

    /// Sets the simulated request count.
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the arrival rate.
    pub fn with_arrival_rate(mut self, rate: f64) -> Self {
        self.arrival_rate = rate;
        self
    }

    /// Sets the per-iteration prefill token budget.
    pub fn with_prefill_chunk(mut self, prefill_chunk: usize) -> Self {
        self.prefill_chunk = prefill_chunk;
        self
    }

    /// Sets the fraction of post-weight memory granted to the KV cache.
    pub fn with_kv_memory_fraction(mut self, fraction: f64) -> Self {
        self.kv_memory_fraction = fraction;
        self
    }

    /// Sets the prefill/decode interleaving policy.
    pub fn with_policy(mut self, policy: SchedulerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables prefix-aware KV cache reuse.
    pub fn with_prefix_caching(mut self, enabled: bool) -> Self {
        self.prefix_caching = enabled;
        self
    }

    /// Sets the speculative-decoding configuration.
    pub fn with_speculation(mut self, speculation: SpeculationConfig) -> Self {
        self.speculation = speculation;
        self
    }

    /// Sets the telemetry configuration (event sink and series interval).
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The performance model rejected the configuration.
    Perf(PerfError),
    /// The configuration admits no requests (zero batch, requests or
    /// prefill chunk).
    EmptyConfig,
    /// The device cannot hold a request's KV cache.
    NoKvHeadroom {
        /// Tokens of KV budget available.
        budget_tokens: usize,
    },
    /// A generated workload needs a positive, finite Poisson arrival rate.
    InvalidArrivalRate {
        /// The configured [`SimConfig::arrival_rate`] (req/s).
        rate: f64,
    },
    /// A capacity search was given a bad rate bracket.
    InvalidBounds {
        /// Lower bracket end (req/s).
        lo: f64,
        /// Upper bracket end (req/s).
        hi: f64,
    },
    /// A replayed request has a zero-length prompt or response.
    InvalidRequest {
        /// Id of the offending request.
        id: u64,
    },
    /// A disaggregated fleet's KV link needs a positive, finite latency
    /// and a positive bandwidth: a zero latency stalls the driver's
    /// causality guard, and a zero bandwidth makes every transfer last
    /// forever.
    InvalidKvLink {
        /// The link's per-transfer latency.
        latency: Seconds,
        /// The link's bandwidth.
        bandwidth: Bandwidth,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Perf(e) => write!(f, "performance model error: {e}"),
            SimError::EmptyConfig => write!(f, "simulation admits no requests"),
            SimError::NoKvHeadroom { budget_tokens } => {
                write!(
                    f,
                    "KV budget of {budget_tokens} tokens cannot hold a single request"
                )
            }
            SimError::InvalidArrivalRate { rate } => {
                write!(f, "arrival rate must be positive and finite, got {rate}")
            }
            SimError::InvalidBounds { lo, hi } => {
                write!(f, "invalid capacity bounds ({lo}, {hi}): need 0 < lo < hi")
            }
            SimError::InvalidRequest { id } => {
                write!(f, "request {id} has a zero-length prompt or response")
            }
            SimError::InvalidKvLink { latency, bandwidth } => write!(
                f,
                "KV link needs a positive finite latency and a positive bandwidth, \
                 got {latency} and {bandwidth}"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Perf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PerfError> for SimError {
    fn from(e: PerfError) -> Self {
        SimError::Perf(e)
    }
}

/// The serving simulator: binds an architecture, model and deployment, and
/// replays a Poisson request stream through the continuous-batching
/// scheduler.
///
/// The scheduler itself lives in [`Engine`], which exposes the same loop
/// one iteration at a time; `ServingSim` validates the configuration and
/// offers the run-to-completion drivers ([`ServingSim::run`],
/// [`ServingSim::run_requests`]). Multi-replica drivers call
/// [`ServingSim::engine`] and interleave the replicas themselves.
pub struct ServingSim<'a> {
    evaluator: Evaluator<'a>,
    cfg: SimConfig,
    kv_budget_tokens: usize,
}

impl<'a> ServingSim<'a> {
    /// Creates a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Perf`] if the model does not fit the deployment,
    /// [`SimError::EmptyConfig`] for a zero batch/request/chunk count, or
    /// [`SimError::NoKvHeadroom`] if no KV space remains after weights.
    pub fn new(
        arch: &'a Architecture,
        model: &'a ModelConfig,
        deployment: Deployment,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        if cfg.max_batch == 0 || cfg.requests == 0 || cfg.prefill_chunk == 0 {
            return Err(SimError::EmptyConfig);
        }
        let evaluator = Evaluator::new(arch, model, deployment)?;
        let devices = conv::u64_from_usize(deployment.devices);
        let weights_per_dev = model.weight_bytes().get() / devices;
        let available =
            conv::f64_from_u64(arch.dram.capacity.get().saturating_sub(weights_per_dev))
                * cfg.kv_memory_fraction;
        let kv_per_token_per_dev =
            conv::f64_from_u64(model.kv_bytes_per_token().get()) / conv::f64_from_u64(devices);
        let budget_tokens = conv::usize_from_f64(available / kv_per_token_per_dev);
        if budget_tokens < model.max_seq_len.min(1024) {
            return Err(SimError::NoKvHeadroom { budget_tokens });
        }
        Ok(Self {
            evaluator,
            cfg,
            kv_budget_tokens: budget_tokens,
        })
    }

    /// The KV budget in tokens (across the whole deployment).
    pub fn kv_budget_tokens(&self) -> usize {
        self.kv_budget_tokens
    }

    /// Consumes the simulator into its incremental [`Engine`], for drivers
    /// that interleave several replicas (or inspect state mid-run) instead
    /// of running one request list to completion.
    pub fn engine(self) -> Engine<'a> {
        Engine::from_parts(self.evaluator, self.cfg, self.kv_budget_tokens)
    }

    /// Runs the simulation over requests drawn from `profile`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidArrivalRate`] unless
    /// [`SimConfig::arrival_rate`] is positive and finite. Propagates
    /// performance-model errors ([`SimError::Perf`]) and
    /// [`SimError::NoKvHeadroom`] if a sampled request can never fit the
    /// KV budget.
    pub fn run(self, profile: TraceProfile) -> Result<QosReport, SimError> {
        // Checked here, not in `new`: fleets build engines through `new`
        // and feed them requests, never reading this rate.
        let rate = self.cfg.arrival_rate;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(SimError::InvalidArrivalRate { rate });
        }
        let requests = RequestGenerator::new(rate, profile, self.cfg.seed).take(self.cfg.requests);
        self.run_requests(requests).map(|(report, _)| report)
    }

    /// Replays an explicit request list (a recorded trace, say) through the
    /// scheduler and also returns the per-request outcomes.
    ///
    /// Requests are sorted by arrival time internally; `cfg.requests` is
    /// ignored in favour of the list length.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyConfig`] for an empty list,
    /// [`SimError::InvalidRequest`] for a zero-length prompt or response
    /// (possible on `Request` values built without [`Request::new`]),
    /// [`SimError::NoKvHeadroom`] if any single request's full context can
    /// never fit the KV budget, and propagates [`SimError::Perf`].
    pub fn run_requests(
        self,
        requests: Vec<Request>,
    ) -> Result<(QosReport, Vec<RequestOutcome>), SimError> {
        if requests.is_empty() {
            return Err(SimError::EmptyConfig);
        }
        let mut engine = self.engine();
        for r in requests {
            // `Engine::submit` rejects zero-length and over-budget
            // requests (either would wedge the queue forever); the error
            // names the first offender in list order.
            engine.submit(r)?;
        }
        while engine.step()? != StepEvent::Idle {}
        let report = engine
            .report()
            // ador-lint: allow(panic) — invariant: a non-empty request list completes something
            .expect("a non-empty request list always completes something");
        Ok((report, engine.into_outcomes()))
    }
}

impl fmt::Debug for ServingSim<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServingSim")
            .field("arch", &self.evaluator.architecture().name)
            .field("model", &self.evaluator.model().name)
            .field("cfg", &self.cfg)
            .field("kv_budget_tokens", &self.kv_budget_tokens)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    // tests may unwrap: a failed unwrap is exactly the test failing
    #![allow(clippy::unwrap_used)]

    use super::*;
    use ador_baselines::{a100, ador_table3};
    use ador_model::presets;
    use ador_units::Seconds;

    fn run(rate: f64, requests: usize, seed: u64) -> QosReport {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(rate, 64)
            .with_requests(requests)
            .with_seed(seed);
        ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(TraceProfile::ultrachat_like())
            .unwrap()
    }

    #[test]
    fn completes_every_request() {
        let report = run(2.0, 50, 1);
        assert_eq!(report.completed, 50);
        assert!(report.makespan > Seconds::ZERO);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run(2.0, 30, 9);
        let b = run(2.0, 30, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_actually_reaches_the_trace() {
        // Guards against a config plumbing regression where the seed is
        // dropped and every run sees the same arrivals: distinct seeds must
        // produce distinct workloads (and therefore distinct reports).
        let a = run(2.0, 30, 9);
        let c = run(2.0, 30, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn determinism_survives_config_reuse() {
        // `SimConfig` is `Copy`; reusing one value across several sims (as
        // the capacity bisection does) must not thread RNG state between
        // runs.
        let cfg = SimConfig::new(3.0, 64).with_requests(25).with_seed(21);
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let go = || {
            ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(TraceProfile::ultrachat_like())
                .unwrap()
        };
        let first = go();
        let second = go();
        assert_eq!(first, second);
    }

    #[test]
    fn ttft_never_exceeds_e2e() {
        let report = run(4.0, 60, 2);
        assert!(report.ttft.p99 <= report.e2e.max);
        assert!(report.ttft.mean <= report.e2e.mean);
    }

    #[test]
    fn overload_degrades_qos() {
        // Past saturation, queueing blows up TTFT and batches fill up.
        let light = run(1.0, 60, 3);
        let heavy = run(50.0, 60, 3);
        assert!(heavy.ttft.p95 > light.ttft.p95);
        assert!(heavy.mean_batch > light.mean_batch);
        assert!(heavy.tbt.p50 >= light.tbt.p50);
        assert!(heavy.mean_queue_depth > light.mean_queue_depth);
        assert!(heavy.peak_queue_depth > light.peak_queue_depth);
    }

    #[test]
    fn a100_serves_fewer_tokens_than_ador() {
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(8.0, 64).with_requests(60).with_seed(4);
        let mk = |arch: &Architecture| {
            ServingSim::new(arch, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(TraceProfile::ultrachat_like())
                .unwrap()
        };
        let gpu = mk(&a100());
        let ador = mk(&ador_table3());
        assert!(ador.tokens_per_sec > gpu.tokens_per_sec);
        assert!(ador.tbt.p50 < gpu.tbt.p50);
    }

    #[test]
    fn kv_budget_positive() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let sim = ServingSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            SimConfig::new(1.0, 16),
        )
        .unwrap();
        // 80 GiB − 16 GB of weights leaves room for ~450 K tokens at 128 KiB.
        assert!(
            sim.kv_budget_tokens() > 300_000,
            "{}",
            sim.kv_budget_tokens()
        );
    }

    #[test]
    fn rejects_empty_config() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let err = ServingSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            SimConfig::new(1.0, 0),
        )
        .unwrap_err();
        assert_eq!(err, SimError::EmptyConfig);
        let err = ServingSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            SimConfig::new(1.0, 16).with_prefill_chunk(0),
        )
        .unwrap_err();
        assert_eq!(err, SimError::EmptyConfig);
    }

    #[test]
    fn model_that_does_not_fit_is_reported() {
        let arch = ador_table3();
        let model = presets::llama3_70b();
        let err = ServingSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            SimConfig::new(1.0, 16),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::Perf(PerfError::ModelTooLarge { .. })
        ));
    }

    #[test]
    fn oversized_request_is_rejected_up_front() {
        // A request whose full context exceeds the KV budget would wedge
        // the queue forever; the run reports NoKvHeadroom instead.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let sim = ServingSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            SimConfig::new(1.0, 8).with_kv_memory_fraction(0.005),
        )
        .unwrap();
        let budget = sim.kv_budget_tokens();
        let big = Request::new(0, Seconds::ZERO, budget, budget);
        let err = sim.run_requests(vec![big]).unwrap_err();
        assert!(matches!(err, SimError::NoKvHeadroom { .. }));
    }

    #[test]
    fn zero_token_request_is_rejected_up_front() {
        // `Request`'s fields are public, so a replayed trace can bypass
        // `Request::new`'s assert; the scheduler must refuse such entries
        // instead of spinning forever.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mk = || {
            ServingSim::new(
                &arch,
                &model,
                Deployment::single_device(),
                SimConfig::new(1.0, 8),
            )
            .unwrap()
        };
        let mut bad = Request::new(7, Seconds::ZERO, 100, 10);
        bad.input_tokens = 0;
        let err = mk().run_requests(vec![bad]).unwrap_err();
        assert_eq!(err, SimError::InvalidRequest { id: 7 });
        let mut bad = Request::new(8, Seconds::ZERO, 100, 10);
        bad.output_tokens = 0;
        let err = mk().run_requests(vec![bad]).unwrap_err();
        assert_eq!(err, SimError::InvalidRequest { id: 8 });
    }

    #[test]
    fn single_request_has_full_batch_occupancy() {
        // A lone request occupies the engine on every step — including the
        // fused step that emits its first token. Guards the mean-batch
        // undercount where same-step admissions were never sampled.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let (report, outcomes) = ServingSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            SimConfig::new(1.0, 8),
        )
        .unwrap()
        .run_requests(vec![Request::new(0, Seconds::ZERO, 128, 8)])
        .unwrap();
        assert_eq!(report.completed, 1);
        assert_eq!(outcomes.len(), 1);
        assert!(
            (report.mean_batch - 1.0).abs() < 1e-12,
            "{}",
            report.mean_batch
        );
    }

    #[test]
    fn hostile_arrival_rates_are_typed_errors() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = SimConfig::new(rate, 8).with_requests(4);
            let err = ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(TraceProfile::short_chat())
                .unwrap_err();
            // NaN != NaN, so compare the payload's bits.
            assert!(
                matches!(err, SimError::InvalidArrivalRate { rate: r } if r.to_bits() == rate.to_bits()),
                "rate {rate}: {err}"
            );
        }
    }

    #[test]
    fn long_prompt_is_prefilled_in_chunks() {
        // An 8×chunk prompt takes 8 iterations of prefill, so its TTFT far
        // exceeds a one-chunk prompt's, and the engine records no stall
        // longer than decode + one chunk for a concurrent decoder.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(1.0, 8).with_prefill_chunk(512);
        let (_, outcomes) = ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run_requests(vec![Request::new(0, Seconds::ZERO, 4096, 4)])
            .unwrap();
        let long_ttft = outcomes[0].ttft;
        let (_, outcomes) = ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run_requests(vec![Request::new(0, Seconds::ZERO, 512, 4)])
            .unwrap();
        let short_ttft = outcomes[0].ttft;
        assert!(
            long_ttft.get() > short_ttft.get() * 4.0,
            "chunked long prompt must span several iterations: {long_ttft} vs {short_ttft}"
        );
    }

    use ador_hw::Architecture;
}
