//! Discrete-event LLM serving simulation (paper §V-D, Fig. 14b):
//! Poisson request arrivals, continuous batching, and QoS measurement.
//!
//! The simulator replicates the paper's serving environment: a request
//! generator draws arrival times from a Poisson process and prompt/response
//! lengths from a chat-trace distribution; a continuous-batching scheduler
//! (Fig. 2b) admits prefills alongside running decodes; per-step latencies
//! come from the [`ador_perf`] analytical model; and a QoS calculator
//! reports TTFT / TBT / end-to-end percentiles, SLO attainment and the
//! maximum sustainable request rate (Fig. 16).
//!
//! The scheduler models three behaviours production engines (vLLM, TGI)
//! treat as baseline:
//!
//! - **Chunked prefill** — prompts larger than
//!   [`SimConfig::prefill_chunk`] are prefilled over several engine
//!   iterations, bounding the prefill time a single long prompt can inject
//!   into running requests' inter-token gaps.
//! - **Token-granular KV accounting** — KV memory is charged as contexts
//!   actually grow (chunk by chunk during prefill, one token per decode
//!   step), not reserved for a request's whole lifetime at admission.
//! - **Preemption** — under KV pressure the youngest request is paused,
//!   its KV released, and its context recomputed on resume; the
//!   [`QosReport`] counts these events alongside queue-depth stats.
//! - **Prefix caching** (opt-in via [`SimConfig::prefix_caching`]) —
//!   requests tagged with a [`Request::prefix_group`] share KV blocks
//!   with earlier requests of the same group ([`PrefixCache`]): admission
//!   skips the prefill of blocks already resident, shared blocks are
//!   charged against the KV budget once, and cold blocks are LRU-evicted
//!   before the scheduler resorts to preemption. This is the vLLM /
//!   RadixAttention mechanism that makes multi-turn sessions cheap.
//! - **Speculative decoding** (opt-in via [`SimConfig::speculation`]) —
//!   each decode step drafts up to `k` tokens per request, verifies them
//!   in one parallel pass, and commits the accepted run plus the verify
//!   pass's own token; KV grows by committed tokens only. The
//!   [`ador_spec`] crate holds the policy ([`SpeculationPolicy`]:
//!   off / fixed depth / SLO-adaptive per-request depth), the seeded
//!   deterministic acceptance process, and the draft/verify cost knobs;
//!   realized drafted/accepted/rejected token counts land in
//!   [`EngineCounters`] and [`QosReport`].
//!
//! [`SchedulerPolicy`] selects how prefill and decode share iterations:
//! fused (every iteration may carry a chunk) or decode-prioritized (at most
//! every other decode step pays prefill interference).
//!
//! The paper pulls `HuggingFaceH4/ultrachat_200k` from the hub to
//! reconstruct token-length patterns; offline, we substitute a seeded
//! log-normal fit of the same marginals ([`TraceProfile`]).
//!
//! # Examples
//!
//! ```
//! use ador_serving::{ServingSim, SimConfig, TraceProfile};
//! use ador_perf::Deployment;
//! use ador_model::presets;
//!
//! let arch = ador_baselines::ador_table3();
//! let model = presets::llama3_8b();
//! let cfg = SimConfig::new(2.0, 64).with_requests(40).with_seed(7);
//! let report = ServingSim::new(&arch, &model, Deployment::single_device(), cfg)?
//!     .run(TraceProfile::ultrachat_like())?;
//! assert_eq!(report.completed, 40);
//! assert!(report.tbt.p50.as_millis() > 1.0);
//! # Ok::<(), ador_serving::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity;
mod costs;
mod engine;
mod generator;
mod prefix;
#[cfg(feature = "profile")]
pub mod profile;
mod qos;
mod request;
mod sim;
mod slo;
mod trace;

pub use capacity::{bisect_rate, max_capacity, CapacityResult};
pub use costs::StepCosts;
pub use engine::{Engine, StepEvent};
pub use generator::{arrival_rate_fits, RequestGenerator};
pub use prefix::{PrefixCache, PrefixCacheStats, PREFIX_BLOCK_TOKENS};
pub use qos::{EngineCounters, LatencyStats, QosReport};
pub use request::{Request, RequestOutcome};
pub use sim::{SchedulerPolicy, ServingSim, SimConfig, SimError};
pub use slo::Slo;
pub use trace::TraceProfile;

// Speculative decoding lives in its own engine-independent crate
// (`ador-spec`); re-export the configuration surface so `SimConfig`
// users need not name a second crate.
pub use ador_spec::{SpeculationConfig, SpeculationPolicy};
pub use ador_telemetry::{EventDetail, TelemetryConfig};
