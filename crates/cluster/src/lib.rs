//! Cluster-level LLM serving: a fleet of engine replicas behind a router,
//! serving multi-tenant traffic under per-class SLOs.
//!
//! The paper's serving evaluation (§V-D, Fig. 16) stops at a single
//! engine; production systems front a *fleet* of replicas with a router
//! and serve several traffic classes with different latency contracts at
//! once. This crate adds that layer on top of [`ador_serving`]'s
//! incremental [`Engine`](ador_serving::Engine) API:
//!
//! - **[`ClusterSim`]** — N independent engine replicas driven by one
//!   discrete-event loop on one global clock: each step processes the
//!   next boundary instant (arrival, KV-transfer maturity, or the
//!   disaggregated causality guard), a binary-heap event queue sweeps
//!   only the replicas with work before it, and every routing decision
//!   reads load snapshots consistent with the single fleet timeline.
//!   Aggregated and disaggregated fleets share the loop; an aggregated
//!   fleet is simply the case with no KV link.
//! - **[`Router`] / [`RouterPolicy`]** — pluggable routing:
//!   round-robin (the count-balancing baseline), join-shortest-queue,
//!   least-KV-load (token-backlog aware), SLO-aware class partitioning,
//!   and cache-affinity (sticky per-session routing that keeps a
//!   session's turns on the replica whose prefix cache holds its
//!   context, spilling past [`AFFINITY_SPILL`]). Deterministic: ties
//!   break toward the lowest replica index, so the same seed reproduces
//!   the same assignment trace.
//! - **[`TenantMix`] / [`TenantClass`]** — multi-tenant workloads:
//!   chatbot / summarization / code-completion presets with distinct
//!   token-length marginals, SLO targets and arrival processes
//!   ([`ArrivalProcess::Poisson`] plus the bursty
//!   [`ArrivalProcess::OnOffMmpp`]), multiplexed into one seeded,
//!   deterministic request stream. Classes with a [`SessionShape`]
//!   emit multi-turn conversations whose prompts grow by the previous
//!   context — the prefix-caching workload
//!   ([`ClusterConfig::with_prefix_caching`]). Every generated request
//!   carries its class's [`Slo`](ador_serving::Slo) and draft-acceptance
//!   profile ([`TenantClass::accept_rate`]), the per-tenant inputs of
//!   SLO-customized speculative decoding
//!   ([`ClusterConfig::with_speculation`]).
//! - **[`FleetSpec`] / [`Topology`]** — heterogeneous composition and
//!   prefill/decode disaggregation: each [`ReplicaSpec`] carries its own
//!   architecture, engine config and [`PoolRole`], and
//!   [`ClusterConfig::with_disaggregation`] splits request lifecycles
//!   across the pools — prompts prefill in the prefill pool, finished
//!   contexts ship over a [`KvLink`] (latency plus tokens ×
//!   KV-bytes/token at link bandwidth, charged on the event clock), and
//!   decode halves run in the decode pool under
//!   [`ClusterConfig::decode_policy`]. Conservation extends to the
//!   link: `submitted == completed + rejected + in_flight +
//!   in_transfer` at every event boundary.
//! - **[`FleetReport`]** — fleet-wide QoS: the merged engine report
//!   (via [`QosReport::merge`](ador_serving::QosReport::merge): engine
//!   counters from the replicas, populations from the end-to-end
//!   outcomes),
//!   per-tenant SLO attainment (shed requests count as misses),
//!   per-replica utilization imbalance, the full routing trace, and the
//!   KV-transfer counters of a disaggregated run.
//! - **[`cluster_capacity`]** — the fleet analogue of the paper's
//!   Fig. 16 search: bisect the aggregate arrival rate (preserving the
//!   per-class traffic shares) for the largest load at which every class
//!   keeps its attainment target.
//!
//! Optional admission control ([`ClusterConfig::queue_cap`]) sheds
//! requests when the chosen replica's queue is too deep; shed requests
//! are tracked per tenant and count against attainment.
//!
//! # Examples
//!
//! ```
//! use ador_cluster::{ClusterConfig, ClusterSim, RouterPolicy, TenantClass, TenantMix};
//! use ador_perf::Deployment;
//!
//! let arch = ador_baselines::ador_table3();
//! let model = ador_model::presets::llama3_8b();
//! // A skewed two-tenant mix: steady chat plus bursty summarization.
//! let mix = TenantMix::new(vec![
//!     TenantClass::chatbot(5.0),
//!     TenantClass::summarization(1.5),
//! ]);
//! let cfg = ClusterConfig::new(2, RouterPolicy::LeastKvLoad);
//! let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)?
//!     .run(&mix, 80, 3)?;
//! assert_eq!(report.completed + report.rejected, 80);
//! for tenant in &report.tenants {
//!     println!("{}: attainment {:.2}", tenant.name, tenant.attainment);
//! }
//! # Ok::<(), ador_serving::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity;
mod cluster;
mod fleet;
mod ledger;
mod report;
mod router;
pub mod scenarios;
mod tenant;

pub use capacity::{cluster_capacity, ClusterCapacityResult};
pub use cluster::{ClusterConfig, ClusterSim};
pub use fleet::{FleetSpec, KvLink, PoolRole, ReplicaSpec, Topology};
pub use report::{FleetAttribution, FleetReport, FleetTelemetry, TenantQos};
pub use router::{ReplicaSnapshot, Router, RouterPolicy, AFFINITY_SPILL};
pub use tenant::{ArrivalProcess, ClusterRequest, SessionShape, TenantClass, TenantMix};
