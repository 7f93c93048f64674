//! Heterogeneous fleet composition: per-replica hardware + engine
//! configs, pool roles, and the prefill/decode disaggregation topology.
//!
//! The paper's fleet (§V-D) is N copies of one chip. Production serving
//! increasingly splits the two phases onto different hardware: prefill is
//! compute-bound (it wants MAC arrays), decode is DRAM-bandwidth-bound
//! (it wants HBM stacks), and a chip sized for one wastes the other. A
//! [`FleetSpec`] names each replica's [`Architecture`] and
//! [`SimConfig`]; a [`Topology::Disaggregated`] fleet routes fresh
//! prompts to the prefill pool and ships each finished context to the
//! decode pool over an explicit [`KvLink`] (tokens × bytes-per-token at
//! link bandwidth, plus a fixed latency), charged on the event clock.

use ador_hw::Architecture;
use ador_serving::SimConfig;
use ador_units::{Bandwidth, Seconds};
use serde::Serialize;

/// Which phase(s) of the request lifecycle a replica serves under a
/// disaggregated topology. Ignored under [`Topology::Aggregated`], where
/// every replica serves whole requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum PoolRole {
    /// Serves whole requests; under disaggregation it joins *both* pools.
    #[default]
    Unified,
    /// Prefill pool only: receives fresh prompts, emits the first token,
    /// then hands the context off.
    Prefill,
    /// Decode pool only: receives transferred contexts and generates the
    /// remaining tokens.
    Decode,
}

/// One replica's full description: a display name, the hardware it runs
/// on, its engine scheduler knobs, and its pool role.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplicaSpec {
    /// Display name (conventionally the hardware profile name, e.g.
    /// `"prefill-optimized"`).
    pub name: String,
    /// The hardware this replica runs on. Owned, so fleets can mix
    /// architectures freely; the engine borrows it for the run.
    pub arch: Architecture,
    /// Per-replica engine knobs (batch cap, prefill chunk, KV fraction,
    /// scheduler policy, telemetry). The `arrival_rate`, `requests` and
    /// `seed` fields are unused — the cluster's workload owns arrivals.
    pub engine: SimConfig,
    /// The pool this replica serves under a disaggregated topology.
    pub role: PoolRole,
}

impl ReplicaSpec {
    /// Creates a [`PoolRole::Unified`] replica spec. The name is taken
    /// from the architecture.
    pub fn new(arch: Architecture, engine: SimConfig) -> Self {
        Self {
            name: arch.name.clone(),
            arch,
            engine,
            role: PoolRole::Unified,
        }
    }

    /// Sets the replica's pool role.
    pub fn with_role(mut self, role: PoolRole) -> Self {
        self.role = role;
        self
    }

    /// Overrides the display name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

/// A replica mix: the fleet's full composition, replica by replica.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetSpec {
    /// The replicas, in index order (routing ties break toward the
    /// lowest index, so order is part of the pinned scenario).
    pub replicas: Vec<ReplicaSpec>,
}

impl FleetSpec {
    /// A fleet from an explicit replica list.
    pub fn new(replicas: Vec<ReplicaSpec>) -> Self {
        Self { replicas }
    }

    /// `count` copies of one spec — the homogeneous baseline every mix
    /// is judged against.
    pub fn homogeneous(spec: &ReplicaSpec, count: usize) -> Self {
        Self {
            replicas: (0..count).map(|_| spec.clone()).collect(),
        }
    }

    /// A two-pool fleet: `prefill_count` copies of `prefill` (tagged
    /// [`PoolRole::Prefill`]) followed by `decode_count` copies of
    /// `decode` (tagged [`PoolRole::Decode`]).
    pub fn prefill_decode(
        prefill: &ReplicaSpec,
        prefill_count: usize,
        decode: &ReplicaSpec,
        decode_count: usize,
    ) -> Self {
        let mut replicas = Vec::with_capacity(prefill_count + decode_count);
        for _ in 0..prefill_count {
            replicas.push(prefill.clone().with_role(PoolRole::Prefill));
        }
        for _ in 0..decode_count {
            replicas.push(decode.clone().with_role(PoolRole::Decode));
        }
        Self { replicas }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the fleet has no replicas.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Indices serving the prefill side of a disaggregated fleet
    /// ([`PoolRole::Prefill`] and [`PoolRole::Unified`] replicas).
    pub fn prefill_pool(&self) -> Vec<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, s)| s.role != PoolRole::Decode)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices serving the decode side of a disaggregated fleet
    /// ([`PoolRole::Decode`] and [`PoolRole::Unified`] replicas).
    pub fn decode_pool(&self) -> Vec<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, s)| s.role != PoolRole::Prefill)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The interconnect a disaggregated fleet ships KV contexts over.
///
/// Moving a finished context of `c` tokens costs
/// `latency + c × kv_bytes_per_token / bandwidth` on the fleet clock —
/// the continuation cannot start decoding anywhere before that instant.
/// The latency must be strictly positive and finite: it is also the
/// causality guard the drivers use to bound how far any replica may be
/// swept while a prefill completion (and hence a future delivery) is
/// still undiscovered. A fleet built over a link that breaks this (or
/// has no bandwidth) is refused with
/// [`SimError::InvalidKvLink`](ador_serving::SimError::InvalidKvLink).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct KvLink {
    /// Link bandwidth available to one context transfer. Must be > 0.
    pub bandwidth: Bandwidth,
    /// Fixed per-transfer latency (setup + first-byte). Must be finite
    /// and > 0.
    pub latency: Seconds,
}

impl KvLink {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics unless the bandwidth is positive and the latency positive
    /// and finite.
    pub fn new(bandwidth: Bandwidth, latency: Seconds) -> Self {
        let link = Self { bandwidth, latency };
        assert!(
            link.is_valid(),
            "KV links need positive bandwidth and latency"
        );
        link
    }

    /// Whether a fleet can run over this link: positive bandwidth and a
    /// positive, finite latency (NaN in either fails).
    pub(crate) fn is_valid(&self) -> bool {
        let latency = self.latency.get();
        self.bandwidth.as_bytes_per_sec() > 0.0 && latency > 0.0 && latency.is_finite()
    }
}

/// How the fleet divides request lifecycles across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum Topology {
    /// Every replica serves whole requests (the paper's fleet shape).
    /// Pool roles are ignored.
    #[default]
    Aggregated,
    /// Prefill/decode disaggregation: fresh prompts are routed within the
    /// prefill pool; each finished context (prompt + first token) is
    /// shipped to a decode-pool replica over the [`KvLink`] and the
    /// remaining tokens decode there. Requests with a single output
    /// token complete on the prefill side and are never shipped.
    Disaggregated(KvLink),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ReplicaSpec {
        ReplicaSpec::new(ador_baselines::ador_table3(), SimConfig::new(1.0, 64))
    }

    #[test]
    fn homogeneous_fleets_are_unified_everywhere() {
        let fleet = FleetSpec::homogeneous(&spec(), 3);
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.prefill_pool(), vec![0, 1, 2]);
        assert_eq!(fleet.decode_pool(), vec![0, 1, 2]);
    }

    #[test]
    fn prefill_decode_fleets_split_their_pools() {
        let fleet = FleetSpec::prefill_decode(&spec(), 2, &spec(), 3);
        assert_eq!(fleet.len(), 5);
        assert_eq!(fleet.prefill_pool(), vec![0, 1]);
        assert_eq!(fleet.decode_pool(), vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "positive bandwidth")]
    fn zero_latency_links_are_rejected() {
        let _ = KvLink::new(ador_units::Bandwidth::from_gbps(100.0), Seconds::new(0.0));
    }
}
