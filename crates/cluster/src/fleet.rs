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
use ador_serving::{SimConfig, SimError};
use ador_units::{Bandwidth, Seconds};

/// Which phase(s) of the request lifecycle a replica serves under a
/// disaggregated topology. Ignored under [`Topology::Aggregated`], where
/// every replica serves whole requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// One replica's full description: the hardware it runs on (named by
/// its `arch.name`), its engine scheduler knobs, and its pool role.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSpec {
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
    /// Creates a [`PoolRole::Unified`] replica spec.
    pub fn new(arch: Architecture, engine: SimConfig) -> Self {
        Self {
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
}

/// A replica mix: the fleet's full composition, replica by replica.
#[derive(Debug, Clone, PartialEq)]
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
        pool(self.replicas.iter().map(|s| s.role), PoolRole::Decode)
    }

    /// Indices serving the decode side of a disaggregated fleet
    /// ([`PoolRole::Decode`] and [`PoolRole::Unified`] replicas).
    pub fn decode_pool(&self) -> Vec<usize> {
        pool(self.replicas.iter().map(|s| s.role), PoolRole::Prefill)
    }
}

/// The pool rule: the indices, in fleet order, of the replicas whose role
/// is not `excluded`. The prefill pool excludes [`PoolRole::Decode`], the
/// decode pool [`PoolRole::Prefill`], and a [`PoolRole::Unified`] replica
/// joins both.
pub(crate) fn pool(roles: impl Iterator<Item = PoolRole>, excluded: PoolRole) -> Vec<usize> {
    roles
        .enumerate()
        .filter(|&(_, role)| role != excluded)
        .map(|(i, _)| i)
        .collect()
}

/// The interconnect a disaggregated fleet ships KV contexts over.
///
/// Moving a finished context of `c` tokens costs
/// `latency + c × kv_bytes_per_token / bandwidth` on the fleet clock —
/// the continuation cannot start decoding anywhere before that instant.
/// Every link is valid by construction ([`KvLink::new`] refuses the
/// rest): its bandwidth is positive and its latency positive and finite.
/// The latency is also the causality guard the driver uses to bound how
/// far any replica may be swept while a prefill completion (and hence a
/// future delivery) is still undiscovered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvLink {
    bandwidth: Bandwidth,
    latency: Seconds,
}

impl KvLink {
    /// Creates a link with `bandwidth` available to one context transfer
    /// and a fixed per-transfer `latency` (setup + first byte).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidKvLink`] unless the bandwidth is
    /// positive and the latency positive and finite (NaN in either
    /// fails): a zero latency would stall the driver's causality guard,
    /// and a zero bandwidth would make every transfer last forever.
    pub fn new(bandwidth: Bandwidth, latency: Seconds) -> Result<Self, SimError> {
        let secs = latency.get();
        if bandwidth.as_bytes_per_sec() > 0.0 && secs > 0.0 && secs.is_finite() {
            Ok(Self { bandwidth, latency })
        } else {
            Err(SimError::InvalidKvLink { latency, bandwidth })
        }
    }

    /// Bandwidth available to one context transfer.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Fixed per-transfer latency (setup + first byte).
    pub fn latency(&self) -> Seconds {
        self.latency
    }
}

/// How the fleet divides request lifecycles across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
    // tests may unwrap: a failed unwrap is exactly the test failing
    #![allow(clippy::unwrap_used)]

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
    fn links_are_valid_by_construction() {
        let gbps = ador_units::Bandwidth::from_gbps;
        let ms = Seconds::from_millis;
        let link = KvLink::new(gbps(64.0), ms(0.5)).unwrap();
        assert_eq!((link.bandwidth(), link.latency()), (gbps(64.0), ms(0.5)));
        // A zero latency would stop the causality guard from advancing
        // (the driver would spin forever); a zero bandwidth would make
        // every transfer last forever (an infinite time span). The unit
        // constructors refuse negative and non-finite values, so those
        // are built the way a caller can still reach them: by arithmetic.
        let bad = [
            (gbps(64.0), Seconds::ZERO),
            (gbps(64.0), Seconds::ZERO - ms(1.0)),
            (gbps(64.0), ms(1.0) * f64::NAN),
            (gbps(64.0), ms(1.0) * f64::INFINITY),
            (gbps(0.0), ms(0.5)),
            (gbps(64.0) * f64::NAN, ms(0.5)),
        ];
        for (bandwidth, latency) in bad {
            let built = KvLink::new(bandwidth, latency);
            assert!(
                matches!(built, Err(SimError::InvalidKvLink { .. })),
                "{bandwidth} / {latency}: {built:?}"
            );
        }
    }
}
