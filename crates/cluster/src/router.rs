//! The cluster front door: pluggable request-to-replica routing policies.

use std::collections::BTreeMap;
use std::fmt;

use ador_units::conv;

/// Which replica a router hands each arriving request to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterPolicy {
    /// Cycle through replicas in submission order, ignoring load. The
    /// baseline every adaptive policy is judged against: it balances
    /// request *counts*, not *work*, so heavy-tailed and bursty traffic
    /// leaves some replicas drowning while others idle.
    #[default]
    RoundRobin,
    /// Send each request to the replica with the fewest requests in its
    /// system (queued + admitted). Classic adaptive load balancing; reacts
    /// to queue buildup regardless of what caused it.
    JoinShortestQueue,
    /// Send each request to the replica with the lowest KV-cache demand:
    /// resident tokens plus the committed backlog (queued prompts and
    /// unfinished prefills), relative to the replica's KV budget. Token
    /// demand tracks *work* rather than request count, so long-context
    /// stragglers repel new work even when their queues look short —
    /// and counting the backlog (not just residency, which lags while a
    /// burst's prefills land) avoids herding whole bursts onto whichever
    /// replica happened to look empty.
    LeastKvLoad,
    /// Partition replicas among SLO classes (replica `r` serves class
    /// `r mod classes`) and join the shortest queue within the partition,
    /// falling back to fleet-wide shortest-queue for classes with no
    /// replicas of their own. Isolates latency-critical tenants from
    /// bursty batch traffic at the cost of statistical multiplexing.
    SloAware,
    /// Sticky session routing for prefix-cache locality: a request whose
    /// [`prefix_group`](ador_serving::Request::prefix_group) was seen
    /// before goes back to the replica that served the session's earlier
    /// turns — the replica whose prefix cache holds the session's context
    /// (reuse is strictly per-replica). Ungrouped requests, first turns,
    /// and turns whose sticky replica has fallen more than
    /// [`AFFINITY_SPILL`] of a KV budget behind the least-loaded replica
    /// fall back to [`RouterPolicy::LeastKvLoad`] (spilled sessions are
    /// re-pinned to the new replica, where their prefix is rebuilt).
    CacheAffinity,
}

/// How much more KV demand (as a fraction of one replica's budget) the
/// sticky replica of a session may carry than the least-loaded replica
/// before [`RouterPolicy::CacheAffinity`] gives up cache locality and
/// spills the session: losing a prefix costs one re-prefill, while
/// queueing behind a saturated replica costs every subsequent request.
pub const AFFINITY_SPILL: f64 = 0.5;

impl fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::JoinShortestQueue => "join-shortest-queue",
            RouterPolicy::LeastKvLoad => "least-kv-load",
            RouterPolicy::SloAware => "slo-aware",
            RouterPolicy::CacheAffinity => "cache-affinity",
        };
        f.write_str(name)
    }
}

/// A replica's load state at a routing decision point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSnapshot {
    /// Requests waiting for an engine slot (queued or submitted-but-future).
    pub queue_depth: usize,
    /// Requests currently admitted (prefilling or decoding).
    pub active: usize,
    /// KV-cache tokens resident.
    pub kv_in_use: usize,
    /// Committed-but-not-yet-resident KV demand: queued prompts plus
    /// remaining prefill of admitted requests.
    pub backlog_tokens: usize,
    /// The replica's KV budget in tokens.
    pub kv_budget_tokens: usize,
}

impl ReplicaSnapshot {
    /// Requests in the replica's system: queued plus admitted.
    pub fn load(&self) -> usize {
        self.queue_depth + self.active
    }

    /// KV demand (resident plus committed backlog) relative to the
    /// budget. Unlike utilization, this can exceed 1 under overload.
    pub fn kv_load(&self) -> f64 {
        conv::f64_from_usize(self.kv_in_use + self.backlog_tokens)
            / conv::f64_from_usize(self.kv_budget_tokens.max(1))
    }
}

/// The routing state machine: a policy plus whatever memory it needs
/// (round-robin carries a cursor; cache-affinity carries the
/// session-to-replica pin table). Fully deterministic: ties break toward
/// the lowest replica index.
///
/// The pin table is unbounded: it keeps one replica index per session
/// ever routed, which is less than a fleet already keeps per request
/// (its stream, ledger and routing trace), so it never dominates a
/// run's memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    policy: RouterPolicy,
    rr_next: usize,
    /// Cache-affinity pin table: the replica that last served each
    /// prefix group. A front-door session table, not an inspection of
    /// replica caches — a pinned prefix may have been evicted, in which
    /// case the pinned replica simply re-prefills it. A `BTreeMap`, as
    /// the determinism contract asks of every map (see `ador-lint`).
    affinity: BTreeMap<u64, usize>,
}

impl Router {
    /// Creates a router with the given policy.
    pub fn new(policy: RouterPolicy) -> Self {
        Self {
            policy,
            rr_next: 0,
            affinity: BTreeMap::new(),
        }
    }

    /// Picks the replica for a request from SLO class `tenant` (of
    /// `classes` total) carrying `prefix_group` content identity, given
    /// the fleet's load snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn route(
        &mut self,
        tenant: usize,
        classes: usize,
        prefix_group: Option<u64>,
        replicas: &[ReplicaSnapshot],
    ) -> usize {
        assert!(!replicas.is_empty(), "cannot route across zero replicas");
        self.pick(tenant, classes, prefix_group, replicas.len(), |i| {
            &replicas[i]
        })
    }

    /// Picks a replica from the subset `pool` (fleet-wide indices into
    /// `replicas`), applying the policy pool-locally: load comparisons,
    /// round-robin cycling, `SloAware` partitioning and affinity pins
    /// all see only the pool's members, and the returned index is mapped
    /// back to the fleet. The pick is exactly what [`Router::route`]
    /// makes over the pool's snapshots copied out in pool order, without
    /// the copy. A disaggregated fleet's routers each own one pool, so
    /// always calling a given router with the same pool keeps its
    /// cursor/pin state coherent.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty.
    pub fn route_pool(
        &mut self,
        tenant: usize,
        classes: usize,
        prefix_group: Option<u64>,
        replicas: &[ReplicaSnapshot],
        pool: &[usize],
    ) -> usize {
        assert!(!pool.is_empty(), "cannot route across an empty pool");
        pool[self.pick(tenant, classes, prefix_group, pool.len(), |i| {
            &replicas[pool[i]]
        })]
    }

    /// The policy body behind both entry points: picks a position in
    /// `0..n`, where `snap(i)` is candidate `i`'s load snapshot.
    fn pick<'s>(
        &mut self,
        tenant: usize,
        classes: usize,
        prefix_group: Option<u64>,
        n: usize,
        snap: impl Fn(usize) -> &'s ReplicaSnapshot,
    ) -> usize {
        match self.policy {
            RouterPolicy::RoundRobin => {
                let idx = self.rr_next % n;
                self.rr_next = self.rr_next.wrapping_add(1);
                idx
            }
            RouterPolicy::JoinShortestQueue => argmin(0..n, |i| snap(i).load()),
            RouterPolicy::LeastKvLoad => argmin(0..n, |i| snap(i).kv_load()),
            RouterPolicy::SloAware => {
                // The class's partition is every `classes`-th candidate
                // from its home index; it is empty when the home index
                // is past the end.
                let classes = classes.max(1);
                let home = tenant % classes;
                if home < n {
                    argmin((home..n).step_by(classes), |i| snap(i).load())
                } else {
                    argmin(0..n, |i| snap(i).load())
                }
            }
            RouterPolicy::CacheAffinity => {
                let fallback = argmin(0..n, |i| snap(i).kv_load());
                let Some(group) = prefix_group else {
                    return fallback;
                };
                let chosen = match self.affinity.get(&group) {
                    Some(&pinned)
                        if pinned < n
                            && snap(pinned).kv_load()
                                <= snap(fallback).kv_load() + AFFINITY_SPILL =>
                    {
                        pinned
                    }
                    _ => fallback,
                };
                self.affinity.insert(group, chosen);
                chosen
            }
        }
    }
}

/// First index attaining the minimum (ties break toward the earliest
/// candidate, so routing is deterministic). Load keys are counts or
/// ratios of counts, never NaN.
fn argmin<K: PartialOrd>(
    candidates: impl Iterator<Item = usize>,
    key: impl Fn(usize) -> K,
) -> usize {
    let mut best: Option<(usize, K)> = None;
    for i in candidates {
        let k = key(i);
        if best.as_ref().is_none_or(|(_, bk)| k < *bk) {
            best = Some((i, k));
        }
    }
    // ador-lint: allow(panic) — invariant: every call site guards against zero replicas
    best.expect("caller checks non-empty").0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(queue: usize, active: usize, kv: usize) -> ReplicaSnapshot {
        ReplicaSnapshot {
            queue_depth: queue,
            active,
            kv_in_use: kv,
            backlog_tokens: 0,
            kv_budget_tokens: 1000,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = Router::new(RouterPolicy::RoundRobin);
        let snaps = vec![snap(9, 9, 900), snap(0, 0, 0), snap(0, 0, 0)];
        let picks: Vec<usize> = (0..6).map(|_| r.route(0, 1, None, &snaps)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2], "ignores load by design");
    }

    #[test]
    fn jsq_picks_least_loaded_with_low_index_ties() {
        let mut r = Router::new(RouterPolicy::JoinShortestQueue);
        assert_eq!(
            r.route(0, 1, None, &[snap(3, 2, 0), snap(1, 2, 0), snap(4, 0, 0)]),
            1
        );
        // Tie between 0 and 2 → lowest index.
        assert_eq!(
            r.route(0, 1, None, &[snap(1, 1, 0), snap(3, 0, 0), snap(2, 0, 0)]),
            0
        );
        assert_eq!(
            r.route(0, 1, None, &[snap(1, 0, 0), snap(2, 0, 0), snap(1, 0, 0)]),
            0
        );
    }

    #[test]
    fn least_kv_routes_by_token_backlog_not_count() {
        let mut r = Router::new(RouterPolicy::LeastKvLoad);
        // Replica 0 has fewer requests but far more resident KV.
        let snaps = vec![snap(0, 1, 800), snap(2, 2, 100)];
        assert_eq!(r.route(0, 1, None, &snaps), 1);
        let mut jsq = Router::new(RouterPolicy::JoinShortestQueue);
        assert_eq!(
            jsq.route(0, 1, None, &snaps),
            0,
            "JSQ sees it the other way"
        );
    }

    #[test]
    fn least_kv_counts_committed_backlog_not_just_residency() {
        // Replica 0 looks empty by residency but has a burst of queued
        // prompts committed to it; demand-aware routing avoids the herd.
        let mut r = Router::new(RouterPolicy::LeastKvLoad);
        let herd_target = ReplicaSnapshot {
            queue_depth: 4,
            active: 0,
            kv_in_use: 0,
            backlog_tokens: 700,
            kv_budget_tokens: 1000,
        };
        let steady = ReplicaSnapshot {
            queue_depth: 0,
            active: 2,
            kv_in_use: 300,
            backlog_tokens: 0,
            kv_budget_tokens: 1000,
        };
        assert_eq!(r.route(0, 1, None, &[herd_target, steady]), 1);
    }

    #[test]
    fn slo_aware_partitions_by_class() {
        let mut r = Router::new(RouterPolicy::SloAware);
        let snaps = vec![snap(5, 0, 0), snap(0, 0, 0), snap(1, 0, 0), snap(9, 0, 0)];
        // Two classes over four replicas: class 0 → {0, 2}, class 1 → {1, 3}.
        assert_eq!(r.route(0, 2, None, &snaps), 2);
        assert_eq!(r.route(1, 2, None, &snaps), 1);
        // Three classes over one replica: class 2's partition is empty →
        // fleet-wide fallback.
        let one = vec![snap(0, 0, 0)];
        assert_eq!(r.route(2, 3, None, &one), 0);
    }

    #[test]
    fn cache_affinity_pins_sessions_and_spills_under_pressure() {
        let mut r = Router::new(RouterPolicy::CacheAffinity);
        let even = vec![snap(0, 0, 100), snap(0, 0, 100), snap(0, 0, 100)];
        // First turn of a session: falls back to least-KV (tie → 0) and
        // pins the session there.
        assert_eq!(r.route(0, 1, Some(77), &even), 0);
        // Later turns stick to replica 0 even when another replica is
        // (mildly) less loaded.
        let mild = vec![snap(0, 0, 300), snap(0, 0, 100), snap(0, 0, 100)];
        assert_eq!(
            r.route(0, 1, Some(77), &mild),
            0,
            "locality beats mild load"
        );
        // A different session pins independently.
        assert_eq!(r.route(0, 1, Some(99), &mild), 1);
        // Once the pinned replica falls more than AFFINITY_SPILL of a
        // budget behind the best, the session spills and is re-pinned.
        let hot = vec![snap(0, 0, 800), snap(0, 0, 100), snap(0, 0, 100)];
        assert_eq!(r.route(0, 1, Some(77), &hot), 1, "spill past the threshold");
        assert_eq!(
            r.route(0, 1, Some(77), &even),
            1,
            "the spilled session is re-pinned to its new replica"
        );
    }

    #[test]
    fn cache_affinity_without_group_is_least_kv_load() {
        let mut affinity = Router::new(RouterPolicy::CacheAffinity);
        let mut kv = Router::new(RouterPolicy::LeastKvLoad);
        let snaps = vec![snap(1, 1, 500), snap(0, 2, 200), snap(3, 0, 900)];
        assert_eq!(
            affinity.route(0, 1, None, &snaps),
            kv.route(0, 1, None, &snaps)
        );
    }

    #[test]
    fn route_pool_picks_what_route_picks_over_the_copied_pool() {
        // A small deterministic stream of fleet states (LCG draws):
        // each call sees fresh loads, a tenant and maybe a session, so
        // the round-robin cursor, the SloAware partitions, the affinity
        // pins and their spills all get exercised over the sequence.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |bound: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            conv::usize_from_u32((state >> 32) as u32 % bound)
        };
        let pools: [&[usize]; 5] = [&[0, 1, 2, 3, 4, 5], &[2, 3], &[1, 3, 4], &[5], &[4, 0, 2]];
        let policies = [
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastKvLoad,
            RouterPolicy::SloAware,
            RouterPolicy::CacheAffinity,
        ];
        for policy in policies {
            for pool in pools {
                let (mut in_place, mut copied) = (Router::new(policy), Router::new(policy));
                for _ in 0..200 {
                    let fleet: Vec<ReplicaSnapshot> = (0..6)
                        .map(|_| ReplicaSnapshot {
                            queue_depth: draw(4),
                            active: draw(4),
                            kv_in_use: draw(1000),
                            backlog_tokens: draw(400),
                            kv_budget_tokens: 1000,
                        })
                        .collect();
                    let tenant = draw(3);
                    let group = [None, Some(7), Some(8), Some(9)][draw(4)];
                    let local: Vec<ReplicaSnapshot> = pool.iter().map(|&i| fleet[i]).collect();
                    let want = pool[copied.route(tenant, 3, group, &local)];
                    let got = in_place.route_pool(tenant, 3, group, &fleet, pool);
                    assert_eq!(got, want, "{policy} over {pool:?}");
                }
                assert_eq!(in_place, copied, "{policy}: router state must evolve alike");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero replicas")]
    fn routing_across_no_replicas_panics() {
        let _ = Router::new(RouterPolicy::RoundRobin).route(0, 1, None, &[]);
    }
}
