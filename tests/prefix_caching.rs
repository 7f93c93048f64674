//! Prefix-cache regression tests: the pinned cache-on-vs-off win on the
//! session workload, the pinned cache-affinity-vs-scatter routing win,
//! and property tests for the refcounted shared-block bookkeeping and the
//! KV-budget invariant under caching.

use std::collections::HashMap;

use ador::cluster::scenarios::{
    session_fleet, session_workload, SESSION_ENGINE_RATE, SESSION_RATE, SESSION_REQUESTS,
    SESSION_SEED,
};
use ador::cluster::{ClusterSim, FleetReport, RouterPolicy, TenantClass, TenantMix};
use ador::model::presets;
use ador::perf::Deployment;
use ador::serving::{PrefixCache, ServingSim, SimConfig, StepEvent, PREFIX_BLOCK_TOKENS};
use proptest::prelude::*;

fn run_fleet(replicas: usize, policy: RouterPolicy, caching: bool, rate: f64) -> FleetReport {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let cfg = session_fleet(replicas, policy).with_prefix_caching(caching);
    ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
        .unwrap()
        .run(
            &session_workload(rate),
            if replicas == 1 {
                SESSION_REQUESTS / 2
            } else {
                SESSION_REQUESTS
            },
            SESSION_SEED,
        )
        .unwrap()
}

/// The acceptance pin, engine half: on the seeded multi-turn session
/// scenario with identical arrivals, turning the prefix cache on strictly
/// reduces both the total prefilled tokens and the mean TTFT — follow-up
/// turns skip re-prefilling the conversation history.
#[test]
fn cache_on_strictly_reduces_prefill_and_ttft_on_sessions() {
    let off = run_fleet(1, RouterPolicy::RoundRobin, false, SESSION_ENGINE_RATE);
    let on = run_fleet(1, RouterPolicy::RoundRobin, true, SESSION_ENGINE_RATE);
    let (off, on) = (off.fleet.unwrap(), on.fleet.unwrap());

    assert!(
        on.prefilled_tokens < off.prefilled_tokens,
        "cache on must prefill strictly less: {} vs {}",
        on.prefilled_tokens,
        off.prefilled_tokens
    );
    assert!(
        on.ttft.mean < off.ttft.mean,
        "cache on must lower mean TTFT: {} vs {}",
        on.ttft.mean,
        off.ttft.mean
    );
    // The mechanism: a healthy block hit rate, with hits + misses +
    // unshareable tails accounting for every prompt token.
    assert!(
        on.prefix_hit_rate() > 0.5,
        "session turns should mostly hit ({:.2})",
        on.prefix_hit_rate()
    );
    assert_eq!(
        on.prefilled_tokens + on.prefix_hit_tokens,
        off.prefilled_tokens,
        "hits must exactly cover the prefill the cache skipped"
    );
    // Cache off is byte-identical to the pre-cache engine: no cache
    // metrics leak in.
    assert_eq!(off.prefix_hit_tokens + off.prefix_miss_tokens, 0);
}

/// The acceptance pin, fleet half: at the pinned overload rate, sticky
/// cache-affinity routing converts per-replica prefix reuse into strictly
/// higher SLO attainment than join-shortest-queue scatter — and the
/// mechanism (a higher fleet hit rate, fewer prefilled tokens) is
/// visible, not incidental.
#[test]
fn cache_affinity_beats_jsq_on_session_slo_attainment() {
    let affinity = run_fleet(4, RouterPolicy::CacheAffinity, true, SESSION_RATE);
    let jsq = run_fleet(4, RouterPolicy::JoinShortestQueue, true, SESSION_RATE);

    assert!(
        affinity.fleet_attainment() > jsq.fleet_attainment(),
        "CacheAffinity {:.3} must strictly beat JSQ {:.3}",
        affinity.fleet_attainment(),
        jsq.fleet_attainment()
    );
    let (aff_fleet, jsq_fleet) = (affinity.fleet.unwrap(), jsq.fleet.unwrap());
    assert!(
        aff_fleet.prefix_hit_rate() > 2.0 * jsq_fleet.prefix_hit_rate(),
        "locality must show in the hit rate: {:.2} vs {:.2}",
        aff_fleet.prefix_hit_rate(),
        jsq_fleet.prefix_hit_rate()
    );
    assert!(
        aff_fleet.prefilled_tokens < jsq_fleet.prefilled_tokens,
        "saved prefill is where the attainment comes from"
    );
    // Both fleets served the full pinned stream.
    assert_eq!(affinity.completed, SESSION_REQUESTS);
    assert_eq!(jsq.completed, SESSION_REQUESTS);
}

/// Routing determinism extends to the new policy: same seed, same
/// assignment trace and report; the pin table actually reacts to the
/// workload (a different seed moves sessions).
#[test]
fn cache_affinity_routing_is_deterministic() {
    let a = run_fleet(4, RouterPolicy::CacheAffinity, true, SESSION_RATE);
    let b = run_fleet(4, RouterPolicy::CacheAffinity, true, SESSION_RATE);
    assert_eq!(a.assignments, b.assignments);
    assert_eq!(a, b);

    // All turns of one session land on one replica unless spilled; with
    // a healthy spill threshold most sessions never move.
    let mix = session_workload(SESSION_RATE);
    let stream = mix.generate(SESSION_REQUESTS, SESSION_SEED);
    let mut replicas_of: HashMap<u64, Vec<usize>> = HashMap::new();
    for (cr, (id, replica)) in stream.iter().zip(&a.assignments) {
        assert_eq!(cr.request.id, *id);
        replicas_of
            .entry(cr.request.prefix_group.expect("session traffic"))
            .or_default()
            .push(replica.expect("no admission control"));
    }
    let pinned_whole_run = replicas_of
        .values()
        .filter(|r| r.iter().all(|&x| x == r[0]))
        .count();
    assert!(
        pinned_whole_run * 3 >= replicas_of.len() * 2,
        "most sessions must stay pinned: {} of {}",
        pinned_whole_run,
        replicas_of.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shared-block bookkeeping: blocks are charged once no matter how
    /// many holders; `resident == Σ unique live blocks`; releasing every
    /// holder makes everything evictable and eviction drains the cache
    /// to exactly zero (`free == budget − sum(live unique blocks)` at
    /// both extremes of the refcount lifecycle).
    #[test]
    fn shared_blocks_are_charged_once_and_drain_clean(
        groups in proptest::collection::vec(0u64..6, 12),
        lengths in proptest::collection::vec(1usize..40, 12),
    ) {
        let b = PREFIX_BLOCK_TOKENS;
        let mut cache = PrefixCache::new();
        let mut deepest: HashMap<u64, usize> = HashMap::new(); // group -> blocks
        let mut holders: Vec<(u64, usize)> = Vec::new(); // (group, held tokens)
        for (&group, &blocks) in groups.iter().zip(&lengths) {
            let want = blocks * b;
            let matched = cache.acquire(group, want + b - 1);
            prop_assert_eq!(
                matched,
                deepest.get(&group).copied().unwrap_or(0).min(blocks) * b,
                "a chain must match exactly its already-inserted prefix"
            );
            let fresh = cache.extend(group, matched, want);
            let known = deepest.entry(group).or_insert(0);
            let expect_fresh = blocks.saturating_sub(*known) * b;
            prop_assert_eq!(fresh, expect_fresh, "only unseen blocks are fresh");
            *known = (*known).max(blocks);
            holders.push((group, want));

            // The cardinal invariant: resident tokens == Σ unique live
            // blocks across groups, regardless of holder multiplicity.
            let unique: usize = deepest.values().sum();
            prop_assert_eq!(cache.resident_tokens(), unique * b);
        }

        // While held, nothing may be evicted.
        prop_assert_eq!(cache.evict(usize::MAX / 2), 0);

        // Release every holder: all blocks become evictable, and evicting
        // them reclaims exactly the resident population.
        for (group, held) in holders {
            cache.release(group, held);
        }
        let resident = cache.resident_tokens();
        prop_assert_eq!(cache.evictable_tokens(), resident);
        prop_assert_eq!(cache.evict(resident), resident);
        prop_assert_eq!(cache.resident_tokens(), 0);
        prop_assert_eq!(cache.evictable_tokens(), 0);
    }

    /// The KV-budget invariant under caching: across seeds, loads and KV
    /// scarcity, the resident token count (private contexts plus shared
    /// blocks, shared blocks counted once) never exceeds the budget at
    /// any step, every session turn completes, and after drain the only
    /// residue is retained cache blocks — `free == budget − resident
    /// cache tokens` with no private stragglers.
    #[test]
    fn kv_budget_holds_under_prefix_caching(
        seed in 0u64..1000,
        rate in 2.0f64..30.0,
        kv_fraction in 0.02f64..0.08,
        count in 20usize..60,
    ) {
        let arch = ador::baselines::ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(rate, 24)
            .with_kv_memory_fraction(kv_fraction)
            .with_prefix_caching(true);
        let sim = ServingSim::new(&arch, &model, Deployment::single_device(), cfg).unwrap();
        let budget = sim.kv_budget_tokens();
        let mut engine = sim.engine();

        let mix = TenantMix::new(vec![TenantClass::chat_sessions(1.0)])
            .with_aggregate_rate(rate);
        for cr in mix.generate(count, seed) {
            engine.submit(cr.request).unwrap();
        }
        loop {
            // The internal debug assertion (exercised by this debug-build
            // test) pins kv_in_use == Σ private + resident cache tokens;
            // here we pin the budget bound and the ledger's visible half.
            prop_assert!(
                engine.kv_in_use() <= budget,
                "kv_in_use {} over budget {}",
                engine.kv_in_use(),
                budget
            );
            prop_assert!(engine.prefix_resident_tokens() <= engine.kv_in_use());
            if engine.step().unwrap() == StepEvent::Idle {
                break;
            }
        }
        prop_assert_eq!(engine.completed(), count);
        prop_assert_eq!(
            engine.kv_in_use(),
            engine.prefix_resident_tokens(),
            "after drain, free == budget − retained cache blocks"
        );
    }
}
