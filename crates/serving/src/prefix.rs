//! Prefix-aware KV cache reuse: one chain of refcounted token blocks per
//! prefix group, with LRU eviction of unreferenced chain tails.
//!
//! Production engines (vLLM's automatic prefix caching, SGLang's
//! RadixAttention) skip the prefill of prompt prefixes whose KV is already
//! resident — system prompts and multi-turn chat histories make this a
//! first-order lever on prefill cost. The simulator models the same
//! mechanism at token-block granularity:
//!
//! - A prompt's content is identified by its
//!   [`Request::prefix_group`](crate::Request::prefix_group): requests in
//!   the same group share one chain of blocks, block 0 first, so a
//!   follow-up turn whose prompt extends the previous turn's context
//!   matches the previous turns' blocks exactly. Requests of different
//!   groups share nothing, so the chains never branch.
//! - Matching a prefix acquires a reference on every matched block;
//!   shared blocks are charged against the KV budget **once**, no matter
//!   how many live requests hold them. A holder always holds a prefix of
//!   its group's chain, so a holder's handle is just the token count it
//!   holds.
//! - Blocks released by completed (or preempted) requests stay resident
//!   with refcount 0 until KV pressure evicts them, least-recently-used
//!   tail first. Because every holder of a block also holds every block
//!   before it, refcounts never grow along a chain: an unreferenced block
//!   has only unreferenced blocks after it, so tail-first eviction can
//!   always free a chain's entire dead end.
//! - The evictable tails (the last block of each chain, when
//!   unreferenced) are kept in an ordered LRU index keyed by
//!   `(last_use, group)`. The index changes only where a tail's refcount
//!   crosses zero (acquire, extend, release) or an eviction exposes an
//!   unreferenced block before it, so evicting one block costs
//!   `O(log n)` and never scans the chains.
//!
//! The cache deliberately owns no budget of its own: it shares the
//! engine's token-granular KV budget, and the [`Engine`](crate::Engine)
//! drives eviction (`evict`) before resorting to preemption.

use std::collections::{BTreeMap, BTreeSet};

/// Tokens per prefix-cache block. Matching, sharing and eviction all
/// happen at this granularity; a prompt's trailing partial block is never
/// shared.
pub const PREFIX_BLOCK_TOKENS: usize = 64;

/// Lifetime counters of a [`PrefixCache`], in tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixCacheStats {
    /// Prompt tokens whose prefill was skipped because their block was
    /// already resident at admission.
    pub hit_tokens: usize,
    /// Full-block prompt tokens looked up but not found (the shareable
    /// part of every cache-visible prompt that had to be prefilled).
    pub miss_tokens: usize,
    /// Tokens of cached blocks evicted under KV pressure.
    pub evicted_tokens: usize,
}

/// One cached block of a group's chain (its position is its index).
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
struct Block {
    /// Live requests holding this block. Every holder of a block holds
    /// every block before it too, so `refs` never grows along a chain.
    refs: usize,
    /// Logical LRU clock value of the last acquire/extend holding this
    /// block.
    last_use: u64,
}

/// Per-group chains of refcounted, LRU-evictable KV blocks shared across
/// requests.
///
/// See the module-level docs above for the sharing and eviction model.
/// All sizes are in tokens; every resident block accounts for exactly
/// [`PREFIX_BLOCK_TOKENS`] of the engine's KV budget.
#[derive(Debug, Clone, Default)]
pub struct PrefixCache {
    /// Each group's resident blocks, block 0 first. A group with no
    /// resident block has no entry.
    chains: BTreeMap<u64, Vec<Block>>,
    /// Live (resident) blocks.
    live: usize,
    /// Live blocks with `refs > 0`.
    referenced: usize,
    /// The evictable tails — each chain's last block when unreferenced —
    /// ordered by `(last_use, group)`: the first entry is the next block
    /// [`PrefixCache::evict`] frees.
    lru: BTreeSet<(u64, u64)>,
    /// Logical clock for LRU ordering; bumped once per acquire/extend.
    clock: u64,
    stats: PrefixCacheStats,
}

impl PrefixCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokens of all resident blocks (shared blocks counted once) — the
    /// cache's contribution to the engine's `kv_in_use`.
    pub fn resident_tokens(&self) -> usize {
        self.live * PREFIX_BLOCK_TOKENS
    }

    /// Tokens of resident blocks no live request references — what
    /// [`PrefixCache::evict`] could free right now.
    pub fn evictable_tokens(&self) -> usize {
        (self.live - self.referenced) * PREFIX_BLOCK_TOKENS
    }

    /// Lifetime hit/miss/evict/insert counters.
    pub fn stats(&self) -> PrefixCacheStats {
        self.stats
    }

    /// Matches `group`'s chain, acquiring a reference on every matched
    /// block, and returns the matched token count (the `held` tokens later
    /// passed to [`PrefixCache::extend`] and [`PrefixCache::release`]).
    ///
    /// At most `want_tokens` rounded down to whole blocks is matched; the
    /// engine passes `input_tokens - 1` so at least one prompt token is
    /// always recomputed (the token whose logits produce the first output
    /// token cannot be skipped).
    ///
    /// Hit/miss counters are **not** bumped here — the engine may roll an
    /// acquire back (via [`PrefixCache::release`]) when the matched job
    /// cannot be admitted this iteration, so it reports the lookup with
    /// [`PrefixCache::record_lookup`] only once admission sticks.
    pub fn acquire(&mut self, group: u64, want_tokens: usize) -> usize {
        self.clock += 1;
        let Some(chain) = self.chains.get_mut(&group) else {
            return 0;
        };
        let matched = chain.len().min(want_tokens / PREFIX_BLOCK_TOKENS);
        if matched == chain.len() {
            unindex_tail(&mut self.lru, group, chain);
        }
        self.referenced += hold(&mut chain[..matched], self.clock);
        matched * PREFIX_BLOCK_TOKENS
    }

    /// Records the outcome of one admission-time lookup in the lifetime
    /// counters: `hit_tokens` skipped by resident blocks, `miss_tokens`
    /// of shareable prompt that had to be prefilled.
    pub fn record_lookup(&mut self, hit_tokens: usize, miss_tokens: usize) {
        self.stats.hit_tokens += hit_tokens;
        self.stats.miss_tokens += miss_tokens;
    }

    /// Extends the `held_tokens` of `group`'s chain a holder references
    /// with the group's blocks up to `context_tokens`, acquiring a
    /// reference on each. Returns the tokens of **freshly created**
    /// blocks — blocks another request already inserted are deduplicated
    /// (the caller's private copy of those tokens is redundant and must be
    /// released from the KV ledger).
    ///
    /// The caller must hold its `held_tokens` (a whole number of blocks),
    /// so only the resident blocks past them can be unreferenced.
    pub fn extend(&mut self, group: u64, held_tokens: usize, context_tokens: usize) -> usize {
        debug_assert_eq!(held_tokens % PREFIX_BLOCK_TOKENS, 0);
        self.clock += 1;
        let held = held_tokens / PREFIX_BLOCK_TOKENS;
        let target = context_tokens / PREFIX_BLOCK_TOKENS;
        if target <= held {
            return 0;
        }
        let chain = self.chains.entry(group).or_default();
        debug_assert!(
            held == 0 || chain.get(held - 1).is_some_and(|b| b.refs > 0),
            "extend needs a held chain"
        );
        let resident = chain.len().min(target);
        if resident == chain.len() {
            unindex_tail(&mut self.lru, group, chain);
        }
        self.referenced += hold(&mut chain[held..resident], self.clock);
        let fresh = target - resident;
        let block = Block {
            refs: 1,
            last_use: self.clock,
        };
        chain.resize(chain.len() + fresh, block);
        self.live += fresh;
        self.referenced += fresh;
        fresh * PREFIX_BLOCK_TOKENS
    }

    /// Releases one reference on each of the first `held_tokens` of
    /// `group`'s chain (the holder is dropping its whole hold). Released
    /// blocks stay resident until evicted; a chain tail whose last
    /// reference this drops joins the LRU index.
    pub fn release(&mut self, group: u64, held_tokens: usize) {
        let held = held_tokens / PREFIX_BLOCK_TOKENS;
        let Some(chain) = self.chains.get_mut(&group) else {
            debug_assert_eq!(held, 0, "released blocks that are not resident");
            return;
        };
        for b in &mut chain[..held] {
            debug_assert!(b.refs > 0, "prefix block released more times than held");
            b.refs -= 1;
            self.referenced -= usize::from(b.refs == 0);
        }
        if held == chain.len() {
            index_tail(&mut self.lru, group, chain);
        }
    }

    /// Evicts least-recently-used unreferenced chain tails until at least
    /// `want_tokens` are freed or nothing evictable remains. Returns the
    /// tokens actually freed.
    ///
    /// Each block comes off the front of the LRU index, so blocks leave
    /// in `(last_use, group)` order; evicting a tail that exposes an
    /// unreferenced block before it indexes that block, so a whole dead
    /// chain end drains in LRU order, and a drained chain leaves the map.
    /// `O(log n)` per evicted block, with no scan.
    pub fn evict(&mut self, want_tokens: usize) -> usize {
        let mut freed = 0usize;
        while freed < want_tokens {
            let Some((_, group)) = self.lru.pop_first() else {
                break;
            };
            // ador-lint: allow(panic) — invariant: an indexed tail's chain is resident
            let chain = self.chains.get_mut(&group).expect("indexed chain");
            chain.pop();
            self.live -= 1;
            freed += PREFIX_BLOCK_TOKENS;
            self.stats.evicted_tokens += PREFIX_BLOCK_TOKENS;
            if chain.is_empty() {
                self.chains.remove(&group);
            } else {
                // The eviction may have exposed a new dead tail before it.
                index_tail(&mut self.lru, group, chain);
            }
        }
        freed
    }

    /// Whether no chain is empty and the LRU index equals its
    /// recompute-from-scratch definition (every chain tail with
    /// refcount 0) — the oracle debug builds check after every engine
    /// step.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn lru_matches_scan(&self) -> bool {
        let mut tails = 0usize;
        for (&group, chain) in &self.chains {
            let Some(tail) = chain.last() else {
                return false;
            };
            if tail.refs == 0 {
                if !self.lru.contains(&(tail.last_use, group)) {
                    return false;
                }
                tails += 1;
            }
        }
        tails == self.lru.len()
    }
}

/// Takes one reference on every block of `blocks`, stamping each with
/// `clock`, and returns how many of them left refcount 0.
fn hold(blocks: &mut [Block], clock: u64) -> usize {
    let mut woken = 0usize;
    for b in blocks {
        woken += usize::from(b.refs == 0);
        b.refs += 1;
        b.last_use = clock;
    }
    woken
}

/// Indexes `group`'s tail in `lru` if it is unreferenced.
fn index_tail(lru: &mut BTreeSet<(u64, u64)>, group: u64, chain: &[Block]) {
    if let Some(tail) = chain.last().filter(|t| t.refs == 0) {
        lru.insert((tail.last_use, group));
    }
}

/// Drops `group`'s tail from `lru` if it is unreferenced (about to be
/// held, so no longer evictable).
fn unindex_tail(lru: &mut BTreeSet<(u64, u64)>, group: u64, chain: &[Block]) {
    if let Some(tail) = chain.last().filter(|t| t.refs == 0) {
        lru.remove(&(tail.last_use, group));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_spec::splitmix64;

    const B: usize = PREFIX_BLOCK_TOKENS;

    #[test]
    fn cold_lookup_misses_and_insert_then_hits() {
        let mut c = PrefixCache::new();
        let matched = c.acquire(7, 4 * B);
        assert_eq!(matched, 0);

        let fresh = c.extend(7, matched, 4 * B);
        assert_eq!(fresh, 4 * B);
        assert_eq!(c.resident_tokens(), 4 * B);
        assert_eq!(c.evictable_tokens(), 0, "holder still references blocks");

        // A second request of the same group now hits the whole span.
        let matched = c.acquire(7, 4 * B + B - 1);
        assert_eq!(matched, 4 * B);
        // Shared blocks stay charged once.
        assert_eq!(c.resident_tokens(), 4 * B);
    }

    #[test]
    fn groups_do_not_share() {
        let mut c = PrefixCache::new();
        let held = c.acquire(1, 2 * B);
        c.extend(1, held, 2 * B);
        let matched = c.acquire(2, 2 * B);
        assert_eq!(matched, 0, "distinct groups have distinct chains");
        assert_eq!(c.resident_tokens(), 2 * B);
    }

    #[test]
    fn partial_blocks_never_match() {
        let mut c = PrefixCache::new();
        let held = c.acquire(3, B);
        c.extend(3, held, 3 * B);
        // Wanting less than one block matches nothing.
        assert_eq!(c.acquire(3, B - 1), 0);
        // Wanting 2.5 blocks matches 2.
        assert_eq!(c.acquire(3, 2 * B + B / 2), 2 * B);
    }

    #[test]
    fn release_makes_blocks_evictable_lru_tail_first() {
        let mut c = PrefixCache::new();
        c.acquire(1, 0);
        c.extend(1, 0, 3 * B);
        c.acquire(2, 0);
        c.extend(2, 0, 2 * B);
        assert_eq!(c.resident_tokens(), 5 * B);
        assert_eq!(c.evictable_tokens(), 0);
        assert_eq!(c.evict(B), 0, "referenced blocks are not evictable");

        c.release(1, 3 * B); // group 1 (older) fully dead
        assert_eq!(c.evictable_tokens(), 3 * B);
        // Touch group 2's chain so it is recent, then free it too.
        let m = c.acquire(2, 2 * B);
        assert_eq!(m, 2 * B);
        c.release(2, m);
        c.release(2, 2 * B);
        assert_eq!(c.evictable_tokens(), 5 * B);

        // Evicting 3 blocks takes group 1's chain (least recently used),
        // tail first, leaving group 2 intact.
        assert_eq!(c.evict(3 * B), 3 * B);
        assert_eq!(c.acquire(2, 2 * B), 2 * B, "group 2 survived");
        assert_eq!(c.acquire(1, 3 * B), 0, "group 1 was evicted");
    }

    #[test]
    fn eviction_never_frees_more_chains_than_needed() {
        let mut c = PrefixCache::new();
        c.acquire(9, 0);
        c.extend(9, 0, 4 * B);
        c.release(9, 4 * B);
        // Ask for half a block: one block is evicted (block granularity).
        assert_eq!(c.evict(B / 2), B);
        assert_eq!(c.resident_tokens(), 3 * B);
        // The surviving prefix still matches.
        let matched = c.acquire(9, 4 * B);
        assert_eq!(matched, 3 * B);
        c.release(9, matched);
    }

    #[test]
    fn extend_deduplicates_concurrent_inserts() {
        let mut c = PrefixCache::new();
        let a = c.acquire(5, 0);
        let b = c.acquire(5, 0);
        let fresh_a = c.extend(5, a, 3 * B);
        let fresh_b = c.extend(5, b, 3 * B);
        assert_eq!(fresh_a, 3 * B);
        assert_eq!(fresh_b, 0, "second insert found every block resident");
        assert_eq!(c.resident_tokens(), 3 * B);
    }

    #[test]
    fn a_drained_chain_leaves_no_map_entry() {
        let mut c = PrefixCache::new();
        for round in 0..4u64 {
            c.acquire(round, 0);
            c.extend(round, 0, 2 * B);
            c.release(round, 2 * B);
            // A partly evicted chain keeps its entry...
            assert_eq!(c.evict(B), B);
            assert_eq!(c.chains.len(), 1);
            // ...and a drained one leaves none behind.
            assert_eq!(c.evict(B), B);
            assert!(c.chains.is_empty(), "round {round} left {:?}", c.chains);
            assert!(c.lru.is_empty() && c.lru_matches_scan());
        }
        // A missed and rolled-back acquire or an empty extend creates no
        // entry either.
        let matched = c.acquire(9, 4 * B);
        c.release(9, matched);
        assert_eq!(c.extend(9, 0, B - 1), 0);
        assert!(c.chains.is_empty());
        assert_eq!(c.resident_tokens(), 0);
        assert_eq!(c.stats().evicted_tokens, 8 * B);
    }

    /// A reference evictor that keeps no index: each evicted block is the
    /// oldest unreferenced chain tail, found by scanning every chain. It
    /// never touches the index, so only the chains and counters of a
    /// cache it evicts are meaningful.
    fn evict_by_scan(c: &mut PrefixCache, want_tokens: usize) -> usize {
        let mut freed = 0usize;
        while freed < want_tokens {
            let oldest = c
                .chains
                .iter()
                .filter_map(|(&group, chain)| chain.last().map(|tail| (tail, group)))
                .filter(|(tail, _)| tail.refs == 0)
                .map(|(tail, group)| (tail.last_use, group))
                .min();
            let Some((_, group)) = oldest else {
                break;
            };
            let chain = c.chains.get_mut(&group).expect("scanned chain");
            chain.pop();
            if chain.is_empty() {
                c.chains.remove(&group);
            }
            c.live -= 1;
            freed += PREFIX_BLOCK_TOKENS;
            c.stats.evicted_tokens += PREFIX_BLOCK_TOKENS;
        }
        freed
    }

    /// Asserts two caches agree on everything eviction can change.
    fn assert_same_chains(reference: &PrefixCache, indexed: &PrefixCache, context: &str) {
        assert_eq!(reference.chains, indexed.chains, "{context}");
        assert_eq!(reference.live, indexed.live, "{context}");
        assert_eq!(reference.referenced, indexed.referenced, "{context}");
        assert_eq!(reference.stats, indexed.stats, "{context}");
    }

    #[test]
    fn lru_index_evicts_exactly_like_the_tail_scan() {
        // Seeded random acquire / extend / release / evict sequences over
        // a few groups, so holders share prefixes and acquires are rolled
        // back, driven through two clones of one cache: one evicts with
        // the reference scan, the other with the index.
        let mut evicted_calls = 0usize;
        for seed in 0..24u64 {
            let mut state = splitmix64(seed);
            let mut roll = |n: usize| {
                state = splitmix64(state);
                (state % n as u64) as usize
            };
            let mut reference = PrefixCache::new();
            let mut indexed = reference.clone();
            // (group, held tokens) per live holder.
            let mut holders: Vec<(u64, usize)> = Vec::new();
            for op in 0..400 {
                let context = format!("(seed {seed}, op {op})");
                match roll(10) {
                    0..=2 => {
                        let group = roll(4) as u64;
                        let want = roll(12) * B + roll(B);
                        let got = reference.acquire(group, want);
                        assert_eq!(got, indexed.acquire(group, want), "{context}");
                        if roll(3) == 0 {
                            // Admission rollback: the acquire is undone.
                            reference.release(group, got);
                            indexed.release(group, got);
                        } else {
                            holders.push((group, got));
                        }
                    }
                    3 | 4 if !holders.is_empty() => {
                        let h = roll(holders.len());
                        let (group, held) = holders[h];
                        let to = held + roll(6) * B + roll(B);
                        let got = reference.extend(group, held, to);
                        assert_eq!(got, indexed.extend(group, held, to), "{context}");
                        holders[h] = (group, held.max(to / B * B));
                    }
                    5 | 6 if !holders.is_empty() => {
                        let (group, held) = holders.swap_remove(roll(holders.len()));
                        reference.release(group, held);
                        indexed.release(group, held);
                    }
                    _ => {
                        let want = roll(8) * B + roll(B);
                        let freed = evict_by_scan(&mut reference, want);
                        assert_eq!(freed, indexed.evict(want), "freed tokens {context}");
                        assert_same_chains(&reference, &indexed, &context);
                        evicted_calls += usize::from(freed > 0);
                    }
                }
                assert!(indexed.lru_matches_scan(), "index drifted {context}");
            }
            // Drain: release every holder, then evict everything.
            for (group, held) in holders {
                reference.release(group, held);
                indexed.release(group, held);
            }
            let all = indexed.resident_tokens();
            assert_eq!(evict_by_scan(&mut reference, all), indexed.evict(all));
            assert_same_chains(&reference, &indexed, &format!("(seed {seed}, drain)"));
            assert_eq!(indexed.resident_tokens(), 0);
            assert!(indexed.chains.is_empty());
            assert!(indexed.lru.is_empty() && indexed.lru_matches_scan());
        }
        assert!(evicted_calls > 100, "only {evicted_calls} evicting calls");
    }

    #[test]
    fn hit_rate_tracks_recorded_lookups() {
        let mut c = PrefixCache::new();
        let matched = c.acquire(1, 2 * B);
        c.record_lookup(matched, 2 * B - matched); // 2 blocks missed
        c.extend(1, matched, 2 * B);
        let matched = c.acquire(1, 2 * B);
        c.record_lookup(matched, 2 * B - matched); // 2 blocks hit
        assert_eq!(c.stats().hit_tokens, 2 * B);
        assert_eq!(c.stats().miss_tokens, 2 * B);
    }
}
