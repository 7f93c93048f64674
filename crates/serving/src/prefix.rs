//! Prefix-aware KV cache reuse: a trie over token-block hashes with
//! refcounted shared blocks and LRU eviction.
//!
//! Production engines (vLLM's automatic prefix caching, SGLang's
//! RadixAttention) skip the prefill of prompt prefixes whose KV is already
//! resident — system prompts and multi-turn chat histories make this a
//! first-order lever on prefill cost. The simulator models the same
//! mechanism at token-block granularity:
//!
//! - A prompt's content is identified by its
//!   [`Request::prefix_group`](crate::Request::prefix_group): requests in
//!   the same group share a
//!   deterministic per-block hash chain, so a follow-up turn whose prompt
//!   extends the previous turn's context matches the previous turns'
//!   blocks exactly.
//! - Blocks live in a trie keyed by successive block hashes. Matching a
//!   prefix acquires a reference on every matched block; shared blocks are
//!   charged against the KV budget **once**, no matter how many live
//!   requests hold them.
//! - Blocks released by completed (or preempted) requests stay resident
//!   with refcount 0 until KV pressure evicts them, least-recently-used
//!   leaf first. Because every holder of a block also holds all its
//!   ancestors, a refcount-0 block never has a referenced descendant, so
//!   leaf-first eviction can always free the entire dead tail of a chain.
//! - The evictable leaves (resident, unreferenced, childless blocks) are
//!   kept in an ordered LRU index keyed by `(last_use, slot)`. The index
//!   changes only where a block's refcount crosses zero (acquire, extend,
//!   release) or an eviction exposes an unreferenced parent, so evicting
//!   one block costs `O(log n)` and never scans the trie.
//!
//! The cache deliberately owns no budget of its own: it shares the
//! engine's token-granular KV budget, and the [`Engine`](crate::Engine)
//! drives eviction (`evict`) before resorting to preemption.

use std::collections::{BTreeMap, BTreeSet};

use ador_spec::splitmix64;
use ador_units::conv;

/// Tokens per prefix-cache block. Matching, sharing and eviction all
/// happen at this granularity; a prompt's trailing partial block is never
/// shared.
pub const PREFIX_BLOCK_TOKENS: usize = 64;

/// Root sentinel index: the trie node that holds no block.
const ROOT: usize = 0;

/// Free-slot marker for recycled trie nodes.
const DEAD: u64 = u64::MAX;

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

/// One cached block: a node of the prefix trie.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
struct Node {
    /// Block hash (position in the owning group's chain is implied by
    /// trie depth). [`DEAD`] marks a recycled slab slot.
    hash: u64,
    parent: usize,
    /// Children keyed by block hash. A `BTreeMap` so any future walk
    /// of a node's children is order-defined (the determinism
    /// contract; see `ador-lint`) — lookups here are by exact hash.
    children: BTreeMap<u64, usize>,
    /// Live requests holding this block. Every holder of a block holds
    /// all its ancestors too, so `refs == 0` implies no descendant is
    /// referenced.
    refs: usize,
    /// Logical LRU clock value of the last acquire/insert touching this
    /// block.
    last_use: u64,
}

/// A trie of refcounted, LRU-evictable KV blocks shared across requests.
///
/// See the module-level docs above for the sharing and eviction model.
/// All sizes are in tokens; every resident block accounts for exactly
/// [`PREFIX_BLOCK_TOKENS`] of the engine's KV budget.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    /// Node slab; index [`ROOT`] is the sentinel root (no block).
    nodes: Vec<Node>,
    /// Recycled slab slots.
    free_slots: Vec<usize>,
    /// Live (resident) blocks.
    live: usize,
    /// Live blocks with `refs > 0`.
    referenced: usize,
    /// The evictable leaves — resident, unreferenced, childless, non-root
    /// slots — ordered by `(last_use, slot)`: the first entry is the next
    /// block [`PrefixCache::evict`] frees.
    lru: BTreeSet<(u64, usize)>,
    /// Logical clock for LRU ordering; bumped once per acquire/extend.
    clock: u64,
    stats: PrefixCacheStats,
}

impl Default for PrefixCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixCache {
    /// Handle of the empty prefix: the trie root, which holds no block.
    /// [`PrefixCache::release`] on it is a no-op, so requests that match
    /// nothing can hold it unconditionally.
    pub const ROOT: usize = ROOT;

    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            nodes: vec![Node {
                hash: 0,
                parent: ROOT,
                children: BTreeMap::new(),
                refs: 0,
                last_use: 0,
            }],
            free_slots: Vec::new(),
            live: 0,
            referenced: 0,
            lru: BTreeSet::new(),
            clock: 0,
            stats: PrefixCacheStats::default(),
        }
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

    /// Matches `group`'s hash chain against the trie, acquiring a
    /// reference on every matched block, and returns the matched token
    /// count plus the deepest matched node (the handle later passed to
    /// [`PrefixCache::extend`] and [`PrefixCache::release`]).
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
    pub fn acquire(&mut self, group: u64, want_tokens: usize) -> (usize, usize) {
        self.clock += 1;
        let want_blocks = want_tokens / PREFIX_BLOCK_TOKENS;
        let mut node = ROOT;
        let mut matched = 0usize;
        while matched < want_blocks {
            let Some(&child) = self.nodes[node].children.get(&block_hash(group, matched)) else {
                break;
            };
            node = child;
            self.hold(node);
            matched += 1;
        }
        (matched * PREFIX_BLOCK_TOKENS, node)
    }

    /// Records the outcome of one admission-time lookup in the lifetime
    /// counters: `hit_tokens` skipped by resident blocks, `miss_tokens`
    /// of shareable prompt that had to be prefilled.
    pub fn record_lookup(&mut self, hit_tokens: usize, miss_tokens: usize) {
        self.stats.hit_tokens += hit_tokens;
        self.stats.miss_tokens += miss_tokens;
    }

    /// Extends the chain held at `node` (depth `held_tokens /
    /// [`PREFIX_BLOCK_TOKENS`]`) with `group`'s blocks up to
    /// `context_tokens`, acquiring a reference on each. Returns the new
    /// deepest node and the tokens of **freshly created** blocks — blocks
    /// another request already inserted are deduplicated (the caller's
    /// private copy of those tokens is redundant and must be released
    /// from the KV ledger).
    ///
    /// The caller must hold `node` (or pass [`PrefixCache::ROOT`]): a held
    /// block is never an evictable leaf, so growing a child under it
    /// leaves the LRU index untouched.
    pub fn extend(
        &mut self,
        group: u64,
        node: usize,
        held_tokens: usize,
        context_tokens: usize,
    ) -> (usize, usize) {
        debug_assert!(
            node == ROOT || self.nodes[node].refs > 0,
            "extend needs a held chain"
        );
        self.clock += 1;
        let mut depth = held_tokens / PREFIX_BLOCK_TOKENS;
        debug_assert_eq!(held_tokens % PREFIX_BLOCK_TOKENS, 0);
        let target = context_tokens / PREFIX_BLOCK_TOKENS;
        let mut node = node;
        let mut fresh = 0usize;
        while depth < target {
            let hash = block_hash(group, depth);
            let child = match self.nodes[node].children.get(&hash) {
                Some(&c) => c,
                None => {
                    let c = self.alloc(hash, node);
                    self.nodes[node].children.insert(hash, c);
                    self.live += 1;
                    fresh += 1;
                    c
                }
            };
            node = child;
            self.hold(node);
            depth += 1;
        }
        (node, fresh * PREFIX_BLOCK_TOKENS)
    }

    /// Releases one reference on every block from `node` up to the root
    /// (the holder is dropping its whole chain). Released blocks stay
    /// resident until evicted; one whose last reference this drops
    /// joins the LRU index if it has no children.
    pub fn release(&mut self, mut node: usize) {
        while node != ROOT {
            let n = &mut self.nodes[node];
            debug_assert!(n.refs > 0, "prefix block released more times than held");
            n.refs -= 1;
            if n.refs == 0 {
                self.referenced -= 1;
                if n.children.is_empty() {
                    self.lru.insert((n.last_use, node));
                }
            }
            node = n.parent;
        }
    }

    /// Evicts least-recently-used unreferenced leaf blocks until at least
    /// `want_tokens` are freed or nothing evictable remains. Returns the
    /// tokens actually freed.
    ///
    /// Each block comes off the front of the LRU index, so blocks leave
    /// in `(last_use, slot)` order; evicting a leaf that exposes an
    /// unreferenced parent indexes the parent, so a whole dead chain
    /// drains in LRU order. `O(log n)` per evicted block, with no scan.
    pub fn evict(&mut self, want_tokens: usize) -> usize {
        let mut freed = 0usize;
        while freed < want_tokens {
            let Some((_, v)) = self.lru.pop_first() else {
                break;
            };
            let (hash, parent) = (self.nodes[v].hash, self.nodes[v].parent);
            self.nodes[parent].children.remove(&hash);
            self.nodes[v].hash = DEAD;
            self.free_slots.push(v);
            self.live -= 1;
            freed += PREFIX_BLOCK_TOKENS;
            self.stats.evicted_tokens += PREFIX_BLOCK_TOKENS;
            // The eviction may have exposed a new dead leaf above it.
            let p = &self.nodes[parent];
            if parent != ROOT && p.refs == 0 && p.children.is_empty() {
                self.lru.insert((p.last_use, parent));
            }
        }
        freed
    }

    /// Whether the LRU index equals its recompute-from-scratch definition
    /// (every resident, unreferenced, childless non-root slot) — the
    /// oracle debug builds check after every engine step.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn lru_matches_scan(&self) -> bool {
        let mut leaves = 0usize;
        for (slot, n) in self.nodes.iter().enumerate() {
            if slot != ROOT && n.hash != DEAD && n.refs == 0 && n.children.is_empty() {
                if !self.lru.contains(&(n.last_use, slot)) {
                    return false;
                }
                leaves += 1;
            }
        }
        leaves == self.lru.len()
    }

    /// Takes one reference on `node` and stamps it with the current clock.
    /// A block leaving refcount 0 stops being evictable.
    fn hold(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        if n.refs == 0 {
            self.referenced += 1;
            if n.children.is_empty() {
                self.lru.remove(&(n.last_use, node));
            }
        }
        n.refs += 1;
        n.last_use = self.clock;
    }

    fn alloc(&mut self, hash: u64, parent: usize) -> usize {
        let node = Node {
            hash,
            parent,
            children: BTreeMap::new(),
            refs: 0,
            last_use: self.clock,
        };
        match self.free_slots.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }
}

/// The deterministic content hash of `group`'s `index`-th token block:
/// [`splitmix64`] (the workspace's one definition, in `ador-spec`) over
/// the pair. Two requests share KV exactly where their groups and block
/// positions coincide — which is how a follow-up turn's prompt,
/// extending the previous turn's context, matches its blocks.
fn block_hash(group: u64, index: usize) -> u64 {
    splitmix64(
        group.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(
            conv::u64_from_usize(index)
                .wrapping_add(1)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: usize = PREFIX_BLOCK_TOKENS;

    #[test]
    fn cold_lookup_misses_and_insert_then_hits() {
        let mut c = PrefixCache::new();
        let (matched, node) = c.acquire(7, 4 * B);
        assert_eq!(matched, 0);
        assert_eq!(node, PrefixCache::ROOT);

        let (leaf, fresh) = c.extend(7, node, 0, 4 * B);
        assert_eq!(fresh, 4 * B);
        assert_eq!(c.resident_tokens(), 4 * B);
        assert_eq!(c.evictable_tokens(), 0, "holder still references blocks");

        // A second request of the same group now hits the whole span.
        let (matched, node2) = c.acquire(7, 4 * B + B - 1);
        assert_eq!(matched, 4 * B);
        assert_eq!(node2, leaf);
        // Shared blocks stay charged once.
        assert_eq!(c.resident_tokens(), 4 * B);
    }

    #[test]
    fn groups_do_not_share() {
        let mut c = PrefixCache::new();
        let (_, node) = c.acquire(1, 2 * B);
        c.extend(1, node, 0, 2 * B);
        let (matched, _) = c.acquire(2, 2 * B);
        assert_eq!(matched, 0, "distinct groups have distinct hash chains");
        assert_eq!(c.resident_tokens(), 2 * B);
    }

    #[test]
    fn partial_blocks_never_match() {
        let mut c = PrefixCache::new();
        let (_, node) = c.acquire(3, B);
        c.extend(3, node, 0, 3 * B);
        // Wanting less than one block matches nothing.
        let (matched, _) = c.acquire(3, B - 1);
        assert_eq!(matched, 0);
        // Wanting 2.5 blocks matches 2.
        let (matched, _) = c.acquire(3, 2 * B + B / 2);
        assert_eq!(matched, 2 * B);
    }

    #[test]
    fn release_makes_blocks_evictable_lru_leaf_first() {
        let mut c = PrefixCache::new();
        let (_, n) = c.acquire(1, 0);
        let (leaf1, _) = c.extend(1, n, 0, 3 * B);
        let (_, n) = c.acquire(2, 0);
        let (leaf2, _) = c.extend(2, n, 0, 2 * B);
        assert_eq!(c.resident_tokens(), 5 * B);
        assert_eq!(c.evictable_tokens(), 0);
        assert_eq!(c.evict(B), 0, "referenced blocks are not evictable");

        c.release(leaf1); // group 1 (older) fully dead
        assert_eq!(c.evictable_tokens(), 3 * B);
        // Touch group 2's chain so it is recent, then free it too.
        let (m, h2) = c.acquire(2, 2 * B);
        assert_eq!(m, 2 * B);
        c.release(h2);
        c.release(leaf2);
        assert_eq!(c.evictable_tokens(), 5 * B);

        // Evicting 3 blocks takes group 1's chain (least recently used),
        // leaf first, leaving group 2 intact.
        assert_eq!(c.evict(3 * B), 3 * B);
        let (matched, _) = c.acquire(2, 2 * B);
        assert_eq!(matched, 2 * B, "group 2 survived");
        let (matched, _) = c.acquire(1, 3 * B);
        assert_eq!(matched, 0, "group 1 was evicted");
    }

    #[test]
    fn eviction_never_frees_more_chains_than_needed() {
        let mut c = PrefixCache::new();
        let (_, n) = c.acquire(9, 0);
        let (leaf, _) = c.extend(9, n, 0, 4 * B);
        c.release(leaf);
        // Ask for half a block: one block is evicted (block granularity).
        assert_eq!(c.evict(B / 2), B);
        assert_eq!(c.resident_tokens(), 3 * B);
        // The surviving prefix still matches.
        let (matched, h) = c.acquire(9, 4 * B);
        assert_eq!(matched, 3 * B);
        c.release(h);
    }

    #[test]
    fn extend_deduplicates_concurrent_inserts() {
        let mut c = PrefixCache::new();
        let (_, a) = c.acquire(5, 0);
        let (_, b) = c.acquire(5, 0);
        let (_, fresh_a) = c.extend(5, a, 0, 3 * B);
        let (_, fresh_b) = c.extend(5, b, 0, 3 * B);
        assert_eq!(fresh_a, 3 * B);
        assert_eq!(fresh_b, 0, "second insert found every block resident");
        assert_eq!(c.resident_tokens(), 3 * B);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut c = PrefixCache::new();
        for round in 0..4u64 {
            let (_, n) = c.acquire(round, 0);
            let (leaf, _) = c.extend(round, n, 0, 2 * B);
            c.release(leaf);
            assert_eq!(c.evict(2 * B), 2 * B);
        }
        // 4 rounds of 2 blocks reused the same two slots (plus root).
        assert!(c.nodes.len() <= 3, "slab grew to {}", c.nodes.len());
        assert_eq!(c.resident_tokens(), 0);
        assert_eq!(c.stats().evicted_tokens, 8 * B);
    }

    /// The scan-and-heap evictor the LRU index replaced, kept as the
    /// reference the index must reproduce block for block: one slab scan
    /// per call seeds a min-heap of evictable leaves, and evicting a leaf
    /// that exposes its parent pushes the parent. It never touches the
    /// index, so only the slab of a cache it evicts is meaningful.
    fn evict_by_scan(c: &mut PrefixCache, want_tokens: usize) -> usize {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        if want_tokens == 0 || c.live == c.referenced {
            return 0;
        }
        let mut candidates: BinaryHeap<Reverse<(u64, usize)>> = c
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| i != ROOT && n.hash != DEAD && n.refs == 0 && n.children.is_empty())
            .map(|(i, n)| Reverse((n.last_use, i)))
            .collect();
        let mut freed = 0usize;
        while freed < want_tokens {
            let Some(Reverse((_, v))) = candidates.pop() else {
                break;
            };
            let (hash, parent) = (c.nodes[v].hash, c.nodes[v].parent);
            c.nodes[parent].children.remove(&hash);
            c.nodes[v].hash = DEAD;
            c.nodes[v].children = BTreeMap::new();
            c.free_slots.push(v);
            c.live -= 1;
            freed += PREFIX_BLOCK_TOKENS;
            c.stats.evicted_tokens += PREFIX_BLOCK_TOKENS;
            let p = &c.nodes[parent];
            if parent != ROOT && p.refs == 0 && p.children.is_empty() {
                candidates.push(Reverse((p.last_use, parent)));
            }
        }
        freed
    }

    /// Asserts two caches agree on everything eviction can change.
    fn assert_same_slab(reference: &PrefixCache, indexed: &PrefixCache, context: &str) {
        assert!(reference.nodes == indexed.nodes, "slab differs {context}");
        assert_eq!(reference.free_slots, indexed.free_slots, "{context}");
        assert_eq!(reference.live, indexed.live, "{context}");
        assert_eq!(reference.referenced, indexed.referenced, "{context}");
        assert_eq!(reference.stats, indexed.stats, "{context}");
    }

    #[test]
    fn lru_index_evicts_exactly_like_the_slab_scan() {
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
            // (group, held node, held tokens) per live holder.
            let mut holders: Vec<(u64, usize, usize)> = Vec::new();
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
                            reference.release(got.1);
                            indexed.release(got.1);
                        } else {
                            holders.push((group, got.1, got.0));
                        }
                    }
                    3 | 4 if !holders.is_empty() => {
                        let h = roll(holders.len());
                        let (group, node, held) = holders[h];
                        let to = held + roll(6) * B + roll(B);
                        let got = reference.extend(group, node, held, to);
                        assert_eq!(got, indexed.extend(group, node, held, to), "{context}");
                        holders[h] = (group, got.0, held.max(to / B * B));
                    }
                    5 | 6 if !holders.is_empty() => {
                        let (_, node, _) = holders.swap_remove(roll(holders.len()));
                        reference.release(node);
                        indexed.release(node);
                    }
                    _ => {
                        let want = roll(8) * B + roll(B);
                        let freed = evict_by_scan(&mut reference, want);
                        assert_eq!(freed, indexed.evict(want), "freed tokens {context}");
                        assert_same_slab(&reference, &indexed, &context);
                        evicted_calls += usize::from(freed > 0);
                    }
                }
                assert!(indexed.lru_matches_scan(), "index drifted {context}");
            }
            // Drain: release every holder, then evict everything.
            for (_, node, _) in holders {
                reference.release(node);
                indexed.release(node);
            }
            let all = indexed.resident_tokens();
            assert_eq!(evict_by_scan(&mut reference, all), indexed.evict(all));
            assert_same_slab(&reference, &indexed, &format!("(seed {seed}, drain)"));
            assert_eq!(indexed.resident_tokens(), 0);
            assert!(indexed.lru.is_empty() && indexed.lru_matches_scan());
        }
        assert!(evicted_calls > 100, "only {evicted_calls} evicting calls");
    }

    #[test]
    fn hit_rate_tracks_recorded_lookups() {
        let mut c = PrefixCache::new();
        let (matched, n) = c.acquire(1, 2 * B);
        c.record_lookup(matched, 2 * B - matched); // 2 blocks missed
        c.extend(1, n, 0, 2 * B);
        let (matched, _) = c.acquire(1, 2 * B);
        c.record_lookup(matched, 2 * B - matched); // 2 blocks hit
        assert_eq!(c.stats().hit_tokens, 2 * B);
        assert_eq!(c.stats().miss_tokens, 2 * B);
    }
}
