//! The catalog-owned, cross-query plan cache.
//!
//! Theorem 1 turns a nice, strong query graph into an unambiguous plan
//! key: every implementing tree of the graph is equivalent, so a
//! memoized subplan for a connected [`RelSet`] is reusable by *any*
//! query whose graph matches — not just a repeat of the same SQL
//! string, but any alpha-equivalent phrasing (different association,
//! different From-List order). The cache therefore keys on
//! `(`[`GraphSignature`]`, `[`RelSet`]`)` and is
//! owned by the [`Catalog`](super::stats::Catalog), whose `epoch`
//! counter ties cached plans to the statistics they were costed
//! against: every stats mutation bumps the epoch, and entries from
//! older epochs are evicted lazily on their next lookup.
//!
//! ## Canonical node numbering
//!
//! The optimizer plans only canonical graphs
//! ([`QueryGraph::canonical`]): nodes numbered by relation name, edges
//! and predicates in one spelling. A query is canonicalized once, where
//! it enters, so the signature hashes the graph as it stands and a
//! `RelSet` is already a key — alpha-equivalent queries collide, which
//! is the point. The strongness [`Policy`](crate::reorder::Policy) is
//! not part of the key: it decides only whether the DP runs, never what
//! it returns.

use super::dp::{Entry, Plan};
use fro_algebra::{RelId, RelSet, SigHash, StableHasher};
use fro_exec::PhysPlan;
use fro_graph::{EdgeKind, QueryGraph};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A stable structural hash of a canonical query graph: relation names,
/// edge kinds, outerjoin directions, and predicate shapes (including
/// literals — cached plans embed them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphSignature(u64);

impl GraphSignature {
    /// The raw 64-bit digest.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for GraphSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Compute a canonical graph's ([`QueryGraph::canonical`]) signature,
/// hashing nodes and edges in the order the canonical form keeps them.
#[must_use]
pub fn graph_signature(g: &QueryGraph) -> GraphSignature {
    let mut h = StableHasher::new();
    h.write_u64(g.n_nodes() as u64);
    for name in g.node_names() {
        h.write_str(name);
    }
    h.write_u64(g.edges().len() as u64);
    for e in g.edges() {
        h.write_u8(match e.kind() {
            EdgeKind::Join => 0,
            EdgeKind::OuterJoin => 1,
        });
        h.write_u64(e.a() as u64);
        h.write_u64(e.b() as u64);
        e.pred().sig_hash(&mut h);
    }
    GraphSignature(h.finish())
}

/// A memoized per-subset winner: the materialized plan subtree and the
/// arithmetic the DP needs to splice it back in.
#[derive(Debug, Clone)]
pub(crate) struct CachedEntry {
    /// The winning physical subplan for the subset.
    pub plan: PhysPlan,
    /// Its estimated cost (tuples touched).
    pub cost: f64,
    /// Its estimated output cardinality.
    pub rows: f64,
    /// `Some(id)` when the plan is a bare scan of a catalog base table
    /// (the index-join inner-side precondition).
    pub base: Option<RelId>,
    /// Catalog epoch the entry was costed under.
    epoch: u64,
}

impl CachedEntry {
    pub(crate) fn new(
        plan: PhysPlan,
        cost: f64,
        rows: f64,
        base: Option<RelId>,
        epoch: u64,
    ) -> CachedEntry {
        CachedEntry {
            plan,
            cost,
            rows,
            base,
            epoch,
        }
    }

    pub(crate) fn to_entry(&self) -> Entry {
        Entry {
            plan: Plan::Built(self.plan.clone()),
            cost: self.cost,
            rows: self.rows,
            base: self.base,
        }
    }
}

/// Hit/miss accounting, both per-optimization (in
/// [`Optimized`](super::Optimized)) and cumulative (in the cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing (stale entries count here too).
    pub misses: u64,
    /// Entries dropped by the capacity bound.
    pub evictions: u64,
    /// Entries dropped lazily because their epoch was stale.
    pub stale: u64,
}

impl CacheStats {
    /// Fold another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.stale += other.stale;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} stale={}",
            self.hits, self.misses, self.evictions, self.stale
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    sig: GraphSignature,
    set: u64,
}

#[derive(Debug)]
struct Slot {
    entry: Arc<CachedEntry>,
    /// Global recency tick at last touch. Atomic so the hit path can
    /// refresh it under a shard *read* lock.
    last_used: AtomicU64,
}

impl Clone for Slot {
    fn clone(&self) -> Slot {
        Slot {
            entry: Arc::clone(&self.entry),
            last_used: AtomicU64::new(self.last_used.load(Ordering::Relaxed)),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Shard {
    map: HashMap<CacheKey, Slot>,
}

/// Default capacity: plenty for thousands of distinct subplans while
/// bounding a long-lived session's footprint.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 4096;

/// Most shards a cache will spread across.
const MAX_SHARDS: usize = 16;

/// Don't bother sharding below this many entries per shard — a tiny
/// cache behaves exactly like the old single-lock one (which the
/// eviction tests rely on).
const MIN_ENTRIES_PER_SHARD: usize = 64;

/// The bounded, epoch-aware subplan cache. Interior-mutable so the
/// optimizer can consult it through the `&Catalog` it already holds —
/// and shared-state so *concurrent* sessions can, too: the key space
/// is split across `RwLock`-per-shard maps (shard count fixed at
/// construction, scaled to capacity), the recency tick and the
/// cumulative counters are atomics, and a warm hit touches nothing but
/// one shard's read lock. Write locks are taken only for inserts and
/// stale-entry removal, and never held across user code.
#[derive(Debug)]
pub(crate) struct PlanCache {
    shards: Box<[RwLock<Shard>]>,
    /// Per-shard entry bound (total capacity ÷ shard count).
    shard_capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale: AtomicU64,
}

impl PlanCache {
    /// An empty cache with the default capacity.
    #[must_use]
    pub fn new() -> PlanCache {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// An empty cache holding at most `capacity` entries, spread over
    /// `min(16, capacity/64)` (next power of two, at least 1) shards.
    #[must_use]
    pub(crate) fn with_capacity(capacity: usize) -> PlanCache {
        let capacity = capacity.max(1);
        let n_shards = (capacity / MIN_ENTRIES_PER_SHARD)
            .next_power_of_two()
            .clamp(1, MAX_SHARDS);
        let shards: Vec<RwLock<Shard>> = (0..n_shards).map(|_| RwLock::default()).collect();
        PlanCache {
            shards: shards.into_boxed_slice(),
            shard_capacity: capacity.div_ceil(n_shards).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        // sig is already a 64-bit hash; fold in the set so one graph's
        // subplans spread across shards.
        let mix = key
            .sig
            .as_u64()
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
            ^ key.set;
        // Shard count is a power of two.
        (mix as usize) & (self.shards.len() - 1)
    }

    fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, Shard> {
        self.shards[i]
            .read()
            .expect("plan cache lock never poisoned")
    }

    fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, Shard> {
        self.shards[i]
            .write()
            .expect("plan cache lock never poisoned")
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Look up the subplan for `set` of the graph `sig`, against the
    /// caller's catalog `epoch`. A stale entry (older epoch) is removed and
    /// reported as a miss; `local` receives the per-call accounting.
    /// Hits and clean misses resolve under the shard's read lock; only
    /// a stale entry escalates to the write lock for removal.
    ///
    /// The cache outlives catalog generations, so the caller may be a
    /// reader still planning against an *older* generation than the
    /// entry's: that is a plain miss — the entry stays for the readers
    /// it is current for.
    pub(crate) fn lookup(
        &self,
        sig: GraphSignature,
        set: RelSet,
        epoch: u64,
        local: &mut CacheStats,
    ) -> Option<Arc<CachedEntry>> {
        let key = CacheKey {
            sig,
            set: set.bits(),
        };
        let tick = self.next_tick();
        let shard = self.shard_of(&key);
        {
            let guard = self.read_shard(shard);
            match guard.map.get(&key) {
                Some(slot) if slot.entry.epoch == epoch => {
                    slot.last_used.store(tick, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    local.hits += 1;
                    return Some(Arc::clone(&slot.entry));
                }
                Some(slot) if slot.entry.epoch < epoch => {} // stale: escalate to the write lock
                _ => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    local.misses += 1;
                    return None;
                }
            }
        }
        let mut guard = self.write_shard(shard);
        // Re-check: the entry may have been refreshed or removed
        // between dropping the read lock and acquiring the write lock.
        match guard.map.get(&key) {
            Some(slot) if slot.entry.epoch == epoch => {
                slot.last_used.store(tick, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                local.hits += 1;
                Some(Arc::clone(&slot.entry))
            }
            Some(slot) if slot.entry.epoch < epoch => {
                guard.map.remove(&key);
                self.stale.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                local.stale += 1;
                local.misses += 1;
                None
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                local.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) the winner for `set`. At its shard's
    /// capacity, the least-recently-used quarter of that shard is
    /// evicted in one batch — LRU-ish: strict recency order inside the
    /// batch, amortized O(1) per insert. A plan costed under an older
    /// epoch than the one already cached (a reader on a superseded
    /// generation) is not stored.
    pub(crate) fn insert(
        &self,
        sig: GraphSignature,
        set: RelSet,
        entry: Arc<CachedEntry>,
        local: &mut CacheStats,
    ) {
        let key = CacheKey {
            sig,
            set: set.bits(),
        };
        let tick = self.next_tick();
        let capacity = self.shard_capacity;
        let mut guard = self.write_shard(self.shard_of(&key));
        if guard
            .map
            .get(&key)
            .is_some_and(|slot| slot.entry.epoch > entry.epoch)
        {
            return;
        }
        if guard.map.len() >= capacity && !guard.map.contains_key(&key) {
            let mut ages: Vec<(u64, CacheKey)> = guard
                .map
                .iter()
                .map(|(k, s)| (s.last_used.load(Ordering::Relaxed), *k))
                .collect();
            ages.sort_unstable_by_key(|&(t, _)| t);
            let drop_n = (capacity / 4).max(1);
            for (_, k) in ages.into_iter().take(drop_n) {
                guard.map.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                local.evictions += 1;
            }
        }
        guard.map.insert(
            key,
            Slot {
                entry,
                last_used: AtomicU64::new(tick),
            },
        );
    }

    /// Cumulative statistics since construction (or the last clear).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
        }
    }

    /// Drop every entry and reset the statistics.
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            self.write_shard(i).map.clear();
        }
        self.tick.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.stale.store(0, Ordering::Relaxed);
    }
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new()
    }
}

impl Clone for PlanCache {
    fn clone(&self) -> PlanCache {
        let stats = self.stats();
        let shards: Vec<RwLock<Shard>> = (0..self.shards.len())
            .map(|i| RwLock::new(self.read_shard(i).clone()))
            .collect();
        PlanCache {
            shards: shards.into_boxed_slice(),
            shard_capacity: self.shard_capacity,
            tick: AtomicU64::new(self.tick.load(Ordering::Relaxed)),
            hits: AtomicU64::new(stats.hits),
            misses: AtomicU64::new(stats.misses),
            evictions: AtomicU64::new(stats.evictions),
            stale: AtomicU64::new(stats.stale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Pred;

    fn chain(names: &[&str]) -> QueryGraph {
        let mut g = QueryGraph::new(names.iter().map(|s| (*s).to_owned()).collect());
        for i in 0..names.len() - 1 {
            g.add_join_edge(
                i,
                i + 1,
                Pred::eq_attr(&format!("{}.k", names[i]), &format!("{}.k", names[i + 1])),
            )
            .unwrap();
        }
        g
    }

    #[test]
    fn alpha_equivalent_graphs_share_a_signature() {
        // Same tables and edges, nodes listed in a different order.
        let g1 = chain(&["A", "B", "C"]);
        let mut g2 = QueryGraph::new(vec!["C".into(), "A".into(), "B".into()]);
        g2.add_join_edge(1, 2, Pred::eq_attr("A.k", "B.k")).unwrap();
        g2.add_join_edge(2, 0, Pred::eq_attr("C.k", "B.k")).unwrap();
        assert_eq!(graph_signature(&g1), graph_signature(&g2.canonical()));
    }

    #[test]
    fn different_structure_different_signature() {
        let join = chain(&["A", "B"]);
        let mut oj = QueryGraph::new(vec!["A".into(), "B".into()]);
        oj.add_outerjoin_edge(0, 1, Pred::eq_attr("A.k", "B.k"))
            .unwrap();
        let mut oj_rev = QueryGraph::new(vec!["A".into(), "B".into()]);
        oj_rev
            .add_outerjoin_edge(1, 0, Pred::eq_attr("A.k", "B.k"))
            .unwrap();
        let s = |g: &QueryGraph| graph_signature(&g.canonical());
        // Join vs outerjoin, and the two outerjoin directions, all
        // differ.
        assert_ne!(s(&join), s(&oj));
        assert_ne!(s(&oj), s(&oj_rev));
        // Different predicate shape differs too.
        let mut theta = QueryGraph::new(vec!["A".into(), "B".into()]);
        theta
            .add_join_edge(0, 1, Pred::cmp_attr("A.k", fro_algebra::CmpOp::Lt, "B.k"))
            .unwrap();
        assert_ne!(s(&join), s(&theta));
    }

    #[test]
    fn lookup_miss_then_hit_then_stale() {
        let g = chain(&["A", "B"]);
        let sig = graph_signature(&g);
        let cache = PlanCache::new();
        let set = RelSet::full(2);
        let mut local = CacheStats::default();
        assert!(cache.lookup(sig, set, 1, &mut local).is_none());
        let entry = Arc::new(CachedEntry {
            plan: PhysPlan::scan("A"),
            cost: 1.0,
            rows: 1.0,
            base: None,
            epoch: 1,
        });
        cache.insert(sig, set, entry, &mut local);
        assert!(cache.lookup(sig, set, 1, &mut local).is_some());
        // Epoch bump: the entry is stale, dropped lazily.
        assert!(cache.lookup(sig, set, 2, &mut local).is_none());
        assert_eq!(local.hits, 1);
        assert_eq!(local.misses, 2);
        assert_eq!(local.stale, 1);
        let live: usize = (0..cache.shards.len())
            .map(|i| cache.read_shard(i).map.len())
            .sum();
        assert_eq!(live, 0, "the stale entry was dropped");
        let global = cache.stats();
        assert_eq!(global.hits, 1);
        assert_eq!(global.stale, 1);
    }

    #[test]
    fn readers_on_an_older_generation_neither_evict_nor_overwrite() {
        let g = chain(&["A", "B"]);
        let sig = graph_signature(&g);
        let cache = PlanCache::new();
        let set = RelSet::full(2);
        let mut local = CacheStats::default();
        let at = |epoch, cost| {
            Arc::new(CachedEntry {
                plan: PhysPlan::scan("A"),
                cost,
                rows: 1.0,
                base: None,
                epoch,
            })
        };
        cache.insert(sig, set, at(5, 5.0), &mut local);
        // A reader still at epoch 4 misses without disturbing the entry
        // and cannot replace it with its older plan.
        assert!(cache.lookup(sig, set, 4, &mut local).is_none());
        cache.insert(sig, set, at(4, 4.0), &mut local);
        assert_eq!(local.stale, 0);
        let hit = cache.lookup(sig, set, 5, &mut local).expect("still cached");
        assert!((hit.cost - 5.0).abs() < f64::EPSILON);
        assert_eq!((local.hits, local.misses), (1, 1));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let g = chain(&["A", "B", "C", "D"]);
        let sig = graph_signature(&g);
        let cache = PlanCache::with_capacity(4);
        let mut local = CacheStats::default();
        let mk = || {
            Arc::new(CachedEntry {
                plan: PhysPlan::scan("A"),
                cost: 1.0,
                rows: 1.0,
                base: None,
                epoch: 0,
            })
        };
        let sets: Vec<RelSet> = (0..4).map(RelSet::singleton).collect();
        for &s in &sets {
            cache.insert(sig, s, mk(), &mut local);
        }
        // Touch everything but the first, then overflow.
        for &s in &sets[1..] {
            assert!(cache.lookup(sig, s, 0, &mut local).is_some());
        }
        cache.insert(sig, RelSet::full(4), mk(), &mut local);
        assert!(local.evictions >= 1);
        // The untouched entry was in the evicted batch.
        let mut probe = CacheStats::default();
        assert!(cache.lookup(sig, sets[0], 0, &mut probe).is_none());
        assert!(cache.lookup(sig, RelSet::full(4), 0, &mut probe).is_some());
    }
}
