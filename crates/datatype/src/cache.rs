//! The production layout cache: sharded, bounded, LRU-evicting.
//!
//! Following the scheme of Chu et al. \[24\] (the paper's `data layout` field
//! in each fusion request is "the cached data layout entry"), committed
//! types are compiled once ([`CompiledLayout`]) and cached, keyed by the
//! structural hash of the type tree. Subsequent commits of an identical
//! type reuse the entry, and per-message [`LayoutCache::acquire`] calls
//! resolve a [`TypeHandle`] to its compiled plan with a counter bump — the
//! "hits amortize to near zero" regime `reproduce serve` measures.
//!
//! Production shape (TEMPI-style, per ROADMAP):
//!
//! * **Sharded by structural hash** — entries land in `shards` independent
//!   ways, so per-shard scans stay tiny and the stats expose skew.
//! * **Bounded with LRU eviction** — each shard holds at most
//!   `shard_capacity` compiled layouts; inserting beyond that evicts the
//!   least-recently-used *unpinned* entry. An entry whose `Arc` is still
//!   referenced outside the cache (an in-flight request holds its layout)
//!   is pinned and never evicted.
//! * **Handles survive eviction** — the commit→handle binding is
//!   permanent, like an `MPI_Datatype`. Eviction drops only the compiled
//!   artifact; a later `acquire` (or a re-commit of the same type)
//!   fetches it again under the same handle and re-inserts it (counted as
//!   a miss).
//! * **Keys are checked** — the structural hash only picks a bucket; a hit
//!   also requires the committed descriptor to equal the stored one, so two
//!   colliding descriptors never share a handle or a layout.
//! * **Telemetry** — per-shard hit/miss/eviction counters plus resident
//!   bytes and high-water marks, surfaced as [`LayoutCacheStats`] in
//!   `RunReport` and as `Payload::LayoutCacheHealth` instants.
//!
//! Everything above is the *modelled* cache and stays per rank. The host
//! work behind a miss is not: every [`LayoutCache`] fetches its layouts
//! from a [`LayoutTable`], which a cluster shares across all its ranks, so
//! each distinct descriptor is compiled once per cluster however many
//! ranks commit it, and its tables are stored once: a rank gets its own
//! outer `Arc` around a clone of the table's layout, and the clone shares
//! the segment, prefix-sum and run-offset tables (see
//! [`CompiledLayout`]), so it costs three reference counts, not a copy of
//! each table. The outer `Arc` stays per rank because pinning counts its
//! references: a shared one would pin a layout in every rank's cache at
//! once.
//!
//! The cache also carries the *cost model* for layout processing: schemes
//! that cache layouts (CPU-GPU-Hybrid, the proposed fusion design) pay the
//! flattening cost once per type; schemes without a cache (GPU-Sync,
//! GPU-Async — "Layout Cache: N" in Table I) re-parse the datatype on every
//! pack/unpack operation. The constants are unchanged from the seed, so
//! virtual-time reports are byte-identical to the pre-refactor cache.

use crate::compile::CompiledLayout;
use crate::typedesc::TypeDesc;
use fusedpack_sim::{Duration, IntMap};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Handle to a committed datatype (the engine's `MPI_Datatype`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeHandle(pub u64);

/// Per-shard cache health counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutShardStats {
    /// Resolutions served from the shard (commit hits + handle acquires).
    pub hits: u64,
    /// Compiles: first commits plus post-eviction re-compiles.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Compiled layouts currently resident.
    pub resident_entries: u64,
    /// Bytes of compiled layout data currently resident.
    pub resident_bytes: u64,
    /// Highest `resident_bytes` ever observed.
    pub high_water_bytes: u64,
}

impl LayoutShardStats {
    /// Element-wise merge across disjoint caches: counters and residency
    /// gauges add, and summed high-waters are exact because per-rank
    /// residency is monotone while no eviction fires (the steady state of
    /// every real run).
    pub fn absorb(&mut self, other: &LayoutShardStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.resident_entries += other.resident_entries;
        self.resident_bytes += other.resident_bytes;
        self.high_water_bytes += other.high_water_bytes;
    }
}

/// Cache-wide health: commit/lookup totals plus the per-shard breakdown.
/// Merged across ranks into `RunReport::layout_cache`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayoutCacheStats {
    /// `commit` calls observed.
    pub commits: u64,
    /// Charged `get` lookups observed.
    pub lookups: u64,
    /// Per-shard counters, index = shard.
    pub per_shard: Vec<LayoutShardStats>,
}

impl LayoutCacheStats {
    pub fn hits(&self) -> u64 {
        self.per_shard.iter().map(|s| s.hits).sum()
    }

    pub fn misses(&self) -> u64 {
        self.per_shard.iter().map(|s| s.misses).sum()
    }

    pub fn evictions(&self) -> u64 {
        self.per_shard.iter().map(|s| s.evictions).sum()
    }

    pub fn resident_entries(&self) -> u64 {
        self.per_shard.iter().map(|s| s.resident_entries).sum()
    }

    pub fn resident_bytes(&self) -> u64 {
        self.per_shard.iter().map(|s| s.resident_bytes).sum()
    }

    pub fn high_water_bytes(&self) -> u64 {
        self.per_shard.iter().map(|s| s.high_water_bytes).sum()
    }

    /// Fraction of resolutions served without compiling, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            return 1.0;
        }
        h as f64 / (h + m) as f64
    }

    /// Merge another cache's stats into this one (e.g. across ranks).
    /// Shard vectors are padded to the longer length.
    pub fn absorb(&mut self, other: &LayoutCacheStats) {
        self.commits += other.commits;
        self.lookups += other.lookups;
        if self.per_shard.len() < other.per_shard.len() {
            self.per_shard
                .resize(other.per_shard.len(), LayoutShardStats::default());
        }
        for (mine, theirs) in self.per_shard.iter_mut().zip(&other.per_shard) {
            mine.absorb(theirs);
        }
    }
}

/// CPU cost of flattening a type with `blocks` leaf blocks (first commit).
pub fn flatten_cost(blocks: u64) -> Duration {
    Duration::from_nanos(300 + 4 * blocks)
}

/// CPU cost of a cache lookup (hit path).
pub fn lookup_cost() -> Duration {
    Duration::from_nanos(80)
}

/// CPU cost for a cache-less scheme to parse a datatype's layout on every
/// operation (the specialized kernels of \[18\]–\[22\] walk the *tree* on the
/// host and expand blocks on the device, so the host cost grows with block
/// count only up to a cap).
pub fn parse_cost(blocks: u64) -> Duration {
    Duration::from_nanos((200 + blocks / 4).min(3_000))
}

/// Cache geometry. Defaults are generous enough that real runs never
/// evict (the goldens prove byte-identity), while tests can shrink the
/// bound to exercise the LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutCacheConfig {
    /// Shard count; rounded up to a power of two.
    pub shards: usize,
    /// Maximum resident compiled layouts per shard.
    pub shard_capacity: usize,
}

impl Default for LayoutCacheConfig {
    fn default() -> Self {
        LayoutCacheConfig {
            shards: 4,
            shard_capacity: 64,
        }
    }
}

/// A thread-safe table of compiled layouts, shared by every
/// [`LayoutCache`] of one cluster: the host-side compile-once store
/// behind the per-rank modelled caches. It never evicts and keeps no
/// model state, so sharing it changes no handle, counter or cost.
#[derive(Debug, Default)]
pub struct LayoutTable {
    inner: Mutex<TableInner>,
}

#[derive(Debug, Default)]
struct TableInner {
    /// structural key → every distinct descriptor seen under that key
    /// (more than one only on a hash collision) with its layout.
    entries: HashMap<u64, Vec<(TypeDesc, Arc<CompiledLayout>)>>,
    compiles: u64,
}

impl LayoutTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// A clone of `desc`'s compiled layout (`key` is its structural key)
    /// that shares the stored layout's tables. The first request for a
    /// descriptor compiles it under the lock, so concurrent ranks never
    /// compile the same type twice; later requests clone the stored
    /// layout, which bumps three reference counts and copies no table.
    fn layout_of(&self, key: u64, desc: &TypeDesc) -> CompiledLayout {
        let stored = {
            let mut inner = self
                .inner
                .lock()
                .expect("layout table poisoned: a compile panicked");
            let TableInner { entries, compiles } = &mut *inner;
            let chain = entries.entry(key).or_default();
            match chain.iter().find(|(d, _)| d == desc) {
                Some((_, layout)) => Arc::clone(layout),
                None => {
                    *compiles += 1;
                    let layout = Arc::new(CompiledLayout::of(desc));
                    chain.push((desc.clone(), Arc::clone(&layout)));
                    layout
                }
            }
        };
        (*stored).clone()
    }

    /// Calls to [`CompiledLayout::of`] this table has made: one per
    /// distinct descriptor, however many caches committed it.
    pub fn compiles(&self) -> u64 {
        self.inner
            .lock()
            .expect("layout table poisoned: a compile panicked")
            .compiles
    }
}

/// One resident compiled layout.
#[derive(Debug)]
struct CachedEntry {
    layout: Arc<CompiledLayout>,
    /// LRU tick of the most recent touch (globally unique, so eviction
    /// order is total and deterministic).
    last_use: u64,
}

#[derive(Debug, Default)]
struct Shard {
    /// Resident entries by handle.
    entries: IntMap<TypeHandle, CachedEntry>,
    stats: LayoutShardStats,
}

/// The commit→handle binding, permanent like an `MPI_Datatype`. Keeps the
/// (cheap, `Arc`-shared) descriptor so an evicted layout can be fetched
/// again on demand.
#[derive(Debug)]
struct HandleInfo {
    shard: usize,
    key: u64,
    desc: TypeDesc,
}

/// The sharded layout cache.
#[derive(Debug)]
pub struct LayoutCache {
    shards: Vec<Shard>,
    shard_mask: u64,
    shard_capacity: usize,
    by_handle: IntMap<TypeHandle, HandleInfo>,
    /// structural key → handles committed under it (more than one only on
    /// a hash collision).
    by_key: HashMap<u64, Vec<TypeHandle>>,
    table: Arc<LayoutTable>,
    next: u64,
    tick: u64,
    commits: u64,
    lookups: u64,
}

impl Default for LayoutCache {
    fn default() -> Self {
        Self::with_config(LayoutCacheConfig::default())
    }
}

impl LayoutCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache with its own private [`LayoutTable`].
    pub fn with_config(config: LayoutCacheConfig) -> Self {
        Self::with_table(config, Arc::default())
    }

    /// A cache that fetches compiled layouts from `table`, which other
    /// caches may share.
    pub fn with_table(config: LayoutCacheConfig, table: Arc<LayoutTable>) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        LayoutCache {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            shard_mask: shards as u64 - 1,
            shard_capacity: config.shard_capacity.max(1),
            by_handle: IntMap::default(),
            by_key: HashMap::new(),
            table,
            next: 0,
            tick: 0,
            commits: 0,
            lookups: 0,
        }
    }

    fn structural_key(desc: &TypeDesc) -> u64 {
        #[cfg(test)]
        {
            if let Some(key) = tests::FORCED_KEY.with(std::cell::Cell::get) {
                return key;
            }
        }
        let mut hasher = DefaultHasher::new();
        desc.hash(&mut hasher);
        hasher.finish()
    }

    fn touch_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Commit a type: compile (or find the structurally identical cached
    /// entry) and return its handle plus the CPU cost incurred.
    pub fn commit(&mut self, desc: &TypeDesc) -> (TypeHandle, Duration) {
        self.commits += 1;
        let key = Self::structural_key(desc);
        let tick = self.touch_tick();
        let known = self.by_key.get(&key).and_then(|handles| {
            handles
                .iter()
                .copied()
                .find(|h| self.by_handle[h].desc == *desc)
        });
        let handle = match known {
            Some(handle) => handle,
            None => {
                let handle = TypeHandle(self.next);
                self.next += 1;
                self.by_handle.insert(
                    handle,
                    HandleInfo {
                        shard: (key & self.shard_mask) as usize,
                        key,
                        desc: desc.clone(),
                    },
                );
                self.by_key.entry(key).or_default().push(handle);
                handle
            }
        };
        if self.touch_resident(handle, tick).is_some() {
            return (handle, lookup_cost());
        }
        let layout = self.fetch(handle, tick);
        (handle, flatten_cost(layout.num_blocks()))
    }

    /// Hit path: bump a resident entry's LRU tick and its shard's hit
    /// counter. `None` if the handle's layout is not resident.
    ///
    /// Panics on a handle this cache never issued.
    fn touch_resident(&mut self, handle: TypeHandle, tick: u64) -> Option<Arc<CompiledLayout>> {
        let info = self
            .by_handle
            .get(&handle)
            .unwrap_or_else(|| panic!("uncommitted datatype {handle:?}"));
        let shard = &mut self.shards[info.shard];
        let entry = shard.entries.get_mut(&handle)?;
        entry.last_use = tick;
        shard.stats.hits += 1;
        Some(Arc::clone(&entry.layout))
    }

    /// Miss path: fetch the layout from the table and make it resident
    /// under `handle`.
    fn fetch(&mut self, handle: TypeHandle, tick: u64) -> Arc<CompiledLayout> {
        let info = &self.by_handle[&handle];
        let shard_idx = info.shard;
        let layout = Arc::new(self.table.layout_of(info.key, &info.desc));
        self.insert(shard_idx, handle, Arc::clone(&layout), tick);
        layout
    }

    /// Insert a compiled layout into its shard, counting the miss,
    /// updating residency accounting, and enforcing the LRU bound.
    fn insert(
        &mut self,
        shard_idx: usize,
        handle: TypeHandle,
        layout: Arc<CompiledLayout>,
        tick: u64,
    ) {
        let capacity = self.shard_capacity;
        let shard = &mut self.shards[shard_idx];
        let bytes = layout.resident_bytes();
        shard.entries.insert(
            handle,
            CachedEntry {
                layout,
                last_use: tick,
            },
        );
        shard.stats.misses += 1;
        shard.stats.resident_entries += 1;
        shard.stats.resident_bytes += bytes;
        shard.stats.high_water_bytes = shard.stats.high_water_bytes.max(shard.stats.resident_bytes);

        // LRU eviction, skipping pinned entries (an Arc held outside the
        // cache means an in-flight request still uses that layout). Ticks
        // are globally unique, so the victim choice is deterministic.
        while shard.entries.len() > capacity {
            let victim = shard
                .entries
                .iter()
                .filter(|(h, e)| **h != handle && Arc::strong_count(&e.layout) == 1)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(h, _)| *h);
            match victim {
                Some(vh) => {
                    let evicted = shard.entries.remove(&vh).expect("victim present");
                    shard.stats.evictions += 1;
                    shard.stats.resident_entries -= 1;
                    shard.stats.resident_bytes -= evicted.layout.resident_bytes();
                }
                // Everything is pinned: the bound is soft, never drop a
                // layout someone still holds.
                None => break,
            }
        }
    }

    /// Resolve a handle to its compiled layout: the cost-free per-message
    /// path (schemes charge `lookup_cost` separately where the paper's
    /// model says so). Counts a shard hit; if the entry was evicted,
    /// fetches it again for the retained descriptor and counts a miss.
    ///
    /// Panics on a handle this cache never issued.
    pub fn acquire(&mut self, handle: TypeHandle) -> Arc<CompiledLayout> {
        let tick = self.touch_tick();
        match self.touch_resident(handle, tick) {
            Some(layout) => layout,
            None => self.fetch(handle, tick),
        }
    }

    /// Look up a committed layout. Returns the layout and the lookup cost.
    pub fn get(&mut self, handle: TypeHandle) -> (Arc<CompiledLayout>, Duration) {
        self.lookups += 1;
        (self.acquire(handle), lookup_cost())
    }

    /// Peek without charging a lookup or touching LRU state (for
    /// assertions/tests). `None` for unknown *or evicted* handles.
    pub fn peek(&self, handle: TypeHandle) -> Option<&Arc<CompiledLayout>> {
        let info = self.by_handle.get(&handle)?;
        self.shards[info.shard]
            .entries
            .get(&handle)
            .map(|e| &e.layout)
    }

    /// Full per-shard health snapshot.
    pub fn layout_stats(&self) -> LayoutCacheStats {
        LayoutCacheStats {
            commits: self.commits,
            lookups: self.lookups,
            per_shard: self.shards.iter().map(|s| s.stats).collect(),
        }
    }

    /// Resident compiled layouts across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TypeBuilder;
    use std::cell::Cell;

    thread_local! {
        /// Replaces every structural key computed on this thread, so a
        /// test can force a hash collision.
        pub(super) static FORCED_KEY: Cell<Option<u64>> = const { Cell::new(None) };
    }

    #[test]
    fn identical_types_share_an_entry() {
        let mut cache = LayoutCache::new();
        let a = TypeBuilder::vector(4, 2, 5, TypeBuilder::double());
        let b = TypeBuilder::vector(4, 2, 5, TypeBuilder::double());
        let (ha, cost_a) = cache.commit(&a);
        let (hb, cost_b) = cache.commit(&b);
        assert_eq!(ha, hb);
        assert!(cost_b < cost_a, "second commit is a cache hit");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.layout_stats().hits(), 1);
        assert_eq!(cache.layout_stats().misses(), 1);
    }

    #[test]
    fn different_types_get_distinct_handles() {
        let mut cache = LayoutCache::new();
        let (ha, _) = cache.commit(&TypeBuilder::vector(4, 2, 5, TypeBuilder::double()));
        let (hb, _) = cache.commit(&TypeBuilder::vector(4, 2, 6, TypeBuilder::double()));
        assert_ne!(ha, hb);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn colliding_keys_keep_descriptors_apart() {
        FORCED_KEY.with(|k| k.set(Some(7)));
        let table = Arc::new(LayoutTable::new());
        let mut a = LayoutCache::with_table(LayoutCacheConfig::default(), Arc::clone(&table));
        let mut b = LayoutCache::with_table(LayoutCacheConfig::default(), Arc::clone(&table));
        let (t0, t1) = (distinct_type(0), distinct_type(1));
        // Cache `a` sees both descriptors under one key: its own lookup
        // must not hand t1 the handle of t0.
        let (h0, _) = a.commit(&t0);
        let (h1, _) = a.commit(&t1);
        assert_ne!(h0, h1);
        assert_eq!(*a.acquire(h0), CompiledLayout::of(&t0));
        assert_eq!(*a.acquire(h1), CompiledLayout::of(&t1));
        assert_eq!(a.layout_stats().misses(), 2);
        // Cache `b` commits only t1: the table holds t0 first under the
        // same key and must still answer with t1's layout.
        let (g1, _) = b.commit(&t1);
        assert_eq!(*b.acquire(g1), CompiledLayout::of(&t1));
        assert_eq!(table.compiles(), 2);
        FORCED_KEY.with(|k| k.set(None));
    }

    #[test]
    fn caches_on_one_table_share_its_storage_but_not_its_arc() {
        let table = Arc::new(LayoutTable::new());
        let mut a = LayoutCache::with_table(LayoutCacheConfig::default(), Arc::clone(&table));
        let mut b = LayoutCache::with_table(LayoutCacheConfig::default(), Arc::clone(&table));
        let t = TypeBuilder::indexed(&[(0, 1), (3, 1), (7, 1)], TypeBuilder::float());
        let (ha, _) = a.commit(&t);
        let (hb, _) = b.commit(&t);
        let (la, lb) = (a.acquire(ha), b.acquire(hb));
        assert!(!Arc::ptr_eq(&la, &lb), "pinning must stay per cache");
        assert!(std::ptr::eq(la.segments(), lb.segments()));
        assert!(std::ptr::eq(la.packed_offsets(), lb.packed_offsets()));
        assert!(std::ptr::eq(la.run_offsets(), lb.run_offsets()));
        assert_eq!(table.compiles(), 1);
    }

    #[test]
    fn get_returns_committed_layout() {
        let mut cache = LayoutCache::new();
        let t = TypeBuilder::indexed(&[(0, 2), (5, 3)], TypeBuilder::int());
        let (h, _) = cache.commit(&t);
        let (layout, cost) = cache.get(h);
        assert_eq!(layout.num_blocks(), 2);
        assert_eq!(cost, lookup_cost());
        assert_eq!(cache.layout_stats().lookups, 1);
    }

    #[test]
    #[should_panic(expected = "uncommitted datatype")]
    fn get_of_unknown_handle_panics() {
        LayoutCache::new().get(TypeHandle(999));
    }

    #[test]
    fn cost_model_ordering() {
        // Flattening a sparse type is much more expensive than a lookup,
        // and per-op parsing sits in between for big types.
        assert!(flatten_cost(4000) > parse_cost(4000));
        assert!(parse_cost(4000) > lookup_cost());
        assert!(flatten_cost(0) > lookup_cost());
    }

    fn tiny_cache() -> LayoutCache {
        LayoutCache::with_config(LayoutCacheConfig {
            shards: 1,
            shard_capacity: 2,
        })
    }

    fn distinct_type(i: u64) -> std::sync::Arc<TypeDesc> {
        TypeBuilder::vector(2, 1, 3 + i, TypeBuilder::double())
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = tiny_cache();
        let (h0, _) = cache.commit(&distinct_type(0));
        let (h1, _) = cache.commit(&distinct_type(1));
        // Touch h0 so h1 becomes the LRU victim.
        cache.acquire(h0);
        let (_h2, _) = cache.commit(&distinct_type(2));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(h0).is_some(), "recently used survives");
        assert!(cache.peek(h1).is_none(), "LRU entry evicted");
        assert_eq!(cache.layout_stats().evictions(), 1);
    }

    #[test]
    fn evicted_handle_recompiles_on_acquire() {
        let mut cache = tiny_cache();
        let (h0, _) = cache.commit(&distinct_type(0));
        let (_h1, _) = cache.commit(&distinct_type(1));
        let (_h2, _) = cache.commit(&distinct_type(2));
        assert!(cache.peek(h0).is_none(), "h0 was evicted");
        let layout = cache.acquire(h0);
        assert_eq!(layout.num_blocks(), 2);
        assert!(cache.peek(h0).is_some(), "recompile re-inserts");
        // The recompile shows up as a second miss for that shard.
        assert_eq!(cache.layout_stats().misses(), 4);
    }

    #[test]
    fn recommit_after_eviction_keeps_the_handle() {
        let mut cache = tiny_cache();
        let (h0, _) = cache.commit(&distinct_type(0));
        cache.commit(&distinct_type(1));
        cache.commit(&distinct_type(2));
        assert!(cache.peek(h0).is_none(), "h0 was evicted");
        let (again, cost) = cache.commit(&distinct_type(0));
        assert_eq!(again, h0);
        assert!(cost > lookup_cost(), "re-commit of an evicted type misses");
        assert!(cache.peek(h0).is_some());
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let mut cache = tiny_cache();
        let (h0, _) = cache.commit(&distinct_type(0));
        let (h1, _) = cache.commit(&distinct_type(1));
        let pin0 = cache.acquire(h0);
        let pin1 = cache.acquire(h1);
        // Both residents are pinned: inserting more may overflow the soft
        // bound but must not drop either pinned layout.
        let (h2, _) = cache.commit(&distinct_type(2));
        let (h3, _) = cache.commit(&distinct_type(3));
        assert!(cache.peek(h0).is_some());
        assert!(cache.peek(h1).is_some());
        assert!(cache.peek(h2).is_some() || cache.peek(h3).is_some());
        drop(pin0);
        drop(pin1);
        // With pins released, the next insert can evict again.
        let (_h4, _) = cache.commit(&distinct_type(4));
        assert!(cache.len() <= 3);
    }

    #[test]
    fn shard_stats_track_residency_and_high_water() {
        let mut cache = LayoutCache::with_config(LayoutCacheConfig {
            shards: 2,
            shard_capacity: 8,
        });
        for i in 0..6 {
            cache.commit(&distinct_type(i));
        }
        let stats = cache.layout_stats();
        assert_eq!(stats.per_shard.len(), 2);
        assert_eq!(stats.misses(), 6);
        assert_eq!(stats.resident_entries(), 6);
        assert!(stats.resident_bytes() > 0);
        assert_eq!(stats.high_water_bytes(), stats.resident_bytes());
        assert_eq!(stats.commits, 6);
    }

    #[test]
    fn acquire_counts_hits_for_hit_rate() {
        let mut cache = LayoutCache::new();
        let (h, _) = cache.commit(&distinct_type(0));
        for _ in 0..99 {
            cache.acquire(h);
        }
        let stats = cache.layout_stats();
        assert_eq!(stats.hits(), 99);
        assert_eq!(stats.misses(), 1);
        assert!((stats.hit_rate() - 0.99).abs() < 1e-9);
    }

    #[test]
    fn stats_absorb_merges_across_caches() {
        let mut a = LayoutCache::new();
        let mut b = LayoutCache::new();
        a.commit(&distinct_type(0));
        b.commit(&distinct_type(0));
        b.commit(&distinct_type(1));
        let mut merged = a.layout_stats();
        merged.absorb(&b.layout_stats());
        assert_eq!(merged.commits, 3);
        assert_eq!(merged.misses(), 3);
        assert_eq!(merged.resident_entries(), 3);
    }
}
