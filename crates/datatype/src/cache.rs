//! The layout cache: one compiled layout per committed type.
//!
//! Following the scheme of Chu et al. \[24\] (the paper's `data layout` field
//! in each fusion request is "the cached data layout entry"), committed
//! types are compiled once ([`CompiledLayout`]) and reused by every
//! message. Two pieces split the work:
//!
//! * [`LayoutTable`] is the only place that interns descriptors. A cluster
//!   shares one across all its ranks. It keys each descriptor by the
//!   structural hash of its type tree, checks equality on a collision, and
//!   holds one `Arc<CompiledLayout>` per distinct descriptor, which it
//!   hands out with a dense id. A descriptor `Arc` the table has seen
//!   before is found by its address, with no hash of the tree: ranks built
//!   from one program generator commit the same `Arc`.
//!
//!   A type is compiled where it is committed by the application: a
//!   workload compiles its descriptor once and hands the pair to each
//!   cluster it runs on ([`LayoutTable::insert`]). The table compiles only
//!   a descriptor it was not handed, once however many ranks commit it.
//! * [`LayoutCache`] is one rank's *modelled* cache: the set of ids that
//!   rank has committed, plus its counters. A rank's first commit of a
//!   type is a miss and pays [`flatten_cost`]; a re-commit is a hit and
//!   pays [`lookup_cost`]. A committed layout is never dropped, like an
//!   `MPI_Datatype`, so per-message [`LayoutCache::acquire`] calls are an
//!   `Arc` clone plus a hit count: the "hits amortize to near zero" regime
//!   `reproduce serve` measures. The counters surface as
//!   [`LayoutCacheStats`] in `RunReport` and as a
//!   `Payload::LayoutCacheHealth` instant.
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

/// Cache health counters, merged across ranks into
/// `RunReport::layout_cache`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutCacheStats {
    commits: u64,
    lookups: u64,
    hits: u64,
    misses: u64,
    resident_bytes: u64,
}

impl LayoutCacheStats {
    /// `commit` calls observed.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Charged `get` lookups observed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Resolutions served without compiling: re-commits, charged lookups
    /// and per-message acquires.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// First commits of a type.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Modelled bytes of the compiled layouts committed.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Fraction of resolutions served without compiling, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits, self.misses);
        if h + m == 0 {
            return 1.0;
        }
        h as f64 / (h + m) as f64
    }

    /// Merge another cache's stats into this one (e.g. across ranks).
    pub fn absorb(&mut self, other: &LayoutCacheStats) {
        self.commits += other.commits;
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.resident_bytes += other.resident_bytes;
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

/// A thread-safe intern table of compiled layouts, shared by every
/// [`LayoutCache`] of one cluster. It never evicts and keeps no model
/// state, so sharing it changes no counter or cost.
#[derive(Debug, Default)]
pub struct LayoutTable {
    inner: Mutex<TableInner>,
}

#[derive(Debug, Default)]
struct TableInner {
    /// Address of every descriptor `Arc` interned → that `Arc` and its id.
    /// Holding the `Arc` keeps the address from being reused for another
    /// descriptor while the table lives.
    by_addr: IntMap<usize, (Arc<TypeDesc>, usize)>,
    /// structural key → ids of every distinct descriptor seen under that
    /// key (more than one only on a hash collision).
    by_key: HashMap<u64, Vec<usize>>,
    /// id → descriptor and its compiled layout.
    entries: Vec<(Arc<TypeDesc>, Arc<CompiledLayout>)>,
    /// Entries the table compiled itself rather than was handed.
    compiles: u64,
}

impl LayoutTable {
    pub fn new() -> Self {
        Self::default()
    }

    fn structural_key(desc: &TypeDesc) -> u64 {
        if let Some(key) = forced_key() {
            return key;
        }
        let mut hasher = DefaultHasher::new();
        desc.hash(&mut hasher);
        hasher.finish()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        self.inner
            .lock()
            .expect("layout table poisoned: a compile panicked")
    }

    /// `desc`'s dense id (0, 1, 2, … in first-intern order) and its one
    /// shared compiled layout. An `Arc` interned before is found by its
    /// address; any other is keyed by its structure, so distinct `Arc`s of
    /// equal trees share one id. The first request for a descriptor
    /// compiles it under the lock, so concurrent ranks never compile the
    /// same type twice.
    pub(crate) fn intern(&self, desc: &Arc<TypeDesc>) -> (usize, Arc<CompiledLayout>) {
        self.resolve(desc, None)
    }

    /// Hand the table `desc`'s layout, compiled by its owner: a later
    /// intern of that `Arc`, or of an equal tree, gets `layout` and
    /// compiles nothing. Like any intern, a descriptor the table already
    /// holds keeps its entry.
    pub fn insert(&self, desc: &Arc<TypeDesc>, layout: &Arc<CompiledLayout>) {
        self.resolve(desc, Some(layout));
    }

    fn resolve(
        &self,
        desc: &Arc<TypeDesc>,
        compiled: Option<&Arc<CompiledLayout>>,
    ) -> (usize, Arc<CompiledLayout>) {
        let addr = Arc::as_ptr(desc) as usize;
        let mut inner = self.lock();
        if let Some(&(_, id)) = inner.by_addr.get(&addr) {
            return (id, Arc::clone(&inner.entries[id].1));
        }
        let key = Self::structural_key(desc);
        let TableInner {
            by_addr,
            by_key,
            entries,
            compiles,
        } = &mut *inner;
        let ids = by_key.entry(key).or_default();
        let id = match ids.iter().find(|&&id| *entries[id].0 == **desc) {
            Some(&id) => id,
            None => {
                let layout = compiled.map(Arc::clone).unwrap_or_else(|| {
                    *compiles += 1;
                    Arc::new(CompiledLayout::of(desc))
                });
                entries.push((Arc::clone(desc), layout));
                ids.push(entries.len() - 1);
                entries.len() - 1
            }
        };
        by_addr.insert(addr, (Arc::clone(desc), id));
        (id, Arc::clone(&entries[id].1))
    }

    /// Calls to [`CompiledLayout::of`] this table has made: one per
    /// distinct descriptor it was not handed, however many caches
    /// committed it.
    pub fn compiles(&self) -> u64 {
        self.lock().compiles
    }
}

/// One rank's modelled layout cache over a [`LayoutTable`].
#[derive(Debug, Default)]
pub struct LayoutCache {
    table: Arc<LayoutTable>,
    /// Table id → has this rank committed it?
    committed: Vec<bool>,
    stats: LayoutCacheStats,
}

impl LayoutCache {
    /// A cache with its own private [`LayoutTable`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache that interns through `table`, which other caches may share.
    pub fn with_table(table: Arc<LayoutTable>) -> Self {
        LayoutCache {
            table,
            committed: Vec::new(),
            stats: LayoutCacheStats::default(),
        }
    }

    /// Commit a type: its compiled layout plus the CPU cost incurred, a
    /// flatten on this rank's first commit of the type and a lookup after.
    pub fn commit(&mut self, desc: &Arc<TypeDesc>) -> (Arc<CompiledLayout>, Duration) {
        self.stats.commits += 1;
        let (id, layout) = self.table.intern(desc);
        if id >= self.committed.len() {
            self.committed.resize(id + 1, false);
        }
        if std::mem::replace(&mut self.committed[id], true) {
            self.stats.hits += 1;
            return (layout, lookup_cost());
        }
        self.stats.misses += 1;
        self.stats.resident_bytes += layout.resident_bytes();
        let cost = flatten_cost(layout.num_blocks());
        (layout, cost)
    }

    /// Resolve a committed layout for one message: the cost-free
    /// per-message path (schemes charge `lookup_cost` separately where the
    /// paper's model says so). Counts a hit.
    pub fn acquire(&mut self, layout: &Arc<CompiledLayout>) -> Arc<CompiledLayout> {
        self.stats.hits += 1;
        Arc::clone(layout)
    }

    /// A charged lookup of a committed layout: counts a lookup and a hit,
    /// and returns the layout with the lookup cost.
    pub fn get(&mut self, layout: &Arc<CompiledLayout>) -> (Arc<CompiledLayout>, Duration) {
        self.stats.lookups += 1;
        (self.acquire(layout), lookup_cost())
    }

    pub fn layout_stats(&self) -> LayoutCacheStats {
        self.stats
    }
}

/// Outside tests every structural key is the descriptor's hash.
#[cfg(not(test))]
#[inline(always)]
fn forced_key() -> Option<u64> {
    None
}

#[cfg(test)]
use tests::forced_key;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TypeBuilder;
    use std::cell::Cell;

    thread_local! {
        /// Replaces every structural key computed on this thread, so a
        /// test can force a hash collision.
        static FORCED_KEY: Cell<Option<u64>> = const { Cell::new(None) };
    }

    pub(super) fn forced_key() -> Option<u64> {
        FORCED_KEY.with(Cell::get)
    }

    fn distinct_type(i: u64) -> Arc<TypeDesc> {
        TypeBuilder::vector(2, 1, 3 + i, TypeBuilder::double())
    }

    #[test]
    fn recommit_of_an_equal_descriptor_shares_the_layout() {
        let mut cache = LayoutCache::new();
        let a = TypeBuilder::vector(4, 2, 5, TypeBuilder::double());
        let b = TypeBuilder::vector(4, 2, 5, TypeBuilder::double());
        let (la, cost_a) = cache.commit(&a);
        let (lb, cost_b) = cache.commit(&b);
        assert!(Arc::ptr_eq(&la, &lb));
        assert_eq!(cost_a, flatten_cost(la.num_blocks()));
        assert_eq!(cost_b, lookup_cost());
        let stats = cache.layout_stats();
        assert_eq!((stats.misses(), stats.hits(), stats.commits()), (1, 1, 2));
        assert_eq!(stats.resident_bytes(), la.resident_bytes());
    }

    #[test]
    fn different_types_get_distinct_layouts() {
        let mut cache = LayoutCache::new();
        let (la, _) = cache.commit(&distinct_type(0));
        let (lb, _) = cache.commit(&distinct_type(1));
        assert!(!Arc::ptr_eq(&la, &lb));
        assert_eq!(cache.layout_stats().misses(), 2);
    }

    #[test]
    fn ranks_on_one_table_share_the_layout_but_count_misses_apart() {
        let table = Arc::new(LayoutTable::new());
        let mut a = LayoutCache::with_table(Arc::clone(&table));
        let mut b = LayoutCache::with_table(Arc::clone(&table));
        let t = TypeBuilder::indexed(&[(0, 1), (3, 1), (7, 1)], TypeBuilder::float());
        let (la, cost_a) = a.commit(&t);
        let (lb, cost_b) = b.commit(&t);
        assert!(Arc::ptr_eq(&la, &lb));
        assert_eq!(cost_a, cost_b, "each rank pays its own first flatten");
        assert_eq!(a.layout_stats().misses(), 1);
        assert_eq!(b.layout_stats().misses(), 1);
        assert_eq!(table.compiles(), 1);
    }

    #[test]
    fn colliding_keys_keep_descriptors_apart() {
        FORCED_KEY.with(|k| k.set(Some(7)));
        let table = LayoutTable::new();
        let (t0, t1) = (distinct_type(0), distinct_type(1));
        let (id0, l0) = table.intern(&t0);
        let (id1, l1) = table.intern(&t1);
        assert_ne!(id0, id1);
        assert_eq!(*l0, CompiledLayout::of(&t0));
        assert_eq!(*l1, CompiledLayout::of(&t1));
        // Both descriptors sit under one key: a repeat finds its own entry.
        let (again, l1_again) = table.intern(&t1);
        assert_eq!(again, id1);
        assert!(Arc::ptr_eq(&l1, &l1_again));
        assert_eq!(table.compiles(), 2);
        FORCED_KEY.with(|k| k.set(None));
    }

    #[test]
    fn a_recommitted_arc_is_found_by_address_and_an_equal_one_by_structure() {
        let table = LayoutTable::new();
        let t = distinct_type(0);
        FORCED_KEY.with(|k| k.set(Some(7)));
        let (id, layout) = table.intern(&t);
        // Under another structural key the tree would be a new entry: the
        // same `Arc` must not be hashed again.
        FORCED_KEY.with(|k| k.set(Some(9)));
        let (again, layout_again) = table.intern(&t);
        assert_eq!(again, id);
        assert!(Arc::ptr_eq(&layout, &layout_again));
        // A distinct `Arc` of an equal tree goes through the structural
        // key and still finds the entry.
        FORCED_KEY.with(|k| k.set(Some(7)));
        let copy = Arc::new((*t).clone());
        assert_eq!(table.intern(&copy).0, id);
        FORCED_KEY.with(|k| k.set(Some(9)));
        assert_eq!(table.intern(&copy).0, id, "and its address is kept");
        FORCED_KEY.with(|k| k.set(None));
        assert_eq!(table.compiles(), 1);
    }

    #[test]
    fn a_handed_layout_is_interned_without_a_compile() {
        let table = LayoutTable::new();
        let t = distinct_type(0);
        let handed = Arc::new(CompiledLayout::of(&t));
        table.insert(&t, &handed);
        let (id, layout) = table.intern(&t);
        assert!(Arc::ptr_eq(&layout, &handed));
        // An equal tree in another `Arc` finds the handed entry too.
        let copy = Arc::new((*t).clone());
        assert_eq!(table.intern(&copy).0, id);
        assert_eq!(table.compiles(), 0);
        // A descriptor it was not handed is still compiled, once.
        table.intern(&distinct_type(1));
        table.intern(&distinct_type(1));
        assert_eq!(table.compiles(), 1);
    }

    #[test]
    fn get_counts_a_lookup_and_a_hit() {
        let mut cache = LayoutCache::new();
        let t = TypeBuilder::indexed(&[(0, 2), (5, 3)], TypeBuilder::int());
        let (committed, _) = cache.commit(&t);
        let (layout, cost) = cache.get(&committed);
        assert_eq!(layout.num_blocks(), 2);
        assert_eq!(cost, lookup_cost());
        let stats = cache.layout_stats();
        assert_eq!((stats.lookups(), stats.hits()), (1, 1));
    }

    #[test]
    fn cost_model_ordering() {
        // Flattening a sparse type is much more expensive than a lookup,
        // and per-op parsing sits in between for big types.
        assert!(flatten_cost(4000) > parse_cost(4000));
        assert!(parse_cost(4000) > lookup_cost());
        assert!(flatten_cost(0) > lookup_cost());
    }

    #[test]
    fn acquire_counts_hits_for_hit_rate() {
        let mut cache = LayoutCache::new();
        let (layout, _) = cache.commit(&distinct_type(0));
        for _ in 0..99 {
            cache.acquire(&layout);
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
        assert_eq!(merged.commits(), 3);
        assert_eq!(merged.misses(), 3);
        assert_eq!(
            merged.resident_bytes(),
            a.layout_stats().resident_bytes() + b.layout_stats().resident_bytes()
        );
    }
}
