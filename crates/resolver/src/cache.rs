//! The resolver's TTL-driven record cache, sharded for concurrency and
//! (optionally) bounded with TTL-sweep-then-LRU eviction.
//!
//! Cache staleness is the mechanism behind two of the paper's findings:
//! IP-hint/A mismatches persisting after synchronized zone updates
//! (§4.3.5) and ECH key mismatches under hourly rotation (§4.4.2). The
//! cache therefore keeps precise per-entry expiry against the simulated
//! clock, plus negative entries with SOA-minimum TTLs.
//!
//! ## Sharding
//!
//! The cache is split into N independent shards, each guarded by its own
//! [`parking_lot::Mutex`]. A lookup or insert hashes the **owner name**
//! (case-folded, via FNV-1a) and touches exactly one shard, so batch
//! workloads ([`crate::engine::QueryEngine::resolve_batch`]) scale with
//! available threads instead of serializing on a single lock. All entries
//! for one owner name land in one shard regardless of record type, so a
//! resolution step's two lookups — the queried type, then CNAME
//! (`RecordCache::get_or_cname`) — take one shard lock between them.
//! An entry is its own key: its owner name (stored once, inside a
//! positive answer's set) and type. The shard's map is a set of entries
//! probed as `(name bytes, type)`, so a lookup borrows the caller's name
//! and clones no key, and a bucket is the 64-byte entry alone.
//!
//! Sharding is invisible in the API: statistics aggregate across shards,
//! and behaviour (hits, misses, expirations, eviction) is identical for
//! any shard count — a property pinned by this module's tests.
//!
//! ## Bounded eviction
//!
//! By default the cache is unbounded (the scanner campaigns want every
//! observation retained); a production resolver serving client traffic
//! cannot afford that, so [`RecordCache::with_eviction`] adds a
//! per-shard capacity. On overflow a shard first sweeps entries that are
//! already TTL-expired (counted in [`CacheStats::swept`]) and only then
//! evicts the least recently used live entries (counted in
//! [`CacheStats::evictions`]). LRU has the stack/inclusion property, so
//! hit rate is monotone non-decreasing in capacity on a replayed trace.
//!
//! Recency is a doubly linked list over a slab of slots, least recently
//! used at the head: a hit moves its entry's node to the tail, a store
//! pushes one there and an eviction pops the head, each in O(1) with no
//! allocation once the slab has reached capacity. Victims are chosen by
//! that list, never by `HashMap` iteration order, so the victim sequence
//! is deterministic and byte-identical across runs. Unbounded caches
//! keep no list: their entries carry no slot and a hit moves nothing.
//!
//! The TTL sweep keeps no index either. Each shard holds a lower bound
//! on its entries' expiry seconds, which a store lowers; while the clock
//! is below it a sweep costs one comparison, and otherwise one pass over
//! the shard removes every expired entry and makes the bound exact
//! again. So a shard scans at most once per simulated second in which
//! it overflows, and never while nothing in it can have expired.
//!
//! ## Statistics
//!
//! Each shard carries its own lock-free [`CacheStats`] counters (plain
//! relaxed atomics, updated outside the entry mutex), so reading
//! [`RecordCache::stats`] or [`RecordCache::shard_stats`] never takes a
//! lock and never perturbs concurrent lookups. Misses distinguish
//! *absent* (nothing stored) from *expired* (a dead entry was found and
//! evicted), and hits on negative entries are surfaced separately —
//! the split the paper's cache-behaviour comparisons need. Each shard
//! also counts hot-path lock acquisitions and contended acquisitions
//! (a contention proxy; see the README's single-CPU caveat).

use crate::reply::RrSet;
use dns_wire::{DnsName, NameBuildHasher, NameKey, NameRef, Rcode, RecordType};
use netsim::Timestamp;
use parking_lot::{Mutex, MutexGuard};
use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default shard count: enough to keep a typical worker fan-out (the
/// scanner uses 4–8 threads) contention-free without wasting memory on
/// tiny caches.
pub const DEFAULT_SHARDS: usize = 16;

/// The bounded cache's one eviction policy, by name.
///
/// The cache itself takes no policy: a bounded shard always sweeps
/// TTL-expired entries first, then evicts the least recently *used*
/// live entry. The type stays only because the benchmark harness names
/// it in `serve::ServeConfig::policy`, and the serve report's
/// `policy=TtlSweepLru` header, which the harness digests, renders it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Sweep TTL-expired entries first, then evict the least recently
    /// used live entry (lookup hits refresh recency).
    TtlSweepLru,
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictionPolicy::TtlSweepLru => f.write_str("TtlSweepLru"),
        }
    }
}

/// A positive or negative cached answer.
///
/// A positive answer is an [`RrSet`]: offsets into the authority reply
/// it came in, which the cache, every [`Resolution`](crate::Resolution)
/// served from it and every other set of that reply share. A fill
/// stores reference counts and a hit hands them out; no record is
/// built or copied either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedAnswer {
    /// A cached RRset with its covering RRSIGs (as fetched with the DO
    /// bit).
    Positive(RrSet),
    /// A cached negative answer (NODATA or NXDOMAIN).
    Negative {
        /// The rcode that produced the entry.
        rcode: Rcode,
    },
}

/// A recency link's key: owner name and record type, a clone of its
/// entry's owner (a reference count), so an eviction can find the entry.
#[derive(Clone)]
struct Key {
    name: DnsName,
    rtype: u16,
}

/// A key as `(name bytes, type)`: an [`Entry`]'s own, a [`Key`]'s, or
/// a borrowed `(NameRef, u16)`. The entry map hashes and compares every
/// one of them the same way (`DnsName`'s own case folding, with
/// [`NameBuildHasher`] mixing the type into the name's word), so a
/// lookup probes with a borrowed name and clones none.
trait Probe {
    fn name(&self) -> NameRef<'_>;
    fn rtype(&self) -> u16;
}

impl Probe for Key {
    fn name(&self) -> NameRef<'_> {
        self.name.name_ref()
    }

    fn rtype(&self) -> u16 {
        self.rtype
    }
}

impl Probe for (NameRef<'_>, u16) {
    fn name(&self) -> NameRef<'_> {
        self.0
    }

    fn rtype(&self) -> u16 {
        self.1
    }
}

impl Hash for dyn Probe + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name().as_key().hash(state);
        self.rtype().hash(state);
    }
}

impl PartialEq for dyn Probe + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.rtype() == other.rtype() && self.name() == other.name()
    }
}

impl Eq for dyn Probe + '_ {}

/// What an entry holds: a positive set, which carries its owner, or a
/// negative answer with the owner beside it. Either way the owner is
/// stored once and is the entry's key.
#[derive(Debug)]
enum Stored {
    Positive(RrSet),
    Negative { owner: DnsName, rcode: Rcode },
}

/// One bucket of a shard's entry map: the answer, its owner and type
/// (which key it), its expiry and its recency slot. It is its own key:
/// the map is a set of entries probed by [`Probe`], so the owner is not
/// kept a second time beside it.
#[derive(Debug)]
struct Entry {
    stored: Stored,
    expires: Timestamp,
    /// The entry's node in its shard's recency list; [`NIL`] on an
    /// unbounded shard, which keeps no list.
    slot: u32,
    rtype: u16,
}

impl Entry {
    fn owner(&self) -> &DnsName {
        match &self.stored {
            Stored::Positive(set) => set.owner(),
            Stored::Negative { owner, .. } => owner,
        }
    }

    /// The answer a hit hands out: reference counts, no copy.
    fn answer(&self) -> CachedAnswer {
        match &self.stored {
            Stored::Positive(set) => CachedAnswer::Positive(set.clone()),
            &Stored::Negative { rcode, .. } => CachedAnswer::Negative { rcode },
        }
    }
}

impl Probe for Entry {
    fn name(&self) -> NameRef<'_> {
        self.owner().name_ref()
    }

    fn rtype(&self) -> u16 {
        self.rtype
    }
}

impl Hash for Entry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn Probe).hash(state);
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn Probe) == (other as &dyn Probe)
    }
}

impl Eq for Entry {}

impl<'a> Borrow<dyn Probe + 'a> for Entry {
    fn borrow(&self) -> &(dyn Probe + 'a) {
        self
    }
}

/// The slot index that names no node: the end of a list, or the slot
/// of an entry that is in none.
const NIL: u32 = u32::MAX;

/// One node of a recency list. A free slot holds no key and chains the
/// free list through `next`.
struct Link {
    prev: u32,
    next: u32,
    key: Option<Key>,
}

/// A bounded shard's recency order: a doubly linked list over a slab of
/// [`Link`]s, least recently used at `head`, most recently used at
/// `tail`. Slots freed by removals are reused before the slab grows, so
/// it never holds more than one slot over the shard's capacity, and a
/// capacity under [`NIL`] keeps every slot index below it.
struct Recency {
    links: Vec<Link>,
    head: u32,
    tail: u32,
    /// First free slot.
    free: u32,
}

impl Default for Recency {
    fn default() -> Recency {
        Recency { links: Vec::new(), head: NIL, tail: NIL, free: NIL }
    }
}

impl Recency {
    /// Link `key` at the most recently used end; returns its slot.
    fn push_back(&mut self, key: Key) -> u32 {
        let link = Link { prev: NIL, next: NIL, key: Some(key) };
        let slot = match self.free {
            NIL => {
                self.links.push(link);
                (self.links.len() - 1) as u32
            }
            slot => {
                self.free = self.links[slot as usize].next;
                self.links[slot as usize] = link;
                slot
            }
        };
        self.attach_back(slot);
        slot
    }

    /// Move a linked slot to the most recently used end.
    fn move_to_back(&mut self, slot: u32) {
        if slot != self.tail {
            self.detach(slot);
            self.attach_back(slot);
        }
    }

    /// Unlink a slot, free it and return the key it held.
    fn remove(&mut self, slot: u32) -> Option<Key> {
        self.detach(slot);
        let link = &mut self.links[slot as usize];
        link.next = self.free;
        self.free = slot;
        link.key.take()
    }

    /// Unlink and return the least recently used key.
    fn pop_front(&mut self) -> Option<Key> {
        (self.head != NIL).then(|| self.remove(self.head)).flatten()
    }

    /// Empty the list, keeping the slab's allocation.
    fn clear(&mut self) {
        self.links.clear();
        (self.head, self.tail, self.free) = (NIL, NIL, NIL);
    }

    fn detach(&mut self, slot: u32) {
        let Link { prev, next, .. } = self.links[slot as usize];
        match prev {
            NIL => self.head = next,
            prev => self.links[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.links[next as usize].prev = prev,
        }
    }

    fn attach_back(&mut self, slot: u32) {
        let link = &mut self.links[slot as usize];
        (link.prev, link.next) = (self.tail, NIL);
        match self.tail {
            NIL => self.head = slot,
            tail => self.links[tail as usize].next = slot,
        }
        self.tail = slot;
    }
}

/// Statistics snapshot for cache behaviour analysis and ablations.
///
/// A point-in-time copy of one shard's (or the whole cache's) lock-free
/// counters. Misses are split by cause — [`miss_absent`](Self::miss_absent)
/// vs [`miss_expired`](Self::miss_expired) — and hits on negative
/// entries are counted separately in
/// [`negative_hits`](Self::negative_hits) (they are also included in
/// [`hits`](Self::hits)). Bounded caches additionally count capacity
/// [`evictions`](Self::evictions) and TTL-sweep removals
/// ([`swept`](Self::swept)); both stay zero for unbounded caches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a live entry (positive or negative).
    pub hits: u64,
    /// Subset of [`hits`](Self::hits) that returned a cached negative
    /// answer (NODATA/NXDOMAIN).
    pub negative_hits: u64,
    /// Lookups that found nothing stored under the key.
    pub miss_absent: u64,
    /// Lookups that found only an expired entry (which was evicted).
    pub miss_expired: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Hot-path (get/insert) acquisitions of the shard entry lock.
    pub lock_acquisitions: u64,
    /// Hot-path acquisitions that found the lock already held and had
    /// to block — a cross-thread contention proxy. Scheduling-dependent,
    /// so excluded from determinism comparisons (and near-meaningless on
    /// a single-CPU host, where threads rarely overlap).
    pub lock_contended: u64,
    /// Live entries evicted by LRU on overflow (bounded caches only).
    pub evictions: u64,
    /// TTL-expired entries removed by an overflow sweep (read-path
    /// expiry removals are counted in [`miss_expired`](Self::miss_expired)
    /// instead).
    pub swept: u64,
}

impl CacheStats {
    /// Total misses, either cause.
    pub fn misses(&self) -> u64 {
        self.miss_absent + self.miss_expired
    }

    /// Total lookups that counted a hit or a miss.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses()
    }

    /// Hit fraction of all lookups (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Accumulate another snapshot into this one (shard aggregation,
    /// multi-vantage roll-ups).
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.negative_hits += other.negative_hits;
        self.miss_absent += other.miss_absent;
        self.miss_expired += other.miss_expired;
        self.insertions += other.insertions;
        self.lock_acquisitions += other.lock_acquisitions;
        self.lock_contended += other.lock_contended;
        self.evictions += other.evictions;
        self.swept += other.swept;
    }
}

/// The canonical one-line rendering used by telemetry reports.
impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} negative_hits={} miss_absent={} miss_expired={} insertions={} \
             lock_acquisitions={} lock_contended={} evictions={} swept={} hit_rate={:.4}",
            self.hits,
            self.negative_hits,
            self.miss_absent,
            self.miss_expired,
            self.insertions,
            self.lock_acquisitions,
            self.lock_contended,
            self.evictions,
            self.swept,
            self.hit_rate()
        )
    }
}

/// One shard's live counters: relaxed atomics bumped outside the entry
/// mutex, so `stats()` readers and concurrent writers never serialize
/// on statistics. (The old design kept a `CacheStats` inside the shard
/// mutex and locked every shard to aggregate.)
#[derive(Default)]
struct ShardCounters {
    hits: AtomicU64,
    negative_hits: AtomicU64,
    miss_absent: AtomicU64,
    miss_expired: AtomicU64,
    insertions: AtomicU64,
    lock_acquisitions: AtomicU64,
    lock_contended: AtomicU64,
    evictions: AtomicU64,
    swept: AtomicU64,
}

impl ShardCounters {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            miss_absent: self.miss_absent.load(Ordering::Relaxed),
            miss_expired: self.miss_expired.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            lock_acquisitions: self.lock_acquisitions.load(Ordering::Relaxed),
            lock_contended: self.lock_contended.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            swept: self.swept.load(Ordering::Relaxed),
        }
    }
}

/// A shard's mutable state: the entry map, its recency list and the
/// sweep's lower bound.
///
/// The recency list is kept only by bounded caches; unbounded shards
/// leave it empty so the default hot path pays nothing for eviction.
struct ShardInner {
    entries: HashSet<Entry, NameBuildHasher>,
    recency: Recency,
    /// No entry expires before this second: stores lower it, a sweep
    /// sets it to the exact minimum of the entries it keeps.
    earliest: u64,
}

impl Default for ShardInner {
    fn default() -> ShardInner {
        ShardInner { entries: HashSet::default(), recency: Recency::default(), earliest: u64::MAX }
    }
}

/// What one lookup found under the shard lock.
enum Looked {
    /// A live entry's answer.
    Hit(CachedAnswer),
    /// An expired entry, now removed.
    Dead,
    /// Nothing stored under the key.
    Absent,
}

impl ShardInner {
    /// Look `(name, rtype)` up by borrowed name. An expired entry is
    /// removed; a live one on a bounded shard moves to the most recently
    /// used end of the list.
    fn look_up(&mut self, name: NameRef<'_>, rtype: u16, now: Timestamp) -> Looked {
        let probe: &dyn Probe = &(name, rtype);
        let Some(entry) = self.entries.get(probe) else {
            return Looked::Absent;
        };
        if entry.expires <= now {
            let slot = entry.slot;
            self.entries.remove(probe);
            if slot != NIL {
                self.recency.remove(slot);
            }
            return Looked::Dead;
        }
        if entry.slot != NIL {
            self.recency.move_to_back(entry.slot);
        }
        Looked::Hit(entry.answer())
    }

    /// Remove every entry whose expiry second is `<= now` and return how
    /// many went; a no-op while `now` is below the shard's lower bound.
    fn sweep_expired(&mut self, now: Timestamp) -> u64 {
        if self.earliest > now.0 {
            return 0;
        }
        let (before, mut earliest) = (self.entries.len(), u64::MAX);
        let recency = &mut self.recency;
        self.entries.retain(|entry| {
            if entry.expires > now {
                earliest = earliest.min(entry.expires.0);
                return true;
            }
            if entry.slot != NIL {
                recency.remove(entry.slot);
            }
            false
        });
        self.earliest = earliest;
        (before - self.entries.len()) as u64
    }

    /// Evict the least recently used entry. Returns false if the shard
    /// is empty.
    fn evict_lru(&mut self) -> bool {
        self.recency.pop_front().is_some_and(|key| self.entries.remove(&key as &dyn Probe))
    }
}

#[derive(Default)]
struct Shard {
    inner: Mutex<ShardInner>,
    stats: ShardCounters,
}

impl Shard {
    /// Count a lookup's outcome — outside the lock — and hand out its
    /// answer.
    fn count(&self, looked: Looked) -> Option<CachedAnswer> {
        let stats = &self.stats;
        match looked {
            Looked::Absent => {
                stats.miss_absent.fetch_add(1, Ordering::Relaxed);
                None
            }
            Looked::Dead => {
                stats.miss_expired.fetch_add(1, Ordering::Relaxed);
                None
            }
            Looked::Hit(answer) => {
                stats.hits.fetch_add(1, Ordering::Relaxed);
                if matches!(answer, CachedAnswer::Negative { .. }) {
                    stats.negative_hits.fetch_add(1, Ordering::Relaxed);
                }
                Some(answer)
            }
        }
    }

    /// Acquire the shard lock on a hot path, counting the acquisition
    /// and whether it had to block behind another holder.
    fn lock_inner(&self) -> MutexGuard<'_, ShardInner> {
        self.stats.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.inner.try_lock() {
            Some(guard) => guard,
            None => {
                self.stats.lock_contended.fetch_add(1, Ordering::Relaxed);
                self.inner.lock()
            }
        }
    }
}

/// TTL cache keyed by `(owner name, record type)`, sharded by owner name.
pub struct RecordCache {
    shards: Vec<Shard>,
    /// Optional TTL clamp (seconds); `Some(c)` caps every entry's
    /// lifetime at `c`, the knob used by the Fig 12 ablation.
    ttl_clamp: Option<u32>,
    /// Per-shard capacity; `None` = unbounded (the default).
    capacity: Option<usize>,
}

impl Default for RecordCache {
    fn default() -> RecordCache {
        RecordCache::with_config(DEFAULT_SHARDS, None)
    }
}

/// FNV-1a over `prefix` followed by the name's case-folded dotted key
/// ([`DnsName::key`]), streamed rather than rendered; stable across
/// runs (no `RandomState`), so shard assignment is deterministic.
/// Shared with the engine's worker-affinity partition and the NS
/// selector's per-zone seeds, which must use the same stable hash.
pub(crate) fn fnv1a_key(prefix: &[u8], name: &DnsName) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |b: u8| h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    prefix.iter().copied().for_each(&mut step);
    name.for_each_key_byte(step);
    h
}

impl RecordCache {
    /// An empty unbounded cache with `shards` shards (minimum 1) and an
    /// optional TTL clamp.
    pub fn with_config(shards: usize, ttl_clamp: Option<u32>) -> RecordCache {
        let n = shards.max(1);
        RecordCache {
            shards: (0..n).map(|_| Shard::default()).collect(),
            ttl_clamp,
            capacity: None,
        }
    }

    /// An empty **bounded** cache: at most `capacity_per_shard` entries
    /// per shard (minimum 1, maximum `u32::MAX - 1`), sweeping expired
    /// then evicting least recently used entries on overflow.
    pub fn with_eviction(
        shards: usize,
        ttl_clamp: Option<u32>,
        capacity_per_shard: usize,
    ) -> RecordCache {
        let mut cache = RecordCache::with_config(shards, ttl_clamp);
        cache.capacity = Some(capacity_per_shard.clamp(1, NIL as usize - 1));
        cache
    }

    /// The per-shard capacity bound, if this cache is bounded.
    pub fn capacity_per_shard(&self) -> Option<usize> {
        self.capacity
    }

    fn shard_for(&self, owner: &DnsName) -> &Shard {
        let idx = (fnv1a_key(b"", owner) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    fn effective_ttl(&self, ttl: u32) -> u32 {
        match self.ttl_clamp {
            Some(clamp) => ttl.min(clamp),
            None => ttl,
        }
    }

    /// Shared store path: file the entry, link it at the most recently
    /// used end, and resolve any overflow (TTL sweep first, then LRU
    /// eviction) — all under one hot-path lock acquisition. An entry
    /// with the same key is replaced whole, owner spelling included.
    fn store(&self, rtype: RecordType, stored: Stored, now: Timestamp, ttl: u32) {
        let expires = now.plus(ttl as u64);
        let mut entry = Entry { stored, expires, slot: NIL, rtype: rtype.code() };
        let shard = self.shard_for(entry.owner());
        shard.stats.insertions.fetch_add(1, Ordering::Relaxed);
        let mut inner = shard.lock_inner();
        inner.earliest = inner.earliest.min(expires.0);
        if self.capacity.is_some() {
            entry.slot =
                inner.recency.push_back(Key { name: entry.owner().clone(), rtype: entry.rtype });
        }
        let replaced = inner.entries.replace(entry);
        if let Some(old) = replaced.as_ref().filter(|old| old.slot != NIL) {
            inner.recency.remove(old.slot);
        }
        let (mut swept, mut evicted) = (0u64, 0u64);
        if let Some(capacity) = self.capacity.filter(|&c| inner.entries.len() > c) {
            swept = inner.sweep_expired(now);
            while inner.entries.len() > capacity && inner.evict_lru() {
                evicted += 1;
            }
        }
        drop(inner);
        // The replaced entry's answer is released after the lock.
        drop(replaced);
        if swept > 0 {
            shard.stats.swept.fetch_add(swept, Ordering::Relaxed);
        }
        if evicted > 0 {
            shard.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Insert a positive RRset observed at `now`, under `(name, rtype)`,
    /// for its smallest record TTL. The set is stored as given — a
    /// reference count on its reply — and an empty one is not stored.
    /// The set's owner is the entry's key, so `name` must be that owner.
    pub fn insert_positive(&self, name: &DnsName, rtype: RecordType, set: RrSet, now: Timestamp) {
        if set.is_empty() {
            return;
        }
        debug_assert!(set.owner() == name, "{name} files a set owned by {}", set.owner());
        let ttl = self.effective_ttl(set.ttl());
        self.store(rtype, Stored::Positive(set), now, ttl);
    }

    /// Insert a negative answer with the given TTL (typically the SOA
    /// minimum).
    pub fn insert_negative(
        &self,
        name: &DnsName,
        rtype: RecordType,
        rcode: Rcode,
        ttl: u32,
        now: Timestamp,
    ) {
        let ttl = self.effective_ttl(ttl);
        self.store(rtype, Stored::Negative { owner: name.clone(), rcode }, now, ttl);
    }

    /// Fetch a live entry; expired entries are evicted. A positive hit
    /// hands out reference counts on the stored RRset, not a copy. On a
    /// bounded cache a hit also refreshes the entry's recency under the
    /// same lock acquisition.
    pub fn get(&self, name: &DnsName, rtype: RecordType, now: Timestamp) -> Option<CachedAnswer> {
        let shard = self.shard_for(name);
        let looked = shard.lock_inner().look_up(name.name_ref(), rtype.code(), now);
        shard.count(looked)
    }

    /// The cache half of one resolution step: [`get`](Self::get) of
    /// `(name, rtype)` and, when that misses and `rtype` is not CNAME,
    /// of `(name, CNAME)`, under one lock of the one shard both keys
    /// live in. Each lookup counts, refreshes and evicts as a `get`
    /// would; only [`CacheStats::lock_acquisitions`] sees one step.
    /// Returns the type that hit with its answer.
    pub(crate) fn get_or_cname(
        &self,
        name: &DnsName,
        rtype: RecordType,
        now: Timestamp,
    ) -> Option<(RecordType, CachedAnswer)> {
        let shard = self.shard_for(name);
        let mut inner = shard.lock_inner();
        let asked = inner.look_up(name.name_ref(), rtype.code(), now);
        let alias = match asked {
            Looked::Hit(_) => None,
            _ if rtype == RecordType::Cname => None,
            _ => Some(inner.look_up(name.name_ref(), RecordType::Cname.code(), now)),
        };
        drop(inner);
        if let Some(answer) = shard.count(asked) {
            return Some((rtype, answer));
        }
        shard.count(alias?).map(|answer| (RecordType::Cname, answer))
    }

    /// When the live entry at `(name, rtype)` expires, if there is one.
    /// A peek: it counts nothing, not even its lock acquisition, and
    /// leaves the entry's recency and an expired entry where they are.
    pub fn expires_at(
        &self,
        name: &DnsName,
        rtype: RecordType,
        now: Timestamp,
    ) -> Option<Timestamp> {
        let inner = self.shard_for(name).inner.lock();
        let probe: &dyn Probe = &(name.name_ref(), rtype.code());
        inner.entries.get(probe).map(|e| e.expires).filter(|&expires| expires > now)
    }

    /// Drop every entry (the testbed's "clear local DNS cache" step).
    pub fn flush(&self) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            inner.entries.clear();
            inner.recency.clear();
            inner.earliest = u64::MAX;
        }
    }

    /// Current statistics snapshot, aggregated across shards. Lock-free:
    /// reads each shard's atomic counters without touching entry locks.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(shard.stats.snapshot());
        }
        total
    }

    /// Per-shard statistics snapshots, in shard-index order (for the
    /// telemetry report's shard-balance and contention views).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| s.stats.snapshot()).collect()
    }

    /// Number of entries currently stored (live and expired-but-unswept).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().entries.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.inner.lock().entries.is_empty())
    }

    /// Per-shard entry counts, in shard-index order (capacity-bound
    /// diagnostics; each value is `<= capacity_per_shard()` for a
    /// bounded cache).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.inner.lock().entries.len()).collect()
    }

    /// Export the eviction-class counters into `metrics` as monotonic
    /// counters: `cache.evictions`, `cache.swept`,
    /// `cache.capacity_per_shard`, and per-shard
    /// `cache.shardNN.{evictions,swept}`.
    ///
    /// Only eviction-class counters are exported — hit/miss counters are
    /// interleaving-dependent under pooled multi-thread campaigns and
    /// would break the byte-identical `counters_text()` pin, so they
    /// stay on the [`CacheStats`] side. Idempotent: counters are raised
    /// to the current snapshot, never double-added.
    pub fn export_eviction_metrics(&self, metrics: &telemetry::MetricsRegistry) {
        fn raise_to(counter: &telemetry::Counter, target: u64) {
            let current = counter.get();
            if target > current {
                counter.add(target - current);
            }
        }
        raise_to(
            &metrics.counter("cache.capacity_per_shard"),
            self.capacity_per_shard().unwrap_or(0) as u64,
        );
        let total = self.stats();
        raise_to(&metrics.counter("cache.evictions"), total.evictions);
        raise_to(&metrics.counter("cache.swept"), total.swept);
        for (i, shard) in self.shard_stats().iter().enumerate() {
            raise_to(&metrics.counter(&format!("cache.shard{i:02}.evictions")), shard.evictions);
            raise_to(&metrics.counter(&format!("cache.shard{i:02}.swept")), shard.swept);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{RData, Record};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    /// An A set owned by `owner`, one record per TTL.
    fn a_set(owner: &str, ttls: &[u32]) -> RrSet {
        let a = |&ttl: &u32| Record::new(name(owner), ttl, RData::A(Ipv4Addr::new(1, 2, 3, 4)));
        RrSet::from_records(&ttls.iter().map(a).collect::<Vec<_>>(), &[])
    }

    fn fnv1a_str(key: &str) -> u64 {
        key.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    proptest! {
        /// The pin below over arbitrary names: every octet value, `.`
        /// and `\` inside labels, mixed case, the root.
        #[test]
        fn streamed_key_hash_equals_the_hash_of_any_rendered_key(labels in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![any::<u8>(), b'A'..=b'Z', 0x80u8..=0xFF, Just(b'.'), Just(b'\\')],
                1..=20,
            ),
            0..6,
        )) {
            let n = DnsName::from_labels(&labels).unwrap();
            prop_assert_eq!(fnv1a_key(b"", &n), fnv1a_str(&n.key()));
            prop_assert_eq!(fnv1a_key(b"ds:", &n), fnv1a_str(&format!("ds:{}", n.key())));
        }
    }

    /// Shard choice and the selector's per-zone seeds were FNV-1a over
    /// the rendered key string; streaming the key
    /// must give the same value, bit for bit.
    #[test]
    fn streamed_key_hash_equals_the_hash_of_the_rendered_key() {
        let odd = DnsName::from_labels([&b"Caf\xC9 \\."[..], b"x"]).unwrap();
        for n in [name("WWW.Example.COM"), name("a.com"), DnsName::root(), odd] {
            assert_eq!(fnv1a_key(b"", &n), fnv1a_str(&n.key()), "{n}");
            assert_eq!(fnv1a_key(b"ds:", &n), fnv1a_str(&format!("ds:{}", n.key())), "{n}");
        }
        assert_eq!(
            fnv1a_key(b"", &name("a.com")),
            fnv1a_key(b"", &name("www.A.com").parent().unwrap())
        );
    }

    /// A 1-shard bounded cache so capacity arithmetic is exact.
    fn bounded(capacity: usize) -> RecordCache {
        RecordCache::with_eviction(1, None, capacity)
    }

    fn insert(cache: &RecordCache, host: &str, ttl: u32, now: u64) {
        cache.insert_positive(&name(host), RecordType::A, a_set(host, &[ttl]), Timestamp(now));
    }

    fn has(cache: &RecordCache, host: &str, now: u64) -> bool {
        cache.expires_at(&name(host), RecordType::A, Timestamp(now)).is_some()
    }

    #[test]
    fn hit_until_ttl_expiry() {
        let cache = RecordCache::default();
        cache.insert_positive(&name("a.com"), RecordType::A, a_set("a.com", &[300]), Timestamp(0));
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(299)).is_some());
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(300)).is_none());
        // After expiry the entry is evicted.
        assert_eq!(cache.len(), 0);
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.miss_expired, 1);
        assert_eq!(s.miss_absent, 0);
    }

    #[test]
    fn miss_causes_are_distinguished() {
        let cache = RecordCache::default();
        // Nothing stored: an absent miss.
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(0)).is_none());
        cache.insert_positive(&name("a.com"), RecordType::A, a_set("a.com", &[300]), Timestamp(0));
        // Stored but dead: an expired miss (and an eviction).
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(400)).is_none());
        // Evicted now, so the next lookup is absent again.
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(401)).is_none());
        let s = cache.stats();
        assert_eq!((s.miss_absent, s.miss_expired), (2, 1));
        assert_eq!(s.misses(), 3);
        assert_eq!(s.hits, 0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn negative_hits_surface_separately() {
        let cache = RecordCache::default();
        cache.insert_negative(
            &name("n.com"),
            RecordType::Https,
            Rcode::NxDomain,
            300,
            Timestamp(0),
        );
        cache.insert_positive(&name("p.com"), RecordType::A, a_set("p.com", &[300]), Timestamp(0));
        assert!(cache.get(&name("n.com"), RecordType::Https, Timestamp(1)).is_some());
        assert!(cache.get(&name("n.com"), RecordType::Https, Timestamp(2)).is_some());
        assert!(cache.get(&name("p.com"), RecordType::A, Timestamp(1)).is_some());
        let s = cache.stats();
        assert_eq!(s.hits, 3, "negative hits count as hits");
        assert_eq!(s.negative_hits, 2, "negative-entry hits are also surfaced separately");
        assert!((s.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hot_path_lock_acquisitions_are_counted() {
        let cache = RecordCache::default();
        cache.insert_positive(&name("a.com"), RecordType::A, a_set("a.com", &[300]), Timestamp(0));
        let _ = cache.get(&name("a.com"), RecordType::A, Timestamp(1));
        let _ = cache.get_or_cname(&name("b.com"), RecordType::A, Timestamp(1));
        let _ = cache.expires_at(&name("a.com"), RecordType::A, Timestamp(1));
        // insert + get + get_or_cname (two lookups, one lock): three
        // hot-path acquisitions; the expires_at peek, flush() and stats()
        // are uncounted.
        cache.flush();
        let s = cache.stats();
        assert_eq!(s.lock_acquisitions, 3);
        assert_eq!(s.lock_contended, 0, "single-threaded use never contends");
    }

    #[test]
    fn min_ttl_of_rrset_governs() {
        let cache = RecordCache::default();
        let records = a_set("a.com", &[300, 60]);
        cache.insert_positive(&name("a.com"), RecordType::A, records, Timestamp(0));
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(59)).is_some());
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(61)).is_none());
    }

    #[test]
    fn negative_caching() {
        let cache = RecordCache::default();
        cache.insert_negative(
            &name("gone.com"),
            RecordType::Https,
            Rcode::NxDomain,
            300,
            Timestamp(0),
        );
        match cache.get(&name("gone.com"), RecordType::Https, Timestamp(100)) {
            Some(CachedAnswer::Negative { rcode }) => assert_eq!(rcode, Rcode::NxDomain),
            other => panic!("{other:?}"),
        }
        assert!(cache.get(&name("gone.com"), RecordType::Https, Timestamp(301)).is_none());
    }

    #[test]
    fn ttl_clamp_caps_lifetime() {
        let cache = RecordCache::with_config(DEFAULT_SHARDS, Some(30));
        cache.insert_positive(&name("a.com"), RecordType::A, a_set("a.com", &[300]), Timestamp(0));
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(29)).is_some());
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(31)).is_none());
    }

    #[test]
    fn flush_clears() {
        let cache = RecordCache::default();
        cache.insert_positive(&name("a.com"), RecordType::A, a_set("a.com", &[300]), Timestamp(0));
        cache.flush();
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn expires_at_reports_only_a_live_entry() {
        let cache = RecordCache::default();
        cache.insert_positive(
            &name("a.com"),
            RecordType::A,
            a_set("a.com", &[300]),
            Timestamp(100),
        );
        let expires = |now| cache.expires_at(&name("a.com"), RecordType::A, Timestamp(now));
        assert_eq!(expires(150), Some(Timestamp(400)));
        assert_eq!(expires(400), None);
        assert_eq!(cache.len(), 1, "a peek leaves an expired entry in place");
    }

    #[test]
    fn peeking_the_lru_head_counts_nothing_and_leaves_it_the_victim() {
        let cache = bounded(2);
        insert(&cache, "a.example", 300, 0);
        insert(&cache, "b.example", 300, 1);
        let before = cache.stats();
        let head = cache.expires_at(&name("a.example"), RecordType::A, Timestamp(2));
        assert_eq!(head, Some(Timestamp(300)));
        assert_eq!(cache.stats(), before, "a peek changes no counter");
        insert(&cache, "c.example", 300, 3);
        assert_eq!(cache.stats().evictions, 1);
        assert!(!has(&cache, "a.example", 4), "the peeked head is still the LRU victim");
        assert!(has(&cache, "b.example", 4));
        assert!(has(&cache, "c.example", 4));
    }

    /// Every bucket of every campaign and serving cache is one of
    /// these: the entry is its own key, so the bucket is the entry.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_cache_entry_is_64_bytes() {
        assert_eq!(std::mem::size_of::<CachedAnswer>(), 48);
        assert_eq!(std::mem::size_of::<Stored>(), 48);
        assert_eq!(std::mem::size_of::<Entry>(), 64);
    }

    #[test]
    fn a_replacing_store_hands_out_the_new_sets_owner_spelling() {
        let set = |owner: &str| {
            let record = Record::new(name(owner), 300, RData::A(Ipv4Addr::new(1, 2, 3, 4)));
            RrSet::from_records(&[record], &[])
        };
        for cache in [RecordCache::default(), bounded(4)] {
            let (old, new) = (set("a.example"), set("A.Example"));
            cache.insert_positive(&old.owner().clone(), RecordType::A, old, Timestamp(0));
            cache.insert_positive(&new.owner().clone(), RecordType::A, new, Timestamp(1));
            match cache.get(&name("a.EXAMPLE"), RecordType::A, Timestamp(2)) {
                Some(CachedAnswer::Positive(hit)) => {
                    assert_eq!(hit.owner().to_string(), "A.Example.")
                }
                other => panic!("{other:?}"),
            }
            assert_eq!(cache.len(), 1, "the store replaced the entry");
            assert_eq!(
                cache.expires_at(&name("a.example"), RecordType::A, Timestamp(2)),
                Some(Timestamp(301))
            );
        }
    }

    #[test]
    fn types_are_separate_keys() {
        let cache = RecordCache::default();
        cache.insert_positive(&name("a.com"), RecordType::A, a_set("a.com", &[300]), Timestamp(0));
        assert!(cache.get(&name("a.com"), RecordType::Https, Timestamp(1)).is_none());
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(1)).is_some());
    }

    #[test]
    fn case_insensitive_keying() {
        let cache = RecordCache::default();
        cache.insert_positive(&name("A.COM"), RecordType::A, a_set("A.COM", &[300]), Timestamp(0));
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(1)).is_some());
    }

    #[test]
    fn empty_rrset_not_inserted() {
        let cache = RecordCache::default();
        cache.insert_positive(&name("a.com"), RecordType::A, a_set("a.com", &[]), Timestamp(0));
        assert!(cache.is_empty());
    }

    #[test]
    fn single_shard_degenerate_case_works() {
        let cache = RecordCache::with_config(1, None);
        assert_eq!(cache.shard_stats().len(), 1);
        for i in 0..32 {
            let host = format!("d{i}.example");
            cache.insert_positive(&name(&host), RecordType::A, a_set(&host, &[60]), Timestamp(0));
        }
        assert_eq!(cache.len(), 32);
        assert_eq!(cache.stats().insertions, 32);
    }

    #[test]
    fn entries_spread_across_shards() {
        let cache = RecordCache::with_config(16, None);
        for i in 0..256 {
            let host = format!("d{i}.example");
            cache.insert_positive(&name(&host), RecordType::A, a_set(&host, &[60]), Timestamp(0));
        }
        assert_eq!(cache.len(), 256);
        let populated = cache.shards.iter().filter(|s| !s.inner.lock().entries.is_empty()).count();
        assert!(populated > 8, "expected a spread, got {populated} populated shards");
    }

    #[test]
    fn zero_shards_clamp_to_one() {
        let cache = RecordCache::with_config(0, None);
        assert_eq!(cache.shard_stats().len(), 1);
    }

    // ---- bounded eviction ----

    #[test]
    fn bounded_capacity_is_never_exceeded() {
        let cache = bounded(8);
        for i in 0..100 {
            insert(&cache, &format!("d{i}.example"), 300, i);
            assert!(cache.len() <= 8, "len {} > capacity 8", cache.len());
        }
        assert_eq!(cache.shard_lens(), vec![8]);
        assert!(cache.stats().evictions >= 92 - 8);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = bounded(3);
        insert(&cache, "a.example", 300, 0);
        insert(&cache, "b.example", 300, 1);
        insert(&cache, "c.example", 300, 2);
        // Touch a and c; b becomes the LRU victim.
        assert!(cache.get(&name("a.example"), RecordType::A, Timestamp(3)).is_some());
        assert!(cache.get(&name("c.example"), RecordType::A, Timestamp(4)).is_some());
        insert(&cache, "d.example", 300, 5);
        assert!(has(&cache, "a.example", 6));
        assert!(!has(&cache, "b.example", 6), "LRU victim should be b");
        assert!(has(&cache, "c.example", 6));
        assert!(has(&cache, "d.example", 6));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn expired_entries_swept_before_live_evicted() {
        let cache = bounded(3);
        insert(&cache, "dead.example", 10, 0); // expires at t=10
        insert(&cache, "live1.example", 300, 1);
        insert(&cache, "live2.example", 300, 2);
        // Overflow at t=50: the dead entry is swept; no live eviction.
        insert(&cache, "live3.example", 300, 50);
        let s = cache.stats();
        assert_eq!(s.swept, 1, "the expired entry should be swept, not LRU-evicted");
        assert_eq!(s.evictions, 0);
        assert!(has(&cache, "live1.example", 51));
        assert!(has(&cache, "live2.example", 51));
        assert!(has(&cache, "live3.example", 51));
    }

    #[test]
    fn overwrite_does_not_grow_a_bounded_shard() {
        let cache = bounded(4);
        for t in 0..20 {
            insert(&cache, "same.example", 300, t);
        }
        assert_eq!(cache.len(), 1, "refreshes must overwrite in place");
        assert_eq!(cache.stats().evictions, 0);
    }

    /// The shard's sweep bound, for the lazy-sweep tests.
    fn earliest(cache: &RecordCache) -> u64 {
        cache.shards[0].inner.lock().earliest
    }

    #[test]
    fn a_stale_sweep_bound_sweeps_no_live_entry() {
        let cache = bounded(2);
        insert(&cache, "short.example", 10, 0); // sets the bound to 10
        insert(&cache, "b.example", 300, 0);
        insert(&cache, "c.example", 300, 1); // evicts short.example
        assert!(!has(&cache, "short.example", 1));
        assert_eq!(earliest(&cache), 10, "an eviction leaves the bound where it was");
        // Past the bound, the overflow scans, finds nothing dead, and
        // makes the bound exact; the victim is still the LRU entry.
        insert(&cache, "d.example", 300, 20);
        let s = cache.stats();
        assert_eq!((s.swept, s.evictions), (0, 2));
        assert_eq!(earliest(&cache), 300);
        assert!(!has(&cache, "b.example", 21));
        assert!(has(&cache, "c.example", 21));
        assert!(has(&cache, "d.example", 21));
    }

    #[test]
    fn a_ttl_zero_insert_into_a_full_shard_is_swept_not_evicted() {
        let cache = bounded(2);
        insert(&cache, "a.example", 300, 0);
        insert(&cache, "b.example", 300, 0);
        insert(&cache, "zero.example", 0, 5);
        let s = cache.stats();
        assert_eq!((s.swept, s.evictions), (1, 0));
        assert_eq!(cache.len(), 2);
        assert!(has(&cache, "a.example", 5));
        assert!(has(&cache, "b.example", 5));
        assert!(cache.get(&name("zero.example"), RecordType::A, Timestamp(5)).is_none());
        assert_eq!(cache.stats().miss_absent, 1);
    }

    #[test]
    fn a_flushed_bounded_shard_fills_and_evicts_again() {
        let cache = bounded(2);
        for (i, host) in ["a.example", "b.example", "c.example"].iter().enumerate() {
            insert(&cache, host, 10, i as u64);
        }
        cache.flush();
        assert!(cache.is_empty());
        assert_eq!(earliest(&cache), u64::MAX);
        insert(&cache, "d.example", 300, 0);
        insert(&cache, "e.example", 300, 1);
        assert!(cache.get(&name("d.example"), RecordType::A, Timestamp(2)).is_some());
        insert(&cache, "f.example", 300, 3);
        assert_eq!(cache.stats().evictions, 2, "one before the flush, one after");
        assert!(has(&cache, "d.example", 4));
        assert!(!has(&cache, "e.example", 4), "the LRU victim is e, d was refreshed");
        assert!(has(&cache, "f.example", 4));
    }

    #[test]
    fn an_overflow_sweep_counts_nothing_before_the_bound_and_every_dead_entry_after() {
        let cache = bounded(6);
        for i in 0..6 {
            insert(&cache, &format!("d{i}.example"), 10 + i as u32, 0);
        }
        assert_eq!(earliest(&cache), 10);
        let counts = |cache: &RecordCache| (cache.stats().swept, cache.stats().evictions);
        // Below the bound nothing is dead: the overflow evicts the LRU.
        insert(&cache, "x0.example", 1000, 9);
        assert_eq!(counts(&cache), (0, 1));
        // Past it, one sweep takes both dead entries and makes it exact.
        insert(&cache, "x1.example", 1000, 12);
        assert_eq!(counts(&cache), (2, 1));
        assert_eq!(earliest(&cache), 13, "a sweep makes the bound exact");
        assert_eq!(cache.len(), 5);
        // The same second again: the exact bound sweeps nothing.
        insert(&cache, "x2.example", 1000, 12);
        insert(&cache, "x3.example", 1000, 12);
        assert_eq!(counts(&cache), (2, 2));
        // Every entry still dead by then is counted, and only those.
        insert(&cache, "x4.example", 1000, 100);
        assert_eq!(counts(&cache), (4, 2));
        assert_eq!(earliest(&cache), 1009);
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn eviction_policy_parses_and_displays() {
        // The serve report's `policy=` header renders this; the
        // benchmark digests that header.
        assert_eq!(EvictionPolicy::TtlSweepLru.to_string(), "TtlSweepLru");
    }

    #[test]
    fn export_eviction_metrics_is_idempotent() {
        let cache = bounded(2);
        for i in 0..6 {
            insert(&cache, &format!("d{i}.example"), 300, i);
        }
        let metrics = telemetry::MetricsRegistry::new("test");
        cache.export_eviction_metrics(&metrics);
        let evictions = metrics.counter_value("cache.evictions");
        assert_eq!(evictions, cache.stats().evictions);
        assert_eq!(metrics.counter_value("cache.capacity_per_shard"), 2);
        cache.export_eviction_metrics(&metrics);
        assert_eq!(
            metrics.counter_value("cache.evictions"),
            evictions,
            "export must not double-add"
        );
        let per_shard: u64 = (0..cache.shard_stats().len())
            .map(|i| metrics.counter_value(&format!("cache.shard{i:02}.evictions")))
            .sum();
        assert_eq!(per_shard, evictions);
    }
}
