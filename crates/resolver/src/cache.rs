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
//! Entries are keyed by a struct that borrows as `(name bytes, type)`:
//! a lookup probes with the caller's borrowed name and clones no key.
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
//! The eviction bookkeeping uses explicitly ordered structures
//! (`BTreeMap`s keyed by a per-shard monotonic sequence), never
//! `HashMap` iteration order, so the victim sequence is deterministic and
//! byte-identical across runs. Unbounded caches skip the index
//! maintenance entirely — the hot path cost of the default configuration
//! is unchanged.
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
use std::collections::{BTreeMap, HashMap};
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

/// An entry's key: owner name and record type. `DnsName`'s own
/// `Hash`/`Eq` fold ASCII case, [`NameBuildHasher`] mixes the type into
/// the name's word, and a clone (one per index a bounded store files the
/// key under) is a reference count. It borrows as
/// [`dyn Probe`](Probe), so a lookup hashes and compares a borrowed name
/// and clones none.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    name: DnsName,
    rtype: u16,
}

/// A key as `(name bytes, type)`, whether owned ([`Key`]) or borrowed
/// (`(NameRef, u16)`). Hashes and compares exactly as [`Key`] does.
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

impl<'a> Borrow<dyn Probe + 'a> for Key {
    fn borrow(&self) -> &(dyn Probe + 'a) {
        self
    }
}

#[derive(Debug, Clone)]
struct Entry {
    answer: CachedAnswer,
    inserted: Timestamp,
    expires: Timestamp,
    /// Insertion stamp from the shard's monotonic sequence; fixed for
    /// the entry's lifetime and used as the expiry-index tiebreaker.
    seq: u64,
    /// Recency stamp keying the LRU order map; refreshed on every hit
    /// of a bounded cache.
    touch: u64,
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
    /// Hot-path (get/insert/age) acquisitions of the shard entry lock.
    pub lock_acquisitions: u64,
    /// Hot-path acquisitions that found the lock already held and had
    /// to block — a cross-thread contention proxy. Scheduling-dependent,
    /// so excluded from determinism comparisons (and near-meaningless on
    /// a single-CPU host, where threads rarely overlap).
    pub lock_contended: u64,
    /// Live entries evicted by LRU on overflow (bounded caches only).
    pub evictions: u64,
    /// TTL-expired entries removed by an overflow sweep or
    /// [`RecordCache::purge_expired`] (read-path expiry removals are
    /// counted in [`miss_expired`](Self::miss_expired) instead).
    pub swept: u64,
}

impl CacheStats {
    /// Total misses, either cause.
    pub fn misses(&self) -> u64 {
        self.miss_absent + self.miss_expired
    }

    /// Entries evicted by the read path because they had expired: a dead
    /// entry is always removed by the lookup that finds it, so this
    /// equals [`miss_expired`](Self::miss_expired). Sweep/purge removals
    /// are counted separately in [`swept`](Self::swept).
    pub fn expirations(&self) -> u64 {
        self.miss_expired
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

/// A shard's mutable state: the entry map plus the eviction indexes.
///
/// The indexes (`lru`, `expiry`) are maintained only for bounded caches;
/// unbounded shards leave them empty so the default hot path pays
/// nothing for the eviction layer.
#[derive(Default)]
struct ShardInner {
    entries: HashMap<Key, Entry, NameBuildHasher>,
    /// Monotonic per-shard stamp source for `seq`/`touch`.
    next_seq: u64,
    /// LRU recency order: `touch` stamp → key.
    lru: BTreeMap<u64, Key>,
    /// Expiry order: `(expiry second, seq)` → key, so the TTL sweep pops
    /// dead entries without scanning the map.
    expiry: BTreeMap<(u64, u64), Key>,
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
    /// Remove an entry and its index bookkeeping.
    fn remove_entry(&mut self, key: &dyn Probe) -> Option<Entry> {
        let entry = self.entries.remove(key)?;
        self.lru.remove(&entry.touch);
        self.expiry.remove(&(entry.expires.0, entry.seq));
        Some(entry)
    }

    /// Look `(name, rtype)` up by borrowed name. An expired entry is
    /// removed; a live one on a `bounded` cache has its recency
    /// refreshed.
    fn look_up(&mut self, name: NameRef<'_>, rtype: u16, now: Timestamp, bounded: bool) -> Looked {
        let probe: &dyn Probe = &(name, rtype);
        let Some(entry) = self.entries.get_mut(probe) else {
            return Looked::Absent;
        };
        if entry.expires <= now {
            self.remove_entry(probe);
            return Looked::Dead;
        }
        if bounded {
            self.next_seq += 1;
            let old = std::mem::replace(&mut entry.touch, self.next_seq);
            // Move the key to its new recency slot rather than clone it.
            // Every entry of a bounded shard is filed under its `touch`
            // stamp, and unfiled only with the entry, so the slot is
            // there.
            if let Some(key) = self.lru.remove(&old) {
                self.lru.insert(self.next_seq, key);
            }
        }
        Looked::Hit(entry.answer.clone())
    }

    /// Pop entries whose expiry second is `<= now` off the expiry index.
    /// Returns the number removed. Bounded shards only (the index is
    /// empty otherwise).
    fn sweep_expired(&mut self, now: Timestamp) -> u64 {
        let mut swept = 0;
        while let Some(head) = self.expiry.first_entry() {
            if head.key().0 > now.0 {
                break;
            }
            let key = head.remove();
            if let Some(entry) = self.entries.remove(&key) {
                self.lru.remove(&entry.touch);
                swept += 1;
            }
        }
        swept
    }

    /// Evict the least recently used live entry. Returns false if no
    /// victim could be found (empty shard).
    fn evict_lru(&mut self) -> bool {
        let Some((_, key)) = self.lru.pop_first() else {
            return false;
        };
        match self.entries.remove(&key) {
            Some(entry) => {
                self.expiry.remove(&(entry.expires.0, entry.seq));
                true
            }
            None => false,
        }
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
    /// An empty cache with the default shard count and no TTL clamp.
    pub fn new() -> RecordCache {
        RecordCache::default()
    }

    /// An empty cache with `shards` shards (minimum 1) and no clamp.
    pub fn with_shards(shards: usize) -> RecordCache {
        RecordCache::with_config(shards, None)
    }

    /// An empty unbounded cache with explicit shard count and optional
    /// TTL clamp.
    pub fn with_config(shards: usize, ttl_clamp: Option<u32>) -> RecordCache {
        let n = shards.max(1);
        RecordCache {
            shards: (0..n).map(|_| Shard::default()).collect(),
            ttl_clamp,
            capacity: None,
        }
    }

    /// An empty **bounded** cache: at most `capacity_per_shard` entries
    /// per shard (minimum 1), sweeping expired then evicting least
    /// recently used entries on overflow.
    pub fn with_eviction(
        shards: usize,
        ttl_clamp: Option<u32>,
        capacity_per_shard: usize,
    ) -> RecordCache {
        let mut cache = RecordCache::with_config(shards, ttl_clamp);
        cache.capacity = Some(capacity_per_shard.max(1));
        cache
    }

    /// Number of shards (for benches and diagnostics).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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

    /// Shared store path: stamp the entry, refresh indexes, and resolve
    /// any overflow (TTL sweep first, then LRU eviction) — all under
    /// one hot-path lock acquisition.
    fn store(&self, key: Key, answer: CachedAnswer, now: Timestamp, ttl: u32) {
        let shard = self.shard_for(&key.name);
        shard.stats.insertions.fetch_add(1, Ordering::Relaxed);
        let expires = now.plus(ttl as u64);
        let mut inner = shard.lock_inner();
        inner.next_seq += 1;
        let seq = inner.next_seq;
        let entry = Entry { answer, inserted: now, expires, seq, touch: seq };
        let Some(capacity) = self.capacity else {
            let replaced = inner.entries.insert(key, entry);
            drop(inner);
            // The replaced entry's answer is released after the lock.
            drop(replaced);
            return;
        };
        let replaced = inner.remove_entry(&key);
        inner.expiry.insert((expires.0, seq), key.clone());
        inner.lru.insert(seq, key.clone());
        inner.entries.insert(key, entry);
        let (mut swept, mut evicted) = (0u64, 0u64);
        if inner.entries.len() > capacity {
            swept = inner.sweep_expired(now);
            while inner.entries.len() > capacity && inner.evict_lru() {
                evicted += 1;
            }
        }
        drop(inner);
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
    pub fn insert_positive(&self, name: &DnsName, rtype: RecordType, set: RrSet, now: Timestamp) {
        if set.is_empty() {
            return;
        }
        let ttl = self.effective_ttl(set.ttl());
        let key = Key { name: name.clone(), rtype: rtype.code() };
        self.store(key, CachedAnswer::Positive(set), now, ttl);
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
        let key = Key { name: name.clone(), rtype: rtype.code() };
        self.store(key, CachedAnswer::Negative { rcode }, now, ttl);
    }

    /// Fetch a live entry; expired entries are evicted. A positive hit
    /// hands out reference counts on the stored RRset, not a copy. On a
    /// bounded cache a hit also refreshes the entry's recency under the
    /// same lock acquisition.
    pub fn get(&self, name: &DnsName, rtype: RecordType, now: Timestamp) -> Option<CachedAnswer> {
        let (shard, bounded) = (self.shard_for(name), self.capacity.is_some());
        let looked = shard.lock_inner().look_up(name.name_ref(), rtype.code(), now, bounded);
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
        let (shard, bounded) = (self.shard_for(name), self.capacity.is_some());
        let mut inner = shard.lock_inner();
        let asked = inner.look_up(name.name_ref(), rtype.code(), now, bounded);
        let alias = match asked {
            Looked::Hit(_) => None,
            _ if rtype == RecordType::Cname => None,
            _ => Some(inner.look_up(name.name_ref(), RecordType::Cname.code(), now, bounded)),
        };
        drop(inner);
        if let Some(answer) = shard.count(asked) {
            return Some((rtype, answer));
        }
        shard.count(alias?).map(|answer| (RecordType::Cname, answer))
    }

    /// Age in seconds of the live entry at (name, type), if any.
    pub fn age(&self, name: &DnsName, rtype: RecordType, now: Timestamp) -> Option<u64> {
        let shard = self.shard_for(name);
        let inner = shard.lock_inner();
        let probe: &dyn Probe = &(name.name_ref(), rtype.code());
        inner.entries.get(probe).filter(|e| e.expires > now).map(|e| now.since(e.inserted))
    }

    /// Drop every entry (the testbed's "clear local DNS cache" step).
    pub fn flush(&self) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            inner.entries.clear();
            inner.lru.clear();
            inner.expiry.clear();
        }
    }

    /// Remove every entry that has expired as of `now` and return how
    /// many were removed. Unlike read-path expiry (which only removes
    /// the entry a lookup stumbles over), this reclaims *all* dead
    /// entries — the maintenance sweep a long-running serving process
    /// needs. Removals are counted in [`CacheStats::swept`].
    ///
    /// A maintenance path: its lock acquisitions are deliberately not
    /// counted in [`CacheStats::lock_acquisitions`].
    pub fn purge_expired(&self, now: Timestamp) -> u64 {
        let mut total = 0;
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            let removed = if self.capacity.is_some() {
                inner.sweep_expired(now)
            } else {
                let before = inner.entries.len();
                inner.entries.retain(|_, e| e.expires > now);
                (before - inner.entries.len()) as u64
            };
            drop(inner);
            if removed > 0 {
                shard.stats.swept.fetch_add(removed, Ordering::Relaxed);
                total += removed;
            }
        }
        total
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

    fn a_record(ttl: u32) -> Record {
        Record::new(name("a.com"), ttl, RData::A(Ipv4Addr::new(1, 2, 3, 4)))
    }

    fn a_set(records: &[Record]) -> RrSet {
        RrSet::from_records(records, &[])
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
        cache.insert_positive(&name(host), RecordType::A, a_set(&[a_record(ttl)]), Timestamp(now));
    }

    fn has(cache: &RecordCache, host: &str, now: u64) -> bool {
        cache.age(&name(host), RecordType::A, Timestamp(now)).is_some()
    }

    #[test]
    fn hit_until_ttl_expiry() {
        let cache = RecordCache::new();
        cache.insert_positive(&name("a.com"), RecordType::A, a_set(&[a_record(300)]), Timestamp(0));
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(299)).is_some());
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(300)).is_none());
        // After expiry the entry is evicted.
        assert_eq!(cache.len(), 0);
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.miss_expired, 1);
        assert_eq!(s.expirations(), 1);
        assert_eq!(s.miss_absent, 0);
    }

    #[test]
    fn miss_causes_are_distinguished() {
        let cache = RecordCache::new();
        // Nothing stored: an absent miss.
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(0)).is_none());
        cache.insert_positive(&name("a.com"), RecordType::A, a_set(&[a_record(300)]), Timestamp(0));
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
        let cache = RecordCache::new();
        cache.insert_negative(
            &name("n.com"),
            RecordType::Https,
            Rcode::NxDomain,
            300,
            Timestamp(0),
        );
        cache.insert_positive(&name("p.com"), RecordType::A, a_set(&[a_record(300)]), Timestamp(0));
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
        let cache = RecordCache::new();
        cache.insert_positive(&name("a.com"), RecordType::A, a_set(&[a_record(300)]), Timestamp(0));
        let _ = cache.get(&name("a.com"), RecordType::A, Timestamp(1));
        let _ = cache.age(&name("a.com"), RecordType::A, Timestamp(1));
        // insert + get + age: three hot-path acquisitions; flush() and
        // stats() are maintenance paths and deliberately uncounted.
        cache.flush();
        let s = cache.stats();
        assert_eq!(s.lock_acquisitions, 3);
        assert_eq!(s.lock_contended, 0, "single-threaded use never contends");
    }

    #[test]
    fn min_ttl_of_rrset_governs() {
        let cache = RecordCache::new();
        let records = a_set(&[a_record(300), a_record(60)]);
        cache.insert_positive(&name("a.com"), RecordType::A, records, Timestamp(0));
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(59)).is_some());
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(61)).is_none());
    }

    #[test]
    fn negative_caching() {
        let cache = RecordCache::new();
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
        cache.insert_positive(&name("a.com"), RecordType::A, a_set(&[a_record(300)]), Timestamp(0));
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(29)).is_some());
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(31)).is_none());
    }

    #[test]
    fn flush_clears() {
        let cache = RecordCache::new();
        cache.insert_positive(&name("a.com"), RecordType::A, a_set(&[a_record(300)]), Timestamp(0));
        cache.flush();
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn age_tracks_insertion() {
        let cache = RecordCache::new();
        cache.insert_positive(
            &name("a.com"),
            RecordType::A,
            a_set(&[a_record(300)]),
            Timestamp(100),
        );
        assert_eq!(cache.age(&name("a.com"), RecordType::A, Timestamp(150)), Some(50));
        assert_eq!(cache.age(&name("a.com"), RecordType::A, Timestamp(500)), None);
    }

    #[test]
    fn types_are_separate_keys() {
        let cache = RecordCache::new();
        cache.insert_positive(&name("a.com"), RecordType::A, a_set(&[a_record(300)]), Timestamp(0));
        assert!(cache.get(&name("a.com"), RecordType::Https, Timestamp(1)).is_none());
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(1)).is_some());
    }

    #[test]
    fn case_insensitive_keying() {
        let cache = RecordCache::new();
        cache.insert_positive(&name("A.COM"), RecordType::A, a_set(&[a_record(300)]), Timestamp(0));
        assert!(cache.get(&name("a.com"), RecordType::A, Timestamp(1)).is_some());
    }

    #[test]
    fn empty_rrset_not_inserted() {
        let cache = RecordCache::new();
        cache.insert_positive(&name("a.com"), RecordType::A, a_set(&[]), Timestamp(0));
        assert!(cache.is_empty());
    }

    #[test]
    fn single_shard_degenerate_case_works() {
        let cache = RecordCache::with_shards(1);
        assert_eq!(cache.shard_count(), 1);
        for i in 0..32 {
            let n = name(&format!("d{i}.example"));
            cache.insert_positive(&n, RecordType::A, a_set(&[a_record(60)]), Timestamp(0));
        }
        assert_eq!(cache.len(), 32);
        assert_eq!(cache.stats().insertions, 32);
    }

    #[test]
    fn entries_spread_across_shards() {
        let cache = RecordCache::with_shards(16);
        for i in 0..256 {
            let n = name(&format!("d{i}.example"));
            cache.insert_positive(&n, RecordType::A, a_set(&[a_record(60)]), Timestamp(0));
        }
        assert_eq!(cache.len(), 256);
        let populated = cache.shards.iter().filter(|s| !s.inner.lock().entries.is_empty()).count();
        assert!(populated > 8, "expected a spread, got {populated} populated shards");
    }

    #[test]
    fn shard_count_clamped_to_one() {
        let cache = RecordCache::with_shards(0);
        assert_eq!(cache.shard_count(), 1);
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

    #[test]
    fn purge_expired_reclaims_dead_entries() {
        // Unbounded: purge is the only way to reclaim un-looked-up dead
        // entries.
        let cache = RecordCache::new();
        insert(&cache, "short.example", 10, 0);
        insert(&cache, "long.example", 1000, 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.purge_expired(Timestamp(5)), 0);
        assert_eq!(cache.purge_expired(Timestamp(10)), 1);
        assert_eq!(cache.len(), 1);
        assert!(has(&cache, "long.example", 11));
        assert_eq!(cache.stats().swept, 1);

        // Bounded: same semantics through the expiry index.
        let cache = bounded(16);
        for i in 0..6 {
            insert(&cache, &format!("d{i}.example"), 10 + i as u32, 0);
        }
        assert_eq!(cache.purge_expired(Timestamp(12)), 3);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().swept, 3);
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
        let per_shard: u64 = (0..cache.shard_count())
            .map(|i| metrics.counter_value(&format!("cache.shard{i:02}.evictions")))
            .sum();
        assert_eq!(per_shard, evictions);
    }
}
