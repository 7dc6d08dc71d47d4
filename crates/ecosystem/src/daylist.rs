//! A shared, memoizing cache of daily Tranco lists.
//!
//! `World::step_to_day`, `TrancoModel::overlapping`, and the scanner all
//! need "the list for day *d*" — historically each call site recomputed
//! it from scratch (an O(population) scoring pass plus a selection).
//! [`DayListCache`] computes a list the first time some consumer asks
//! for its day and hands every consumer the same `Arc<DailyList>`, so a
//! multi-layer campaign pays the scoring cost once per *requested* day
//! instead of once per consumer. Days nobody asks for are never scored:
//! `step_to_day` requests the day it lands on, not the days it walks
//! through.
//!
//! The cache is capacity-bounded with LRU eviction: day access patterns
//! are overwhelmingly monotonic (world stepping, overlap windows), so a
//! small capacity captures all the sharing while keeping a 100 k-entry
//! list universe from pinning hundreds of megabytes. Hit/miss counters
//! are plain atomics — observational only, never part of simulation
//! state.

use crate::tranco::DailyList;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of day lists kept alive (see [`DayListCache::new`]).
pub const DEFAULT_DAY_CACHE_CAPACITY: usize = 32;

struct Inner {
    map: HashMap<u64, Arc<DailyList>>,
    /// Access order, least-recently-used first.
    lru: VecDeque<u64>,
}

/// Memoizing day → [`DailyList`] cache. See the module docs.
pub struct DayListCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DayListCache {
    /// A cache holding at most `capacity` day lists (clamped to ≥ 1).
    pub fn new(capacity: usize) -> DayListCache {
        DayListCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner { map: HashMap::new(), lru: VecDeque::new() }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cached list for `day`, computing it with `compute` on a miss.
    ///
    /// The compute closure runs outside the cache lock; if two threads
    /// race on the same missing day the first insert wins and both get
    /// the same `Arc` (day lists are deterministic, so the discarded
    /// duplicate is byte-identical).
    pub fn get_or_compute(&self, day: u64, compute: impl FnOnce() -> DailyList) -> Arc<DailyList> {
        {
            let mut inner = self.lock();
            if let Some(list) = inner.map.get(&day).cloned() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                touch(&mut inner.lru, day);
                return list;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(compute());
        let mut inner = self.lock();
        if let Some(existing) = inner.map.get(&day).cloned() {
            // Lost the compute race; keep the canonical entry.
            touch(&mut inner.lru, day);
            return existing;
        }
        while inner.map.len() >= self.capacity {
            if let Some(evict) = inner.lru.pop_front() {
                inner.map.remove(&evict);
            } else {
                break;
            }
        }
        inner.map.insert(day, fresh.clone());
        inner.lru.push_back(day);
        fresh
    }

    /// Number of cached day lists.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far (observational).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= lists actually computed) so far (observational).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drop every cached list (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.lru.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Move `day` to the most-recently-used end of the order queue.
fn touch(lru: &mut VecDeque<u64>, day: u64) {
    if let Some(pos) = lru.iter().position(|&d| d == day) {
        lru.remove(pos);
    }
    lru.push_back(day);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(ids: &[u32]) -> DailyList {
        DailyList::new(ids.to_vec())
    }

    #[test]
    fn memoizes_and_shares_one_arc() {
        let cache = DayListCache::new(4);
        let a = cache.get_or_compute(3, || list(&[1, 2, 3]));
        let b = cache.get_or_compute(3, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = DayListCache::new(2);
        cache.get_or_compute(0, || list(&[0]));
        cache.get_or_compute(1, || list(&[1]));
        // Touch day 0 so day 1 is the LRU victim.
        cache.get_or_compute(0, || panic!("cached"));
        cache.get_or_compute(2, || list(&[2]));
        assert_eq!(cache.len(), 2);
        cache.get_or_compute(0, || panic!("still cached"));
        let mut recomputed = false;
        cache.get_or_compute(1, || {
            recomputed = true;
            list(&[1])
        });
        assert!(recomputed, "day 1 should have been evicted");
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let cache = DayListCache::new(0);
        cache.get_or_compute(0, || list(&[0]));
        assert_eq!(cache.len(), 1);
        cache.get_or_compute(1, || list(&[1]));
        assert_eq!(cache.len(), 1);
    }
}
