//! The one hit/miss-metered cache behind every serving cache level.
//!
//! The L1 result cache, the L2 MCC memo and the L3 LLM response cache
//! differ only in their value type, their lifetime (which the serving
//! layer decides) and the names of their two counters — so they are
//! all this one type.

use crate::metrics::MetricsRegistry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, thread-safe `u64`-keyed cache that counts its hits and
/// misses. Cheap to clone — all clones share one store and one pair of
/// counters, so a worker pool deduplicates work across threads.
///
/// `S` picks the map's hasher; the keys are content hashes the program
/// computes itself, so callers plug in a fast unkeyed one.
#[derive(Debug)]
pub struct MeteredCache<V, S> {
    shared: Arc<Shared<V, S>>,
}

#[derive(Debug)]
struct Shared<V, S> {
    store: Mutex<Store<V, S>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug)]
struct Store<V, S> {
    entries: HashMap<u64, V, S>,
    /// The registry plus this level's hit and miss counter names.
    metrics: Option<(MetricsRegistry, &'static str, &'static str)>,
}

impl<V, S> Clone for MeteredCache<V, S> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<V, S: Default> Default for MeteredCache<V, S> {
    fn default() -> Self {
        Self {
            shared: Arc::new(Shared {
                store: Mutex::new(Store {
                    entries: HashMap::default(),
                    metrics: None,
                }),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }
}

impl<V: Clone, S: BuildHasher + Default> MeteredCache<V, S> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a metrics registry: lookups bump counter `hits` or
    /// `misses`.
    pub fn attach_metrics(
        &self,
        metrics: MetricsRegistry,
        hits: &'static str,
        misses: &'static str,
    ) {
        self.shared.store.lock().metrics = Some((metrics, hits, misses));
    }

    /// Looks up an entry, counting the hit or miss.
    pub fn get(&self, key: u64) -> Option<V> {
        let store = self.shared.store.lock();
        let found = store.entries.get(&key).cloned();
        let hit = found.is_some();
        if let Some((registry, hits, misses)) = &store.metrics {
            registry.inc(if hit { hits } else { misses }, 1);
        }
        let counter = if hit {
            &self.shared.hits
        } else {
            &self.shared.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores an entry.
    pub fn put(&self, key: u64, value: V) {
        self.shared.store.lock().entries.insert(key, value);
    }

    /// Drops every entry. Counters survive — they describe the run,
    /// not the cache's current contents.
    pub fn clear(&self) {
        self.shared.store.lock().entries.clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shared.store.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.shared.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.shared.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::RandomState;

    #[test]
    fn counts_hits_and_misses_shares_clones_and_clear_keeps_counters() {
        let cache: MeteredCache<String, RandomState> = MeteredCache::new();
        let metrics = MetricsRegistry::new();
        cache.attach_metrics(metrics.clone(), "t_hits_total", "t_misses_total");
        assert!(cache.get(7).is_none());
        cache.put(7, "seven".to_string());
        assert_eq!(cache.get(7).as_deref(), Some("seven"));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Clones share the store and the counters.
        let alias = cache.clone();
        assert_eq!(alias.len(), 1);
        assert!(alias.get(7).is_some());
        assert_eq!(cache.hits(), 2);
        alias.clear();
        assert!(cache.is_empty());
        assert!(cache.get(7).is_none());
        // Clearing drops entries, never counts.
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("t_hits_total"), 2);
        assert_eq!(snap.counter("t_misses_total"), 2);
    }
}
