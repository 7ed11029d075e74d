//! The content-addressed compile cache.
//!
//! Compile results are cached under a `CacheKey`: a [`Fingerprint`] of
//! a job's shape (a template circuit), the device (topology + full
//! calibration tables), the strategy and the routing policy. An entry
//! keeps the key's content beside the report, and a hit compares it in
//! full, so two inputs whose 128-bit hashes collide never share an
//! entry: the lookup misses and counts a key collision.
//! Eviction is LRU with a fixed entry capacity; hits, misses, collisions,
//! insertions and evictions are counted so batch reports can prove a warm
//! run recompiled nothing.

use caqr::{CompileReport, RouterConfig, Strategy};
use caqr_arch::Device;
use caqr_circuit::fingerprint::{Fingerprint, StableHasher};
use caqr_circuit::ParametricCircuit;
use std::collections::HashMap;
use std::sync::Mutex;

/// The tag every key hashes first. Bumping it would re-key every entry;
/// it stays as it is so that no fingerprint moves.
const DOMAIN: &str = "caqr/shape-job/v1";

/// Counters describing cache behaviour so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached report.
    pub hits: u64,
    /// Lookups that found nothing, or found an entry with other content.
    pub misses: u64,
    /// Reports inserted.
    pub insertions: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Misses that found an entry under the same fingerprint but with
    /// other content: hash collisions the stored key caught.
    pub key_collisions: u64,
}

/// A cache key: the content a compile depends on, and its fingerprint.
///
/// The content is a template circuit (a job's circuit with its angles
/// lifted into slots), the strategy, the routing policy's
/// [`RouterConfig::cache_tag`] and the device's fingerprint. The
/// fingerprint hashes all of it; [`CompileCache`] keeps the content with
/// each entry and compares it on every hit.
#[derive(Debug)]
pub(crate) struct CacheKey {
    fingerprint: Fingerprint,
    template: ParametricCircuit,
    strategy: Strategy,
    router_tag: String,
    device: Fingerprint,
}

impl CacheKey {
    /// The key of compiling `template` onto `device` under `strategy`
    /// and `router`.
    pub(crate) fn new(
        template: ParametricCircuit,
        strategy: Strategy,
        router: &RouterConfig,
        device: &Device,
    ) -> Self {
        let router_tag = router.cache_tag();
        let device = device.fingerprint();
        let mut h = StableHasher::new();
        h.write_str(DOMAIN);
        h.write_str(&strategy.to_string());
        h.write_str(&router_tag);
        let fingerprint = h
            .finish()
            .combine(template.template_fingerprint())
            .combine(device);
        CacheKey {
            fingerprint,
            template,
            strategy,
            router_tag,
            device,
        }
    }

    /// The 128-bit hash the cache indexes by.
    pub(crate) fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Whether `self` and `other` hold the same content. Template angles
    /// compare by bit pattern, since slot angles are NaN and never `==`.
    fn same_content(&self, other: &CacheKey) -> bool {
        self.strategy == other.strategy
            && self.device == other.device
            && self.router_tag == other.router_tag
            && self.template.same_template(&other.template)
    }
}

#[derive(Debug)]
struct Entry {
    key: CacheKey,
    report: CompileReport,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u128, Entry>,
    stats: CacheStats,
    tick: u64,
}

/// A thread-safe LRU cache of compile reports keyed by `CacheKey`.
///
/// All methods take `&self`; the cache is shared freely across worker
/// threads.
#[derive(Debug)]
pub struct CompileCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl CompileCache {
    /// A cache holding at most `capacity` reports.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — use no cache at all instead.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CompileCache {
            inner: Mutex::new(Inner::default()),
            capacity,
        }
    }

    /// The maximum number of cached reports.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of currently cached reports.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Returns `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks `key` up, cloning the report on a hit and refreshing its
    /// recency. An entry under the same fingerprint whose content differs
    /// from `key`'s is a miss, counted as a key collision.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<CompileReport> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key.fingerprint.as_u128()) {
            Some(entry) if entry.key.same_content(key) => {
                entry.last_used = tick;
                let report = entry.report.clone();
                inner.stats.hits += 1;
                Some(report)
            }
            Some(_) => {
                inner.stats.misses += 1;
                inner.stats.key_collisions += 1;
                None
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Stores `report` under `key`, evicting the least-recently-used entry
    /// if the cache is full. An entry under the same fingerprint is
    /// replaced.
    pub(crate) fn insert(&self, key: CacheKey, report: CompileReport) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let slot = key.fingerprint.as_u128();
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&slot) {
            if let Some(&lru_key) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&lru_key);
                inner.stats.evictions += 1;
            }
        }
        inner.stats.insertions += 1;
        inner.map.insert(
            slot,
            Entry {
                key,
                report,
                last_used: tick,
            },
        );
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache lock").stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::{Circuit, Qubit};

    fn report_for(tag: usize) -> CompileReport {
        caqr::compile(&circuit(tag), &Device::mumbai(1), Strategy::Baseline).unwrap()
    }

    fn circuit(tag: usize) -> Circuit {
        let mut c = Circuit::new(2, 0);
        for _ in 0..tag {
            c.h(Qubit::new(0));
        }
        c
    }

    /// The key of `circuit(tag)`, forced onto `Fingerprint(slot)`.
    fn key(slot: u128, tag: usize) -> CacheKey {
        let (template, _) = ParametricCircuit::parametrize(&circuit(tag));
        CacheKey {
            fingerprint: Fingerprint(slot),
            ..CacheKey::new(
                template,
                Strategy::Baseline,
                &RouterConfig::default(),
                &Device::mumbai(1),
            )
        }
    }

    #[test]
    fn hit_returns_equal_report() {
        let cache = CompileCache::new(4);
        let report = report_for(1);
        cache.insert(key(1, 1), report.clone());
        let got = cache.get(&key(1, 1)).expect("hit");
        assert_eq!(got.circuit, report.circuit);
        assert_eq!(got.depth, report.depth);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn miss_is_counted() {
        let cache = CompileCache::new(4);
        assert!(cache.get(&key(9, 1)).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                misses: 1,
                ..Default::default()
            }
        );
    }

    /// Two contents forced under one fingerprint: the stored content
    /// refuses the other's lookup, which counts as a collision.
    #[test]
    fn colliding_fingerprints_never_share_an_entry() {
        let cache = CompileCache::new(4);
        cache.insert(key(7, 1), report_for(1));
        assert!(
            cache.get(&key(7, 2)).is_none(),
            "another circuit under the same fingerprint must miss"
        );
        let mut other_strategy = key(7, 1);
        other_strategy.strategy = Strategy::Sr;
        assert!(cache.get(&other_strategy).is_none());
        let mut other_device = key(7, 1);
        other_device.device = Device::mumbai(2).fingerprint();
        assert!(cache.get(&other_device).is_none());
        let mut other_router = key(7, 1);
        other_router.router_tag = "dpqa/hop".into();
        assert!(cache.get(&other_router).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                misses: 4,
                key_collisions: 4,
                insertions: 1,
                ..Default::default()
            }
        );
        assert!(cache.get(&key(7, 1)).is_some(), "the stored content hits");
        // The colliding compile replaces the entry under its fingerprint.
        cache.insert(key(7, 2), report_for(2));
        assert_eq!(
            cache.get(&key(7, 2)).unwrap().circuit,
            report_for(2).circuit
        );
        assert!(cache.get(&key(7, 1)).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let cache = CompileCache::new(2);
        cache.insert(key(1, 1), report_for(1));
        cache.insert(key(2, 2), report_for(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1, 1)).is_some());
        cache.insert(key(3, 3), report_for(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, 1)).is_some(), "recently used survives");
        assert!(cache.get(&key(2, 2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(3, 3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let cache = CompileCache::new(2);
        cache.insert(key(1, 1), report_for(1));
        cache.insert(key(2, 2), report_for(2));
        cache.insert(key(2, 2), report_for(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        CompileCache::new(0);
    }
}
