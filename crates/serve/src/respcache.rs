//! A body-addressed cache of whole success responses.
//!
//! Every compute endpoint is a deterministic pure function of its request
//! body: compilation is seeded and pass-ordered, simulation is seeded
//! Monte-Carlo. Two requests with byte-identical bodies therefore get
//! byte-identical `200` responses — so the serve tier can answer a repeat
//! request from cache without touching the engine, the device builder, or
//! the JSON encoder. This is what lets the reactor answer steady-state
//! traffic inline on the event-loop thread at microsecond cost.
//!
//! The one field that legitimately differs between a first and a repeat
//! compile response is `"cache_hit"`. Entries record where the literal
//! `false` sits in the stored bytes; a hit splices `true` into that spot,
//! reproducing exactly the bytes the engine path would have produced on
//! its own cache hit (the golden-corpus byte-identity property survives).
//!
//! Only `200` responses to `/v1/compile`, `/v1/simulate` and
//! `/v1/bind-run` are cached, each endpoint in a namespace of its own.
//! Errors are cheap to recompute and must reflect current server state;
//! batch responses are large, rarer, and carry per-entry `cache_hit`
//! fields, so they go to the engine every time; streamed bodies can be
//! megabytes, too large to keep as keys.

use caqr_circuit::fingerprint::StableHasher;
use std::collections::HashMap;
use std::sync::Mutex;

struct Inner {
    map: HashMap<u128, Entry>,
    capacity: usize,
    tick: u64,
}

struct Entry {
    body: Vec<u8>,
    /// Byte offset of the literal `false` following `"cache_hit":`, when
    /// the body carries that field.
    hit_splice: Option<usize>,
    last_used: u64,
}

/// A content-addressed LRU over full response bodies, keyed by a 128-bit
/// fingerprint of (endpoint, request body). Same recency discipline as
/// the engine's `CompileCache`: a monotone tick, min-scan eviction.
#[derive(Debug)]
pub struct ResponseCache {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("entries", &self.map.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl ResponseCache {
    /// A cache holding at most `capacity` responses.
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                capacity: capacity.max(1),
                tick: 0,
            }),
        }
    }

    /// The response body for this (endpoint, request body), if cached.
    /// Compile entries come back with `"cache_hit":true` spliced in.
    pub fn lookup(&self, endpoint: u8, request_body: &[u8]) -> Option<Vec<u8>> {
        let key = fingerprint(endpoint, request_body);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(&key)?;
        entry.last_used = tick;
        Some(match entry.hit_splice {
            None => entry.body.clone(),
            Some(at) => {
                let mut body = Vec::with_capacity(entry.body.len());
                body.extend_from_slice(&entry.body[..at]);
                body.extend_from_slice(b"true");
                body.extend_from_slice(&entry.body[at + b"false".len()..]);
                body
            }
        })
    }

    /// Stores a success response body. The `"cache_hit":false` marker, if
    /// present, is located now so hits splice in O(len) with no search.
    pub fn store(&self, endpoint: u8, request_body: &[u8], response_body: &[u8]) {
        let key = fingerprint(endpoint, request_body);
        // `"cache_hit"` precedes the (string-escaped) circuit field in the
        // response object, and JSON string escaping means the raw marker
        // bytes cannot appear inside any string value — the first match is
        // always the real field.
        const MARKER: &[u8] = b"\"cache_hit\":false";
        let hit_splice = find(response_body, MARKER).map(|at| at + MARKER.len() - b"false".len());

        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= inner.capacity && !inner.map.contains_key(&key) {
            if let Some(&oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(
            key,
            Entry {
                body: response_body.to_vec(),
                hit_splice,
                last_used: tick,
            },
        );
    }

    /// The number of cached responses.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// The 128-bit content key of (endpoint, body): the same stable FNV-1a
/// hasher as the engine's compile-cache fingerprints.
fn fingerprint(endpoint: u8, body: &[u8]) -> u128 {
    let mut h = StableHasher::new();
    h.write_u8(endpoint);
    h.write_bytes(body);
    h.finish().as_u128()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splices_cache_hit_and_leaves_plain_bodies_alone() {
        let cache = ResponseCache::new(4);
        let response = br#"{"ok":true,"cache_hit":false,"circuit":{}}"#;
        cache.store(1, b"req", response);
        let hit = cache.lookup(1, b"req").unwrap();
        assert_eq!(
            hit,
            br#"{"ok":true,"cache_hit":true,"circuit":{}}"#.to_vec()
        );

        cache.store(2, b"sim", br#"{"shots":16,"counts":{"0":16}}"#);
        let plain = cache.lookup(2, b"sim").unwrap();
        assert_eq!(plain, br#"{"shots":16,"counts":{"0":16}}"#.to_vec());
    }

    #[test]
    fn endpoint_and_body_both_address_the_entry() {
        let cache = ResponseCache::new(4);
        cache.store(1, b"body", b"compile");
        assert!(cache.lookup(2, b"body").is_none(), "endpoint is in the key");
        assert!(cache.lookup(1, b"other").is_none(), "body is in the key");
        assert_eq!(cache.lookup(1, b"body").unwrap(), b"compile".to_vec());
    }

    /// The key of one fixed request, pinned to the value the response
    /// cache has always computed for it: FNV-1a 128 over the endpoint
    /// byte, then the body.
    #[test]
    fn key_of_a_fixed_request_is_pinned() {
        let body = br#"{"qasm":"OPENQASM 2.0;","strategy":"sr"}"#;
        assert_eq!(
            fingerprint(1, body),
            0xb5df_b204_84c2_dd2b_6f41_6d85_b4d9_910b
        );
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = ResponseCache::new(2);
        cache.store(1, b"a", b"ra");
        cache.store(1, b"b", b"rb");
        cache.lookup(1, b"a"); // refresh a
        cache.store(1, b"c", b"rc"); // evicts b
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1, b"b").is_none());
        assert!(cache.lookup(1, b"a").is_some());
        assert!(cache.lookup(1, b"c").is_some());
    }
}
