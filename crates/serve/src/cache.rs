//! Sharded exact-LRU verdict cache.
//!
//! Verdicts are pure functions of `(pack, value)`: a probe runs on the
//! pack's executor, which never changes after it is built, so a
//! cached `bool` can never go stale while the pack set is fixed (the
//! runtime is read-only; pack GC / hot-reload is a ROADMAP item). That
//! purity is what makes caching *transparent*: a hit returns exactly what
//! the probe would have computed.
//!
//! Layout: N independent shards, each a mutex around a slab of nodes.
//! A node stores its key `(pack, value)` once, its verdict, the key's
//! hash, and three slab links: `prev`/`next` in the shard's recency list
//! (most recently used at the head) and `chain`, the next node in the
//! same index bucket. The index is a power-of-two array of bucket heads.
//! One hash of `(pack, value)` picks both the shard (`hash % shards`, the
//! low bits) and the bucket (bits 32 and up), so the two choices do not
//! correlate. It is std's randomly keyed hasher, as in a `HashMap`,
//! because values arrive in requests: crafted values cannot pile into one
//! chain. A lookup walks one bucket chain and compares the stored pack
//! and value, not just the hash, so a 64-bit collision can never return
//! another key's verdict.
//!
//! Eviction is exact LRU within a shard, and `get`, `put` and eviction are
//! all O(1): a hit relinks its node at the head of the recency list, and a
//! miss on a full shard hands the tail node's slot to the new key. A full
//! cache evicts on every miss, so this is the common path on a cold
//! workload.

use std::hash::{BuildHasher, RandomState};
use std::sync::{Mutex, MutexGuard};

/// The null slab link.
const NIL: u32 = u32::MAX;

struct Node {
    value: Box<str>,
    pack: usize,
    hash: u64,
    verdict: bool,
    /// Neighbours in the recency list: `prev` is more recently used.
    prev: u32,
    next: u32,
    /// The next node in the same index bucket.
    chain: u32,
}

struct Shard {
    /// Grows to the shard's capacity, then only ever reuses slots.
    nodes: Vec<Node>,
    /// The first node of each bucket's chain; the length is a power of
    /// two, doubled whenever the nodes would outnumber it.
    buckets: Vec<u32>,
    /// The most and the least recently used node.
    head: u32,
    tail: u32,
}

impl Shard {
    fn bucket(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.buckets.len() - 1)
    }

    fn find(&self, hash: u64, pack: usize, value: &str) -> Option<u32> {
        let mut i = self.buckets[self.bucket(hash)];
        while i != NIL {
            let node = &self.nodes[i as usize];
            if node.hash == hash && node.pack == pack && *node.value == *value {
                return Some(i);
            }
            i = node.chain;
        }
        None
    }

    /// Take node `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Put an unlinked node `i` at the head of the recency list.
    fn link_front(&mut self, i: u32) {
        let old = self.head;
        let node = &mut self.nodes[i as usize];
        node.prev = NIL;
        node.next = old;
        match old {
            NIL => self.tail = i,
            o => self.nodes[o as usize].prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    fn chain_in(&mut self, i: u32) {
        let b = self.bucket(self.nodes[i as usize].hash);
        self.nodes[i as usize].chain = self.buckets[b];
        self.buckets[b] = i;
    }

    /// Take node `i` out of its bucket chain.
    fn chain_out(&mut self, i: u32) {
        let b = self.bucket(self.nodes[i as usize].hash);
        let after = self.nodes[i as usize].chain;
        if self.buckets[b] == i {
            self.buckets[b] = after;
            return;
        }
        let mut j = self.buckets[b];
        while self.nodes[j as usize].chain != i {
            j = self.nodes[j as usize].chain;
        }
        self.nodes[j as usize].chain = after;
    }

    /// Double the bucket array and rebuild every chain from the stored
    /// hashes.
    fn grow_index(&mut self) {
        self.buckets = vec![NIL; self.buckets.len() * 2];
        for i in 0..self.nodes.len() as u32 {
            self.chain_in(i);
        }
    }
}

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard
        .lock()
        .expect("no cache operation panics while holding its shard")
}

/// A sharded, exact-LRU cache of `(pack, value) → verdict`.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    packs: usize,
    hasher: RandomState,
}

impl ShardedLru {
    /// `shards` is rounded up to 1; `capacity` is the total entry budget,
    /// split evenly across shards (each shard gets at least one slot).
    /// Pack ids passed to [`get`](Self::get) and [`put`](Self::put) are
    /// below `packs`.
    pub fn new(shards: usize, capacity: usize, packs: usize) -> ShardedLru {
        let shards = shards.max(1);
        // Slab links are `u32`, with `NIL` reserved.
        let capacity_per_shard = (capacity / shards).clamp(1, NIL as usize);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        nodes: Vec::new(),
                        buckets: vec![NIL; 16],
                        head: NIL,
                        tail: NIL,
                    })
                })
                .collect(),
            capacity_per_shard,
            packs,
            hasher: RandomState::new(),
        }
    }

    fn hash(&self, pack: usize, value: &str) -> u64 {
        debug_assert!(pack < self.packs, "pack {pack} of {}", self.packs);
        self.hasher.hash_one((pack, value))
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        lock(&self.shards[(hash % self.shards.len() as u64) as usize])
    }

    /// Look up a verdict, marking the entry most recently used.
    pub fn get(&self, pack: usize, value: &str) -> Option<bool> {
        let hash = self.hash(pack, value);
        let mut shard = self.shard(hash);
        let i = shard.find(hash, pack, value)?;
        shard.touch(i);
        Some(shard.nodes[i as usize].verdict)
    }

    /// Insert (or refresh) a verdict. A full shard gives its least
    /// recently used entry's slot to the new one.
    pub fn put(&self, pack: usize, value: &str, verdict: bool) {
        let hash = self.hash(pack, value);
        let mut shard = self.shard(hash);
        if let Some(i) = shard.find(hash, pack, value) {
            shard.nodes[i as usize].verdict = verdict;
            shard.touch(i);
            return;
        }
        let node = Node {
            value: value.into(),
            pack,
            hash,
            verdict,
            prev: NIL,
            next: NIL,
            chain: NIL,
        };
        let i = if shard.nodes.len() < self.capacity_per_shard {
            if shard.nodes.len() == shard.buckets.len() {
                shard.grow_index();
            }
            shard.nodes.push(node);
            (shard.nodes.len() - 1) as u32
        } else {
            let i = shard.tail;
            shard.unlink(i);
            shard.chain_out(i);
            shard.nodes[i as usize] = node;
            i
        };
        shard.chain_in(i);
        shard.link_front(i);
    }

    /// Total entries across all shards (metrics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).nodes.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_put_round_trips_per_pack() {
        let cache = ShardedLru::new(4, 64, 2);
        cache.put(0, "4111", true);
        cache.put(1, "4111", false);
        assert_eq!(cache.get(0, "4111"), Some(true));
        assert_eq!(cache.get(1, "4111"), Some(false));
        assert_eq!(cache.get(0, "other"), None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        // One shard, capacity 2: inserting a third entry evicts the least
        // recently touched one.
        let cache = ShardedLru::new(1, 2, 1);
        cache.put(0, "a", true);
        cache.put(0, "b", true);
        assert_eq!(cache.get(0, "a"), Some(true)); // refresh "a"
        cache.put(0, "c", true);
        assert_eq!(cache.get(0, "b"), None, "b was LRU and must be evicted");
        assert_eq!(cache.get(0, "a"), Some(true));
        assert_eq!(cache.get(0, "c"), Some(true));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn refresh_does_not_grow_the_cache() {
        let cache = ShardedLru::new(1, 2, 1);
        cache.put(0, "a", true);
        cache.put(0, "a", false);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(0, "a"), Some(false));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(ShardedLru::new(8, 1024, 4));
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..256 {
                        let v = format!("v{}", i % 64);
                        cache.put(t, &v, i % 2 == 0);
                        cache.get(t, &v);
                    }
                });
            }
        });
        assert!(cache.len() <= 1024);
    }

    /// A deterministic splitmix64 stream for the model-based tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// A naive exact LRU: entries ordered most recently used first.
    struct Reference {
        entries: Vec<(usize, String, bool)>,
        capacity: usize,
    }

    impl Reference {
        fn take(&mut self, pack: usize, value: &str) -> Option<(usize, String, bool)> {
            let at = self
                .entries
                .iter()
                .position(|(p, v, _)| *p == pack && v == value)?;
            Some(self.entries.remove(at))
        }

        fn get(&mut self, pack: usize, value: &str) -> Option<bool> {
            let entry = self.take(pack, value)?;
            let verdict = entry.2;
            self.entries.insert(0, entry);
            Some(verdict)
        }

        fn put(&mut self, pack: usize, value: &str, verdict: bool) {
            if self.take(pack, value).is_none() && self.entries.len() == self.capacity {
                self.entries.pop();
            }
            self.entries.insert(0, (pack, value.to_string(), verdict));
        }
    }

    /// Seeded random gets and puts over `packs` packs and a key space
    /// about twice the capacity, so the cache is full and evicting for
    /// most of the run. Calls `check` after every operation with the
    /// operation, the key, and the cache's answer to a `get`.
    fn drive(
        cache: &ShardedLru,
        packs: usize,
        capacity: usize,
        seed: u64,
        mut check: impl FnMut(bool, usize, &str, bool, Option<bool>),
    ) {
        let mut rng = Rng(seed);
        for _ in 0..4000 {
            let pack = rng.below(packs as u64) as usize;
            let value = format!("v{}", rng.below(2 * capacity as u64 / packs as u64 + 1));
            if rng.below(2) == 0 {
                check(false, pack, &value, false, cache.get(pack, &value));
            } else {
                let verdict = rng.below(2) == 0;
                cache.put(pack, &value, verdict);
                check(true, pack, &value, verdict, None);
            }
        }
    }

    #[test]
    fn one_shard_matches_a_naive_exact_lru() {
        for (seed, capacity, packs) in [(1, 64, 3), (2, 100, 5), (3, 1, 2), (4, 257, 4)] {
            let cache = ShardedLru::new(1, capacity, packs);
            let mut reference = Reference {
                entries: Vec::new(),
                capacity,
            };
            drive(
                &cache,
                packs,
                capacity,
                seed,
                |is_put, pack, value, verdict, got| {
                    if is_put {
                        reference.put(pack, value, verdict);
                    } else {
                        assert_eq!(got, reference.get(pack, value), "get({pack}, {value})");
                    }
                    assert_eq!(cache.len(), reference.entries.len());
                },
            );
        }
    }

    #[test]
    fn sixteen_shards_return_the_last_verdict_put_and_stay_bounded() {
        for (seed, capacity, packs) in [(5, 256, 3), (6, 1000, 7)] {
            let cache = ShardedLru::new(16, capacity, packs);
            let mut last = std::collections::HashMap::new();
            let mut hits = 0;
            drive(
                &cache,
                packs,
                capacity,
                seed,
                |is_put, pack, value, verdict, got| {
                    if is_put {
                        last.insert((pack, value.to_string()), verdict);
                    } else if let Some(got) = got {
                        hits += 1;
                        assert_eq!(Some(&got), last.get(&(pack, value.to_string())));
                    }
                    assert!(cache.len() <= capacity);
                },
            );
            assert!(hits > 0, "the run must exercise hits");
        }
    }
}
