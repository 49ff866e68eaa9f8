//! Heap-backed ready structures for the dispatch hot path.
//!
//! The original scheduler re-scanned every tenant and every replica on
//! each event (`best_candidate`, `argmin_replica` — O(tenants ×
//! replicas) per dispatch). The structures here replace those scans with
//! lazy-deletion binary heaps at O(log n) per update, *without changing
//! a single scheduling decision*: each heap pops exactly the minimum the
//! linear scan would have found, with the identical tie-break (lowest
//! id wins on equal keys — `BinaryHeap` over `Reverse<(key, id)>` orders
//! ties by id ascending for free).
//!
//! Lazy deletion means stale entries stay in the heap until they
//! surface: every pop validates the entry against the current state and
//! silently discards outdated ones. The heaps therefore hold at most one
//! *valid* entry per element plus a bounded number of stale ones (each
//! update pushes one entry, so total pushes bound total pops).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Replica free-list: answers "which replica frees earliest?" in
/// O(log R) per update instead of an O(R) scan, with the scan's exact
/// tie-break (equal free times → lowest replica id).
///
/// Replicas can be added (autoscale up) and retired (autoscale down) at
/// any time; retired replicas are removed lazily as their entries
/// surface.
#[derive(Debug, Clone)]
pub struct ReplicaPool {
    /// Current free time per replica id (dense, never shrinks).
    free: Vec<u64>,
    /// Retired replicas no longer participate in dispatch.
    retired: Vec<bool>,
    /// Lazy min-heap of `(free_ns, id)` candidates.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    active: usize,
}

impl ReplicaPool {
    /// `n` replicas, all free at t = 0.
    pub fn new(n: usize) -> Self {
        ReplicaPool {
            free: vec![0; n],
            retired: vec![false; n],
            heap: (0..n).map(|r| Reverse((0, r))).collect(),
            active: n,
        }
    }

    /// Replicas ever created (including retired ones).
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Replicas currently dispatchable.
    pub fn active(&self) -> usize {
        self.active
    }

    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Whether replica `r` has been retired.
    pub fn is_retired(&self, r: usize) -> bool {
        self.retired[r]
    }

    /// The earliest-free active replica `(free_ns, id)` without removing
    /// it; ties break to the lowest id. Discards stale heap entries.
    pub fn peek_min(&mut self) -> Option<(u64, usize)> {
        while let Some(&Reverse((t, r))) = self.heap.peek() {
            if !self.retired[r] && self.free[r] == t {
                return Some((t, r));
            }
            self.heap.pop();
        }
        None
    }

    /// Linear-scan reference of [`peek_min`](Self::peek_min): min over
    /// `(free, id)` of the active replicas. The scan-mode scheduler uses
    /// this so the reference driver exercises the original O(R) cost.
    pub fn scan_min(&self) -> Option<(u64, usize)> {
        (0..self.free.len())
            .filter(|&r| !self.retired[r])
            .map(|r| (self.free[r], r))
            .min()
    }

    /// Publish a new free time for replica `r` (after dispatching to it
    /// or pausing it). Free times may move in either direction; the old
    /// heap entry goes stale and is discarded lazily.
    pub fn set_free(&mut self, r: usize, t: u64) {
        self.free[r] = t;
        if !self.retired[r] {
            self.heap.push(Reverse((t, r)));
        }
    }

    /// Add a fresh replica free at `t`; returns its id (dense,
    /// monotonically increasing).
    pub fn add(&mut self, t: u64) -> usize {
        let r = self.free.len();
        self.free.push(t);
        self.retired.push(false);
        self.heap.push(Reverse((t, r)));
        self.active += 1;
        r
    }

    /// Retire replica `r`: it finishes any in-flight batch (its free
    /// time stays meaningful) but takes no further dispatches.
    pub fn retire(&mut self, r: usize) {
        if !self.retired[r] {
            self.retired[r] = true;
            self.active -= 1;
        }
    }

    /// Ids of the active replicas, ascending.
    pub fn active_ids(&self) -> Vec<usize> {
        (0..self.free.len()).filter(|&r| !self.retired[r]).collect()
    }
}

/// Lazy min-heap over `(key, id)` pairs whose validity is versioned by a
/// per-id stamp: bump the stamp whenever an id's key changes (or the id
/// leaves this structure's domain) and push a fresh entry if it still
/// has one. Pops discard entries whose stamp is no longer current.
///
/// Used for the tenant ready-heap (key = earliest dispatchable instant)
/// and sized by external ids, so shards can migrate tenants between
/// heaps by bumping the stamp on both sides.
#[derive(Debug, Clone, Default)]
pub struct StampedHeap {
    heap: BinaryHeap<Reverse<(u64, usize, u64)>>,
}

impl StampedHeap {
    pub fn new() -> Self {
        StampedHeap {
            heap: BinaryHeap::new(),
        }
    }

    /// Insert `(key, id)` valid while `stamp` is the id's current stamp.
    pub fn push(&mut self, key: u64, id: usize, stamp: u64) {
        self.heap.push(Reverse((key, id, stamp)));
    }

    /// The minimum `(key, id)` whose entry is still current, without
    /// removing it. `current` returns the id's present stamp (stale
    /// entries carry an older stamp and are discarded).
    pub fn peek_valid(&mut self, mut current: impl FnMut(usize) -> u64) -> Option<(u64, usize)> {
        while let Some(&Reverse((k, id, stamp))) = self.heap.peek() {
            if current(id) == stamp {
                return Some((k, id));
            }
            self.heap.pop();
        }
        None
    }

    /// Entries currently stored (valid + stale) — used by tests to bound
    /// the lazy-deletion overhead.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_ties_break_to_lowest_id_like_the_scan() {
        let mut p = ReplicaPool::new(4);
        // All free at 0: the scan picks replica 0, and so must the heap.
        assert_eq!(p.peek_min(), Some((0, 0)));
        assert_eq!(p.peek_min(), p.scan_min());
        // Tie at a later instant between replicas 2 and 1 (pushed in
        // that order): lowest id still wins.
        p.set_free(0, 100);
        p.set_free(3, 90);
        p.set_free(2, 50);
        p.set_free(1, 50);
        assert_eq!(p.peek_min(), Some((50, 1)));
        assert_eq!(p.peek_min(), p.scan_min());
        // Breaking the tie flips to the remaining minimum.
        p.set_free(1, 51);
        assert_eq!(p.peek_min(), Some((50, 2)));
        assert_eq!(p.peek_min(), p.scan_min());
    }

    #[test]
    fn pool_matches_scan_under_random_updates() {
        // Deterministic LCG-driven fuzz: after every update the heap and
        // the scan must agree exactly (value and id).
        let mut p = ReplicaPool::new(5);
        let mut x = 0x2545F491u64;
        for step in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (x >> 33) as usize % p.len();
            if !p.is_retired(r) {
                p.set_free(r, (x >> 7) % 10_000);
            }
            if step % 97 == 0 && p.active() > 1 {
                p.retire(r);
            }
            if step % 193 == 0 {
                p.add((x >> 11) % 10_000);
            }
            assert_eq!(p.peek_min(), p.scan_min(), "step {step}");
        }
    }

    #[test]
    fn retired_replicas_never_win() {
        let mut p = ReplicaPool::new(3);
        p.set_free(0, 10);
        p.set_free(1, 20);
        p.set_free(2, 30);
        p.retire(0);
        assert_eq!(p.peek_min(), Some((20, 1)));
        assert_eq!(p.active(), 2);
        p.retire(1);
        p.retire(2);
        assert_eq!(p.peek_min(), None);
        assert_eq!(p.scan_min(), None);
    }

    #[test]
    fn added_replicas_join_dispatch() {
        let mut p = ReplicaPool::new(1);
        p.set_free(0, 1000);
        let r = p.add(500);
        assert_eq!(r, 1);
        assert_eq!(p.peek_min(), Some((500, 1)));
        // A new replica tying an old one loses to the lower id.
        let r2 = p.add(500);
        assert_eq!(r2, 2);
        assert_eq!(p.peek_min(), Some((500, 1)));
        assert_eq!(p.peek_min(), p.scan_min());
    }

    #[test]
    fn stamped_heap_discards_stale_entries() {
        let mut h = StampedHeap::new();
        let mut stamps = [0u64; 3];
        h.push(100, 0, stamps[0]);
        h.push(50, 1, stamps[1]);
        h.push(75, 2, stamps[2]);
        assert_eq!(h.peek_valid(|id| stamps[id]), Some((50, 1)));
        // Id 1's key changes: bump its stamp, push the new entry.
        stamps[1] += 1;
        h.push(120, 1, stamps[1]);
        assert_eq!(h.peek_valid(|id| stamps[id]), Some((75, 2)));
        // Invalidate everything: empty.
        stamps = [9, 9, 9];
        assert_eq!(h.peek_valid(|id| stamps[id]), None);
        assert!(h.is_empty());
    }

    #[test]
    fn stamped_heap_ties_break_to_lowest_id() {
        let mut h = StampedHeap::new();
        h.push(10, 2, 0);
        h.push(10, 0, 0);
        h.push(10, 1, 0);
        assert_eq!(h.peek_valid(|_| 0), Some((10, 0)));
    }
}
