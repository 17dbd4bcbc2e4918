//! A generic set-associative cache array with LRU replacement and
//! last-access timestamps (the timestamps drive both LRU and the
//! inter-cluster victim-replacement age comparison of Section 3.3).

use crate::address::{LineAddr, LINE_BYTES};

/// Geometry of a cache array of [`LINE_BYTES`]-byte lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheGeometry {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield at least one full set.
    pub fn sets(&self) -> usize {
        let lines = (self.size_bytes / u64::from(LINE_BYTES)) as usize;
        assert!(
            lines >= self.ways && lines.is_multiple_of(self.ways),
            "cache of {} bytes with {LINE_BYTES}-byte lines cannot be {}-way",
            self.size_bytes,
            self.ways
        );
        lines / self.ways
    }

    /// Paper L1: 16 KB, 4-way, 1-cycle access.
    pub fn asplos_l1() -> Self {
        CacheGeometry {
            size_bytes: 16 * 1024,
            ways: 4,
            latency: 1,
        }
    }

    /// Paper L2 slice: 64 KB, 8-way, 4-cycle access.
    pub fn asplos_l2() -> Self {
        CacheGeometry {
            size_bytes: 64 * 1024,
            ways: 8,
            latency: 4,
        }
    }
}

/// One resident cache line with caller-defined metadata `M`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<M> {
    /// The line address stored in this way.
    pub addr: LineAddr,
    /// Protocol metadata (state, sharers, ...).
    pub meta: M,
    /// Cycle of the last access (LRU + IVR age).
    pub last_access: u64,
}

/// What `insert` displaced, if anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Eviction<M> {
    /// There was a free way; nothing was displaced.
    None,
    /// The LRU way was displaced; its entry is returned.
    Victim(Entry<M>),
}

/// A set-associative cache array.
///
/// The array is indexed externally: callers provide the set index (computed
/// from the address map of the organization in use) so the same array type
/// serves private, shared and LOCO slices.
#[derive(Debug, Clone)]
pub struct CacheArray<M> {
    geometry: CacheGeometry,
    sets: Vec<Vec<Entry<M>>>,
}

impl<M> CacheArray<M> {
    /// Creates an empty array.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        CacheArray {
            geometry,
            sets: (0..sets).map(|_| Vec::new()).collect(),
        }
    }

    /// The array geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Looks up `addr` in `set`, updating its LRU timestamp on a hit.
    pub fn lookup_mut(&mut self, set: usize, addr: LineAddr, now: u64) -> Option<&mut Entry<M>> {
        let entry = self.sets[set].iter_mut().find(|e| e.addr == addr)?;
        entry.last_access = now;
        Some(entry)
    }

    /// Looks up `addr` in `set` without touching LRU state.
    pub fn peek(&self, set: usize, addr: LineAddr) -> Option<&Entry<M>> {
        self.sets[set].iter().find(|e| e.addr == addr)
    }

    /// Mutable peek without touching the LRU timestamp.
    pub fn peek_mut(&mut self, set: usize, addr: LineAddr) -> Option<&mut Entry<M>> {
        self.sets[set].iter_mut().find(|e| e.addr == addr)
    }

    /// Inserts `addr` into `set`, evicting the LRU entry if the set is full.
    ///
    /// If the line is already resident its metadata is replaced and no
    /// eviction occurs.
    pub fn insert(&mut self, set: usize, addr: LineAddr, meta: M, now: u64) -> Eviction<M> {
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.addr == addr) {
            e.meta = meta;
            e.last_access = now;
            return Eviction::None;
        }
        let evicted = if self.sets[set].len() >= self.geometry.ways {
            let (lru_idx, _) = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_access)
                .expect("set is non-empty");
            Eviction::Victim(self.sets[set].swap_remove(lru_idx))
        } else {
            Eviction::None
        };
        self.sets[set].push(Entry {
            addr,
            meta,
            last_access: now,
        });
        evicted
    }

    /// The entry that `insert` of a new line into `set` would displace, if
    /// the set is full (used by IVR to compare victim ages before accepting
    /// a migrated line).
    pub fn would_evict(&self, set: usize) -> Option<&Entry<M>> {
        if self.sets[set].len() >= self.geometry.ways {
            self.sets[set].iter().min_by_key(|e| e.last_access)
        } else {
            None
        }
    }

    /// Removes `addr` from `set`, returning its entry.
    pub fn invalidate(&mut self, set: usize, addr: LineAddr) -> Option<Entry<M>> {
        let idx = self.sets[set].iter().position(|e| e.addr == addr)?;
        Some(self.sets[set].swap_remove(idx))
    }

    /// Number of resident lines across all sets.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Iterates over all resident entries.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<M>> {
        self.sets.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheGeometry {
        CacheGeometry {
            size_bytes: 4 * 2 * u64::from(LINE_BYTES), // 2 sets, 4 ways
            ways: 4,
            latency: 1,
        }
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(CacheGeometry::asplos_l1().sets(), 128);
        assert_eq!(CacheGeometry::asplos_l2().sets(), 256);
        assert_eq!(small().sets(), 2);
    }

    #[test]
    fn insert_lookup_and_lru_eviction() {
        let mut c: CacheArray<u32> = CacheArray::new(small());
        for i in 0..4u64 {
            assert_eq!(c.insert(0, LineAddr(i), i as u32, i), Eviction::None);
        }
        // Touch line 0 so line 1 becomes LRU.
        assert!(c.lookup_mut(0, LineAddr(0), 10).is_some());
        match c.insert(0, LineAddr(99), 99, 11) {
            Eviction::Victim(v) => assert_eq!(v.addr, LineAddr(1)),
            Eviction::None => panic!("expected an eviction"),
        }
        assert!(c.peek(0, LineAddr(1)).is_none());
        assert!(c.peek(0, LineAddr(0)).is_some());
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn reinsert_updates_metadata_without_eviction() {
        let mut c: CacheArray<u32> = CacheArray::new(small());
        c.insert(1, LineAddr(5), 1, 0);
        assert_eq!(c.insert(1, LineAddr(5), 2, 1), Eviction::None);
        assert_eq!(c.peek(1, LineAddr(5)).unwrap().meta, 2);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn would_evict_reports_lru_only_when_full() {
        let mut c: CacheArray<u32> = CacheArray::new(small());
        for i in 0..3u64 {
            c.insert(0, LineAddr(i), 0, i);
        }
        assert!(c.would_evict(0).is_none());
        c.insert(0, LineAddr(3), 0, 3);
        assert_eq!(c.would_evict(0).unwrap().addr, LineAddr(0));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c: CacheArray<u32> = CacheArray::new(small());
        c.insert(0, LineAddr(7), 0, 0);
        assert!(c.invalidate(0, LineAddr(7)).is_some());
        assert!(c.invalidate(0, LineAddr(7)).is_none());
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn peek_does_not_update_lru() {
        let mut c: CacheArray<u32> = CacheArray::new(small());
        for i in 0..4u64 {
            c.insert(0, LineAddr(i), 0, i);
        }
        // Peek line 0 (oldest); it must still be the LRU victim.
        assert!(c.peek(0, LineAddr(0)).is_some());
        assert_eq!(c.would_evict(0).unwrap().addr, LineAddr(0));
    }
}
