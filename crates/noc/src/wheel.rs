//! A timing wheel: items keyed by the cycle they become due, drained in
//! exactly the order of a min-heap over `(ready, push order)`, at constant
//! cost per item for near-future cycles.
//!
//! Both event queues of the simulator use it: the system's pending
//! injections (local processing delays) and the network's fabric arrivals
//! (multi-flit release times). Most delays are a few cycles, so most items
//! take a bucket push and a bucket drain instead of two O(log n) heap
//! operations.
//!
//! # Layout
//!
//! * A ring of `SPAN` (64) FIFO buckets holds the items due in
//!   `base..base + SPAN`, where `base` is the first cycle not drained yet;
//!   bucket `ready % SPAN` holds exactly the items due at `ready`. A bitmask
//!   marks the non-empty buckets, so finding the earliest one is one rotate
//!   and one `trailing_zeros`. The buckets are linked lists threaded through
//!   one slot table with a free list, so the wheel retains memory for the
//!   most items it ever held at once, not for the largest burst of every
//!   bucket.
//! * An overflow min-heap holds items due at `base + SPAN` or later (e.g.
//!   200-cycle DRAM replies). They stay there until drained.
//! * A late list holds items pushed for a cycle already drained (a
//!   zero-delay send made while the due items are being handled). It is
//!   kept sorted by `ready`.
//!
//! # Why the order equals the heap's
//!
//! Items due at one cycle `c` leave the wheel in this order: late items
//! first, then overflow items (by push order), then bucket `c` (FIFO).
//! Late items are due before `base`, every other item at or after it, so
//! they lead. `base` never moves backwards, so an item pushed to the
//! overflow heap for `c` (pushed while `c >= base + SPAN`) was pushed before
//! any bucket item for `c` (pushed while `c < base + SPAN`): overflow before
//! bucket is push order.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Number of ring buckets: one bit each in the non-empty mask. Cache and
/// directory delays and multi-flit release times fall inside it; DRAM
/// replies do not.
const SPAN: u64 = 64;

/// End of a slot list.
const NIL: u32 = u32::MAX;

/// A ring item (`Some`) or a free slot (`None`), linked to the next slot of
/// its bucket or of the free list.
struct Slot<T> {
    item: Option<T>,
    next: u32,
}

/// An item due at `base + SPAN` or later, ordered by `(ready, seq)`.
struct Far<T> {
    ready: u64,
    seq: u64,
    item: T,
}

impl<T> Far<T> {
    fn key(&self) -> (u64, u64) {
        (self.ready, self.seq)
    }
}

impl<T> PartialEq for Far<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Far<T> {}
impl<T> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Far<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A queue of items keyed by their due cycle (see the module docs).
pub struct TimingWheel<T> {
    /// First cycle not drained yet.
    base: u64,
    slots: Vec<Slot<T>>,
    /// Head of the free-slot list.
    free: u32,
    /// First and last slot of each bucket (`NIL` when empty).
    heads: [u32; SPAN as usize],
    tails: [u32; SPAN as usize],
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: u64,
    overflow: BinaryHeap<Reverse<Far<T>>>,
    /// Push counter; orders overflow items due at the same cycle.
    seq: u64,
    /// Items due before `base`, sorted by due cycle, ties in push order.
    late: Vec<(u64, T)>,
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel {
            base: 0,
            slots: Vec::new(),
            free: NIL,
            heads: [NIL; SPAN as usize],
            tails: [NIL; SPAN as usize],
            occupied: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            late: Vec::new(),
            len: 0,
        }
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel whose first undrained cycle is 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no item is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item`, due at cycle `ready`.
    pub fn push(&mut self, ready: u64, item: T) {
        self.len += 1;
        if ready < self.base {
            let at = self.late.partition_point(|&(r, _)| r <= ready);
            self.late.insert(at, (ready, item));
        } else if ready - self.base < SPAN {
            let slot = Slot {
                item: Some(item),
                next: NIL,
            };
            let i = if self.free == NIL {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            } else {
                let i = self.free;
                self.free = self.slots[i as usize].next;
                self.slots[i as usize] = slot;
                i
            };
            let b = (ready % SPAN) as usize;
            match self.tails[b] {
                NIL => self.heads[b] = i,
                tail => self.slots[tail as usize].next = i,
            }
            self.tails[b] = i;
            self.occupied |= 1 << b;
        } else {
            self.seq += 1;
            let seq = self.seq;
            self.overflow.push(Reverse(Far { ready, seq, item }));
        }
    }

    /// The earliest due cycle among the ring and overflow items.
    fn next_scheduled(&self) -> Option<u64> {
        let rotated = self.occupied.rotate_right((self.base % SPAN) as u32);
        let bucket = (self.occupied != 0).then(|| self.base + u64::from(rotated.trailing_zeros()));
        let far = self.overflow.peek().map(|Reverse(f)| f.ready);
        bucket.into_iter().chain(far).min()
    }

    /// The earliest due cycle of any queued item.
    pub fn next_ready(&self) -> Option<u64> {
        match self.late.first() {
            Some(&(ready, _)) => Some(ready),
            None => self.next_scheduled(),
        }
    }

    /// Moves every item due at or before `now` to the end of `out`, in
    /// `(ready, push order)` order. Cycles up to `now` count as drained
    /// afterwards.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `now` lies before a cycle drained earlier.
    pub fn drain_due(&mut self, now: u64, out: &mut Vec<T>) {
        debug_assert!(
            now + 1 >= self.base,
            "drained cycle {now} after {}",
            self.base - 1
        );
        self.len -= self.late.len();
        out.extend(self.late.drain(..).map(|(_, item)| item));
        while let Some(t) = self.next_scheduled().filter(|&t| t <= now) {
            while self.overflow.peek().is_some_and(|Reverse(f)| f.ready == t) {
                let Reverse(f) = self.overflow.pop().expect("peeked item");
                self.len -= 1;
                out.push(f.item);
            }
            let b = (t % SPAN) as usize;
            let mut i = std::mem::replace(&mut self.heads[b], NIL);
            while i != NIL {
                let slot = &mut self.slots[i as usize];
                out.push(slot.item.take().expect("linked slot holds an item"));
                self.len -= 1;
                let next = std::mem::replace(&mut slot.next, self.free);
                self.free = i;
                i = next;
            }
            self.tails[b] = NIL;
            self.occupied &= !(1 << b);
            self.base = t + 1;
        }
        self.base = self.base.max(now + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The reference: a min-heap over `(ready, seq)`, items named by `seq`.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
    }

    impl Model {
        fn drain_due(&mut self, now: u64) -> Vec<u64> {
            let mut out = Vec::new();
            while let Some(&Reverse((ready, seq))) = self.heap.peek() {
                if ready > now {
                    break;
                }
                self.heap.pop();
                out.push(seq);
            }
            out
        }

        fn next_ready(&self) -> Option<u64> {
            self.heap.peek().map(|&Reverse((ready, _))| ready)
        }
    }

    #[test]
    fn drains_in_heap_order_under_random_operations() {
        for seed in 0..40 {
            let mut rng = SplitMix64::new(0x3ee1 + seed);
            let mut wheel = TimingWheel::new();
            let mut model = Model::default();
            let mut out = Vec::new();
            // `now` is the last drained cycle; pushes happen between drains,
            // as during a system step or a network tick.
            let mut now = 0u64;
            let mut seq = 0u64;
            for step in 0..2_000 {
                match rng.next_below(10) {
                    0..=4 => {
                        let ready = match rng.next_below(8) {
                            // Zero delay after a drain, or even earlier.
                            0 => now.saturating_sub(rng.next_below(3)),
                            // At or past the ring length.
                            1 => now + SPAN - 1 + rng.next_below(3 * SPAN),
                            _ => now + rng.next_below(12),
                        };
                        seq += 1;
                        wheel.push(ready, seq);
                        model.heap.push(Reverse((ready, seq)));
                    }
                    5..=8 => {
                        now += match rng.next_below(6) {
                            // A skip across empty buckets, maybe past the ring.
                            0 => rng.next_below(4 * SPAN),
                            _ => rng.next_below(3),
                        };
                        out.clear();
                        wheel.drain_due(now, &mut out);
                        assert_eq!(
                            out,
                            model.drain_due(now),
                            "seed {seed} step {step} now {now}"
                        );
                    }
                    _ => {}
                }
                assert_eq!(wheel.len(), model.heap.len(), "seed {seed} step {step}");
                assert_eq!(wheel.is_empty(), model.heap.is_empty());
                assert_eq!(
                    wheel.next_ready(),
                    model.next_ready(),
                    "seed {seed} step {step}"
                );
            }
            out.clear();
            wheel.drain_due(u64::MAX - 1, &mut out);
            assert_eq!(out, model.drain_due(u64::MAX - 1));
            assert!(wheel.is_empty() && wheel.next_ready().is_none());
        }
    }

    #[test]
    fn overflow_items_precede_bucket_items_due_at_the_same_cycle() {
        let mut wheel = TimingWheel::new();
        wheel.push(100, "far");
        let mut out = Vec::new();
        wheel.drain_due(60, &mut out);
        assert!(out.is_empty());
        wheel.push(100, "near");
        wheel.push(60, "late");
        assert_eq!(wheel.next_ready(), Some(60));
        wheel.drain_due(100, &mut out);
        assert_eq!(out, ["late", "far", "near"]);
        assert!(wheel.is_empty());
    }
}
