//! The simulator's event queue: a calendar keyed on the virtual tick.
//!
//! Nearly every deadline the simulator schedules is a handful of ticks
//! ahead of the clock (link delays, heartbeat and probe intervals), so the
//! queue is a ring of [`RING`] per-tick FIFO buckets starting at the tick
//! of the latest pop, plus a small binary heap for everything outside that
//! window (`NEVER`-latency holds, long timers). Push and pop are O(1) on
//! the ring — an occupancy bitmap finds the next non-empty bucket — and
//! O(log far) on the heap.
//!
//! **Pop order is exactly `(at, order)`**, the order of the binary heap
//! this replaces. `order` is the caller's creation counter and must grow
//! with every push, so a bucket, which holds one tick only (the window is
//! `RING` ticks wide and buckets are indexed `tick % RING`), fills in
//! `order` order and its FIFO head is its minimum. The ring's minimum is
//! therefore the head of its first occupied bucket; `pop` compares it with
//! the heap's minimum and takes the smaller `(at, order)`. (Heap entries
//! due at a tick were all pushed while that tick was still outside the
//! window, hence before any ring entry for it, and drain first.)
//!
//! All ring entries live in one slab threaded with intrusive per-bucket
//! lists, so the queue's memory is its peak length, not `RING` times the
//! peak bucket, and an empty queue owns no allocation.

use crate::time::VirtualTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ticks the ring spans; one bit each in the occupancy bitmap.
const RING: u64 = 64;

/// Null slab index.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<T> {
    order: u64,
    item: T,
    /// Next slot of the same bucket, or of the free list.
    next: u32,
}

/// See the module docs. `T` is compared only to break `(at, order)` ties,
/// which the growing `order` rules out.
#[derive(Debug)]
pub(crate) struct Calendar<T> {
    /// First tick of the ring's window: the latest tick popped.
    cursor: u64,
    /// Bit `t % RING` is set iff the bucket of tick `t` is non-empty.
    occupied: u64,
    /// Per-bucket FIFO as `(head, tail)` slab indices.
    buckets: [(u32, u32); RING as usize],
    slots: Vec<Slot<T>>,
    /// Head of the free-slot list.
    free: u32,
    /// Entries due outside the window when they were pushed.
    far: BinaryHeap<Reverse<(u64, u64, T)>>,
    len: usize,
}

impl<T: Copy + Ord> Calendar<T> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        Calendar {
            cursor: 0,
            occupied: 0,
            buckets: [(NIL, NIL); RING as usize],
            slots: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Entries pending.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Schedules `item` at `at`. `order` must exceed every earlier push's.
    pub(crate) fn push(&mut self, at: VirtualTime, order: u64, item: T) {
        self.len += 1;
        let tick = at.ticks();
        if tick < self.cursor || tick - self.cursor >= RING {
            self.far.push(Reverse((tick, order, item)));
            return;
        }
        let slot = Slot {
            order,
            item,
            next: NIL,
        };
        let index = if self.free == NIL {
            assert!(self.slots.len() < NIL as usize, "event queue overflow");
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let index = self.free;
            self.free = std::mem::replace(&mut self.slots[index as usize], slot).next;
            index
        };
        let bucket = &mut self.buckets[(tick % RING) as usize];
        if bucket.0 == NIL {
            bucket.0 = index;
            self.occupied |= 1 << (tick % RING);
        } else {
            debug_assert!(self.slots[bucket.1 as usize].order < order);
            self.slots[bucket.1 as usize].next = index;
        }
        bucket.1 = index;
    }

    /// The tick and order of the least entry, and whether it sits on the
    /// ring (`true`) or the heap.
    #[inline(always)]
    fn least(&self) -> Option<(u64, u64, bool)> {
        let near = (self.occupied != 0).then(|| {
            let ahead = self.occupied.rotate_right((self.cursor % RING) as u32);
            let tick = self.cursor + u64::from(ahead.trailing_zeros());
            let head = self.buckets[(tick % RING) as usize].0;
            (tick, self.slots[head as usize].order, true)
        });
        let far = self
            .far
            .peek()
            .map(|Reverse((at, order, _))| (*at, *order, false));
        match (near, far) {
            (Some(near), Some(far)) => Some(near.min(far)),
            (near, far) => near.or(far),
        }
    }

    /// The entry with the least `(at, order)`, left in place.
    pub(crate) fn peek(&self) -> Option<(VirtualTime, u64, T)> {
        let (tick, order, near) = self.least()?;
        let item = match near {
            true => self.slots[self.buckets[(tick % RING) as usize].0 as usize].item,
            false => self.far.peek().expect("least").0 .2,
        };
        Some((VirtualTime::from_ticks(tick), order, item))
    }

    /// Removes and returns the entry with the least `(at, order)`.
    pub(crate) fn pop(&mut self) -> Option<(VirtualTime, u64, T)> {
        let (tick, order, item) = match self.least()? {
            (_, _, false) => self.far.pop().expect("least").0,
            (tick, _, true) => {
                let bucket = &mut self.buckets[(tick % RING) as usize];
                let index = bucket.0;
                let slot = &mut self.slots[index as usize];
                bucket.0 = std::mem::replace(&mut slot.next, self.free);
                self.free = index;
                if bucket.0 == NIL {
                    self.occupied &= !(1 << (tick % RING));
                }
                (tick, slot.order, slot.item)
            }
        };
        self.len -= 1;
        // Everything left is due at `tick` or later, so the window may
        // start there (a late entry, due before the cursor, leaves it).
        self.cursor = self.cursor.max(tick);
        Some((VirtualTime::from_ticks(tick), order, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// One scripted operation against the queue and the reference heap.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at `now + delta`, `now` being the tick of the latest pop.
        PushAhead(u64),
        /// Push at `now - delta`: a deadline already passed.
        PushLate(u64),
        /// Push at an absolute tick.
        PushAt(u64),
        Pop,
        /// Look at the least entry, as a host's deadline query does.
        Peek,
        /// Push at `now`, then peek: a copy or an injection filed at the
        /// instant just run, as a host's ingress and inject do.
        PushNowAndPeek,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            // The common case, same-tick pushes (delta 0) included.
            (0u64..12).prop_map(Op::PushAhead),
            // Around and past the edge of the ring.
            (60u64..70).prop_map(Op::PushAhead),
            (70u64..5_000).prop_map(Op::PushAhead),
            (1u64..30).prop_map(Op::PushLate),
            Just(Op::PushAt(u64::MAX)),
            Just(Op::PushAt(u64::MAX - 1)),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Peek),
            Just(Op::PushNowAndPeek),
        ]
    }

    type Model = BinaryHeap<Reverse<(u64, u64, u64)>>;

    /// Pops both queues, requires equal results, and returns the tick.
    fn pop_both(
        queue: &mut Calendar<u64>,
        model: &mut Model,
    ) -> Result<Option<u64>, TestCaseError> {
        let got = queue
            .pop()
            .map(|(at, order, item)| (at.ticks(), order, item));
        prop_assert_eq!(got, model.pop().map(|Reverse(e)| e));
        Ok(got.map(|(at, _, _)| at))
    }

    /// Peeks both queues and requires equal results.
    fn peek_both(queue: &Calendar<u64>, model: &Model) -> Result<(), TestCaseError> {
        let got = queue
            .peek()
            .map(|(at, order, item)| (at.ticks(), order, item));
        prop_assert_eq!(got, model.peek().map(|Reverse(e)| *e));
        Ok(())
    }

    proptest! {
        /// Any interleaving of pushes, peeks and pops — same-tick pushes
        /// made while that tick drains, peeks right after them, deadlines
        /// already passed, deadlines past the ring, `VirtualTime::MAX` —
        /// peeks and pops exactly what a `BinaryHeap` keyed `(at, order)`
        /// does.
        #[test]
        fn pops_in_heap_order(ops in proptest::collection::vec(op(), 0..400)) {
            let mut queue = Calendar::new();
            let mut model = Model::new();
            let (mut now, mut order) = (0u64, 0u64);
            for op in ops {
                let at = match op {
                    Op::PushAhead(delta) => now.saturating_add(delta),
                    Op::PushLate(delta) => now.saturating_sub(delta),
                    Op::PushAt(at) => at,
                    Op::PushNowAndPeek => now,
                    Op::Pop => {
                        now = pop_both(&mut queue, &mut model)?.unwrap_or(now);
                        continue;
                    }
                    Op::Peek => {
                        peek_both(&queue, &model)?;
                        continue;
                    }
                };
                queue.push(VirtualTime::from_ticks(at), order, order * 7);
                model.push(Reverse((at, order, order * 7)));
                order += 1;
                prop_assert_eq!(queue.len(), model.len());
                if matches!(op, Op::PushNowAndPeek) {
                    peek_both(&queue, &model)?;
                }
            }
            while !model.is_empty() {
                pop_both(&mut queue, &mut model)?;
            }
            prop_assert!(queue.pop().is_none());
            prop_assert_eq!(queue.len(), 0);
        }
    }

    #[test]
    fn an_empty_queue_owns_no_allocation() {
        let queue = Calendar::<u64>::new();
        assert_eq!(queue.slots.capacity(), 0);
        assert_eq!(queue.far.capacity(), 0);
    }

    #[test]
    fn slots_are_reused_so_memory_tracks_the_peak_length() {
        let mut queue = Calendar::new();
        let mut order = 0;
        for round in 0..100u64 {
            for k in 0..8 {
                queue.push(VirtualTime::from_ticks(round * 8 + k), order, k);
                order += 1;
            }
            for _ in 0..8 {
                queue.pop().expect("pushed");
            }
        }
        assert_eq!(queue.slots.len(), 8);
    }
}
