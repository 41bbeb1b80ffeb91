//! Hierarchical timer wheel: kept only for the `asys.wheel.*` probe, until ROADMAP item 12.
//!
//! The threaded runtime used to sleep one real millisecond per virtual tick;
//! every logical deadline (message delivery, ARQ retransmit, heartbeat
//! probe, partition/storm window edge, fault-plan injection) was a wall
//! clock `Instant`. The wheel replaces all of that: deadlines are
//! [`VirtualTime`] points, and the owner advances virtual time directly to
//! the next due instant instead of sleeping through empty ticks.
//!
//! # Structure
//!
//! A classic hashed hierarchical wheel (Varghese & Lauck): `LEVELS` levels
//! of 64 slots each, level `l` spanning `64^(l+1)` ticks, plus an overflow
//! list for deadlines beyond the top level's span. Insertion is O(1);
//! firing cascades a higher-level slot down one level at a time as the
//! clock reaches it.
//!
//! # Ordering guarantees
//!
//! * Entries drain in nondecreasing deadline order (property-tested in
//!   `tests/wheel_prop.rs`).
//! * Entries with the *same* deadline drain in insertion order: every entry
//!   carries a monotone sequence number and each due instant is sorted by
//!   it before being returned. The runtime relies on this for per-channel
//!   FIFO and for fault-plan injections (inserted first, at construction)
//!   firing before same-instant deliveries.
//!
//! # Cancellation
//!
//! [`TimerWheel::cancel`] removes an entry eagerly. The handle carries the
//! entry's deadline, so only the `LEVELS` slots that deadline can occupy
//! (plus the overflow list) are searched — cancellation cost is bounded by
//! slot occupancy, not wheel size. Re-arming after a cancel (Karn-style
//! backoff) is a fresh insert into the same slot storage.

use crate::time::VirtualTime;

/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels before spilling to the overflow list. Four levels cover
/// `64^4 = ~16.7M` ticks of lookahead — far beyond any configured horizon;
/// the overflow list exists for "effectively never" deadlines such as
/// [`NEVER`](crate::NEVER)-latency links.
const LEVELS: usize = 4;
/// Ticks covered by the whole wheel from its current origin.
const WHEEL_SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// Handle to a scheduled entry, used only for [`TimerWheel::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WheelEntryId {
    seq: u64,
    deadline: VirtualTime,
}

#[derive(Debug)]
struct Entry<T> {
    deadline: VirtualTime,
    seq: u64,
    item: T,
}

#[derive(Debug)]
struct Slot<T> {
    entries: Vec<Entry<T>>,
    /// Minimum deadline among `entries`; only meaningful while occupied.
    min: VirtualTime,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            entries: Vec::new(),
            min: VirtualTime::MAX,
        }
    }
}

/// A hierarchical timer wheel over [`VirtualTime`].
///
/// # Examples
///
/// ```
/// use sfs_asys::{TimerWheel, VirtualTime};
///
/// let mut wheel = TimerWheel::new();
/// wheel.insert(VirtualTime::from_ticks(5), "b");
/// wheel.insert(VirtualTime::from_ticks(3), "a");
/// assert_eq!(wheel.next_deadline(), Some(VirtualTime::from_ticks(3)));
///
/// let fired = wheel.advance_to(VirtualTime::from_ticks(10));
/// let order: Vec<_> = fired.iter().map(|(t, it)| (t.ticks(), *it)).collect();
/// assert_eq!(order, vec![(3, "a"), (5, "b")]);
/// assert!(wheel.is_empty());
/// ```
#[derive(Debug)]
pub struct TimerWheel<T> {
    levels: Vec<Vec<Slot<T>>>,
    /// Per-level occupancy bitmap; bit `s` set iff `levels[l][s]` is
    /// non-empty.
    occupied: [u64; LEVELS],
    /// Deadlines at or beyond `now + WHEEL_SPAN` at insertion time.
    overflow: Vec<Entry<T>>,
    now: VirtualTime,
    /// Next insertion sequence number; total order on entries.
    next_seq: u64,
    /// Live (scheduled, not fired, not cancelled) entries.
    live: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its clock at [`VirtualTime::ZERO`].
    pub fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            now: VirtualTime::ZERO,
            next_seq: 0,
            live: 0,
        }
    }

    /// The wheel's current clock reading.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Number of live scheduled entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live entries remain. Quiescence checks hang off this.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slot index of `deadline` on `level`.
    fn slot_of(deadline: VirtualTime, level: usize) -> usize {
        ((deadline.ticks() >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// Schedules `item` for `deadline`. A deadline at or before the current
    /// clock fires at the current clock (delay-zero entries are legal and
    /// common: same-instant message forwarding). Returns a handle usable
    /// with [`cancel`](Self::cancel).
    pub fn insert(&mut self, deadline: VirtualTime, item: T) -> WheelEntryId {
        let deadline = deadline.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            deadline,
            seq,
            item,
        };
        self.place(entry);
        self.live += 1;
        WheelEntryId { seq, deadline }
    }

    /// Files `entry` into the level whose resolution distinguishes it from
    /// `now`, or the overflow list when it is beyond the wheel's span.
    fn place(&mut self, entry: Entry<T>) {
        let delta = entry.deadline.ticks() - self.now.ticks();
        if delta >= WHEEL_SPAN {
            self.overflow.push(entry);
            return;
        }
        // Highest level on which the deadline and the clock differ; on that
        // level every lower-order tick difference rounds into one slot.
        let level = if delta == 0 {
            0
        } else {
            (63 - u64::leading_zeros(delta) as usize) / SLOT_BITS as usize
        };
        let level = level.min(LEVELS - 1);
        let slot = Self::slot_of(entry.deadline, level);
        // A level's slots are allocated when it is first used: a wheel
        // whose deadlines stay near its clock never allocates the others.
        let slots = &mut self.levels[level];
        if slots.is_empty() {
            *slots = (0..SLOTS).map(|_| Slot::new()).collect();
        }
        let s = &mut slots[slot];
        s.min = s.min.min(entry.deadline);
        s.entries.push(entry);
        self.occupied[level] |= 1u64 << slot;
    }

    /// Removes the entry behind `id` if it is still scheduled. Returns
    /// whether an entry was removed (false after it already fired, or on a
    /// repeated cancel). Only the slots the entry's deadline can map to are
    /// searched, so the cost is bounded by their occupancy.
    pub fn cancel(&mut self, id: WheelEntryId) -> bool {
        for level in 0..LEVELS {
            let slot = Self::slot_of(id.deadline, level);
            if self.occupied[level] & (1u64 << slot) == 0 {
                continue;
            }
            let s = &mut self.levels[level][slot];
            if let Some(pos) = s.entries.iter().position(|e| e.seq == id.seq) {
                s.entries.swap_remove(pos);
                if s.entries.is_empty() {
                    s.min = VirtualTime::MAX;
                    self.occupied[level] &= !(1u64 << slot);
                } else {
                    s.min = s.entries.iter().map(|e| e.deadline).min().unwrap();
                }
                self.live -= 1;
                return true;
            }
        }
        if let Some(pos) = self.overflow.iter().position(|e| e.seq == id.seq) {
            self.overflow.swap_remove(pos);
            self.live -= 1;
            return true;
        }
        false
    }

    /// Earliest scheduled deadline, or `None` when the wheel is empty.
    pub fn next_deadline(&self) -> Option<VirtualTime> {
        if self.live == 0 {
            return None;
        }
        let mut best = VirtualTime::MAX;
        for level in 0..LEVELS {
            let mut bits = self.occupied[level];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = &self.levels[level][slot];
                if s.min < best {
                    best = s.min;
                }
            }
        }
        for e in &self.overflow {
            if e.deadline < best {
                best = e.deadline;
            }
        }
        Some(best)
    }

    /// Advances the clock to `target`, returning every entry with deadline
    /// `<= target` in (deadline, insertion-seq) order. The clock ends at
    /// `max(now, target)`.
    pub fn advance_to(&mut self, target: VirtualTime) -> Vec<(VirtualTime, T)> {
        let mut fired: Vec<Entry<T>> = Vec::new();
        while let Some(d) = self.next_deadline() {
            if d > target {
                break;
            }
            self.now = d;
            // Cascade: pull every slot containing `d` on levels > 0 down,
            // re-filing against the new clock. Entries due exactly at `d`
            // re-file to level 0, slot `d & 63`.
            for level in (1..LEVELS).rev() {
                let slot = Self::slot_of(d, level);
                if self.occupied[level] & (1u64 << slot) == 0 {
                    continue;
                }
                if self.levels[level][slot].min > d {
                    continue;
                }
                let entries = std::mem::take(&mut self.levels[level][slot].entries);
                self.levels[level][slot].min = VirtualTime::MAX;
                self.occupied[level] &= !(1u64 << slot);
                for e in entries {
                    self.place(e);
                }
            }
            // Overflow entries whose deadline the clock has reached fire
            // directly; the rest stay put (re-filing them on every advance
            // would be quadratic for "never" deadlines).
            let mut i = 0;
            while i < self.overflow.len() {
                if self.overflow[i].deadline <= d {
                    fired.push(self.overflow.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            // Fire level 0's slot for `d`.
            let slot = Self::slot_of(d, 0);
            if self.occupied[0] & (1u64 << slot) != 0 && self.levels[0][slot].min <= d {
                let entries = std::mem::take(&mut self.levels[0][slot].entries);
                self.levels[0][slot].min = VirtualTime::MAX;
                self.occupied[0] &= !(1u64 << slot);
                for e in entries {
                    // Because firing proceeds in deadline order, a level-0
                    // slot only ever holds entries for one absolute
                    // deadline; assert that invariant in debug builds.
                    debug_assert_eq!(e.deadline, d);
                    fired.push(e);
                }
            }
        }
        if target > self.now {
            self.now = target;
        }
        fired.sort_by_key(|e| (e.deadline, e.seq));
        self.live -= fired.len();
        fired.into_iter().map(|e| (e.deadline, e.item)).collect()
    }

    /// Advances to the next due instant and returns its entries, or `None`
    /// when the wheel is empty.
    pub fn pop_next_instant(&mut self) -> Option<(VirtualTime, Vec<T>)> {
        let d = self.next_deadline()?;
        let fired = self.advance_to(d);
        debug_assert!(!fired.is_empty());
        Some((d, fired.into_iter().map(|(_, item)| item).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(t: u64) -> VirtualTime {
        VirtualTime::from_ticks(t)
    }

    #[test]
    fn coincident_deadlines_fire_in_insertion_order() {
        let mut wheel = TimerWheel::new();
        for label in ["first", "second", "third", "fourth"] {
            wheel.insert(vt(7), label);
        }
        let (at, items) = wheel.pop_next_instant().expect("due instant");
        assert_eq!(at, vt(7));
        assert_eq!(items, vec!["first", "second", "third", "fourth"]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn coincident_deadlines_across_levels_still_sort_by_seq() {
        // Same deadline reached via different insertion clocks: one entry
        // files to a high level (far future), the clock advances, then a
        // second entry for the same instant files to level 0. Insertion
        // order must still win at the shared instant.
        let mut wheel = TimerWheel::new();
        wheel.insert(vt(5000), "early-insert");
        let fired = wheel.advance_to(vt(4999));
        assert!(fired.is_empty());
        wheel.insert(vt(5000), "late-insert");
        let (_, items) = wheel.pop_next_instant().expect("due");
        assert_eq!(items, vec!["early-insert", "late-insert"]);
    }

    #[test]
    fn slot_edge_deadlines_cascade_correctly() {
        // Deadlines exactly at level boundaries: 63/64/65 straddle the
        // level-0 span, 4095/4096/4097 the level-1 span.
        let mut wheel = TimerWheel::new();
        for t in [63u64, 64, 65, 4095, 4096, 4097] {
            wheel.insert(vt(t), t);
        }
        let fired = wheel.advance_to(vt(10_000));
        let times: Vec<u64> = fired.iter().map(|(at, _)| at.ticks()).collect();
        assert_eq!(times, vec![63, 64, 65, 4095, 4096, 4097]);
        for (at, item) in fired {
            assert_eq!(at.ticks(), item);
        }
    }

    #[test]
    fn far_future_deadlines_go_to_overflow_and_still_fire() {
        let mut wheel = TimerWheel::new();
        wheel.insert(vt(WHEEL_SPAN * 3), "far");
        wheel.insert(vt(2), "near");
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.next_deadline(), Some(vt(2)));
        let (at, items) = wheel.pop_next_instant().expect("near");
        assert_eq!((at, items), (vt(2), vec!["near"]));
        let (at, items) = wheel.pop_next_instant().expect("far");
        assert_eq!((at, items), (vt(WHEEL_SPAN * 3), vec!["far"]));
        assert!(wheel.pop_next_instant().is_none());
    }

    #[test]
    fn max_deadline_parks_in_overflow_without_firing() {
        // NEVER-latency links schedule at (effectively) VirtualTime::MAX;
        // the entry must neither fire early nor distort next_deadline once
        // nearer work exists.
        let mut wheel = TimerWheel::new();
        wheel.insert(VirtualTime::MAX, "never");
        wheel.insert(vt(9), "soon");
        assert_eq!(wheel.next_deadline(), Some(vt(9)));
        let fired = wheel.advance_to(vt(1_000_000));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "soon");
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.next_deadline(), Some(VirtualTime::MAX));
    }

    #[test]
    fn cancel_then_refire_reuses_the_slot() {
        // Karn backoff shape: arm a retransmit deadline, cancel it on ack,
        // re-arm the same instant later for the next window.
        let mut wheel = TimerWheel::new();
        let first = wheel.insert(vt(40), "rto-1");
        assert!(wheel.cancel(first));
        assert!(!wheel.cancel(first), "double cancel is a no-op");
        assert_eq!(wheel.len(), 0);
        assert!(wheel.next_deadline().is_none());
        let _second = wheel.insert(vt(40), "rto-2");
        assert_eq!(wheel.len(), 1);
        let (at, items) = wheel.pop_next_instant().expect("due");
        assert_eq!((at, items), (vt(40), vec!["rto-2"]));
        assert!(wheel.is_empty());
        assert!(wheel.pop_next_instant().is_none());
    }

    #[test]
    fn cancel_after_fire_is_a_no_op() {
        let mut wheel = TimerWheel::new();
        let id = wheel.insert(vt(5), "fired");
        let _ = wheel.advance_to(vt(5));
        assert!(wheel.is_empty());
        assert!(!wheel.cancel(id));
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn cancel_in_overflow_and_after_cascade() {
        let mut wheel = TimerWheel::new();
        let far = wheel.insert(vt(WHEEL_SPAN * 2), "overflow");
        assert!(wheel.cancel(far));
        assert!(wheel.is_empty());

        // Cancel after the entry cascaded to a lower level: the handle's
        // deadline still locates it.
        let mid = wheel.insert(vt(4100), "cascades");
        wheel.insert(vt(4000), "pace");
        let fired = wheel.advance_to(vt(4050));
        assert_eq!(fired.len(), 1, "only the pace entry fired");
        assert!(wheel.cancel(mid));
        assert!(wheel.is_empty());
        assert!(wheel.advance_to(vt(10_000)).is_empty());
    }

    #[test]
    fn insert_at_or_before_now_fires_at_now() {
        let mut wheel = TimerWheel::new();
        wheel.insert(vt(100), "marker");
        let _ = wheel.advance_to(vt(100));
        assert_eq!(wheel.now(), vt(100));
        wheel.insert(vt(3), "stale");
        wheel.insert(vt(100), "same-instant");
        let fired = wheel.advance_to(vt(100));
        let items: Vec<_> = fired.iter().map(|(at, it)| (at.ticks(), *it)).collect();
        assert_eq!(items, vec![(100, "stale"), (100, "same-instant")]);
    }

    #[test]
    fn len_tracks_inserts_fires_and_cancels() {
        let mut wheel = TimerWheel::new();
        let a = wheel.insert(vt(1), 'a');
        let _b = wheel.insert(vt(2), 'b');
        assert_eq!(wheel.len(), 2);
        assert!(wheel.cancel(a));
        assert_eq!(wheel.len(), 1);
        let _ = wheel.advance_to(vt(5));
        assert_eq!(wheel.len(), 0);
        assert!(wheel.is_empty());
    }
}
