//! Link-fault models: the faulty network beneath the reliable channels.
//!
//! The paper's §2 model *assumes* reliable FIFO channels; [`LatencyModel`]
//! realizes only the asynchrony half of that assumption (unbounded delay).
//! A [`LinkModel`] generalizes the per-message hook to a faulty network:
//! each send draws a [`LinkVerdict`] — deliver after a delay, silently
//! drop, or deliver twice. A [`PartitionSchedule`] scripts cut/heal of
//! whole link sets over [`VirtualTime`], and [`FaultyLink`] composes a
//! base latency model with i.i.d. loss, duplication, and a partition
//! schedule.
//!
//! Every [`LatencyModel`] is a [`LinkModel`] via a blanket impl (always
//! [`LinkVerdict::Deliver`]), so existing models and call sites work
//! unchanged. The `sfs-transport` crate builds the layer that *earns* the
//! reliable-FIFO abstraction back on top of a faulty link.

use crate::id::ProcessId;
use crate::latency::LatencyModel;
use crate::time::VirtualTime;
use rand::rngs::StdRng;
use rand::Rng;

/// What the network does with one sent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Deliver after the given delay in ticks (clamped to at least 1).
    Deliver(u64),
    /// Silently lose the message; the sender learns nothing.
    Drop,
    /// Deliver two copies, after the given delays. Both copies carry the
    /// same message id (they *are* the same message, seen twice).
    Duplicate(u64, u64),
}

/// Per-message network behaviour: the generalization of [`LatencyModel`]
/// to lossy, duplicating, partitionable links.
///
/// Engines consult the model once per send, in send order, with a seeded
/// rng — so a run remains fully determined by `(processes, link model,
/// fault plan, seed)` exactly as with latency models. The simulator holds
/// one model and one rng for the run; the threaded runtime gives every
/// sender its own [`SenderLink`] copy and rng.
pub trait LinkModel {
    /// The verdict for a message sent `from -> to` at time `now`.
    fn verdict(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: VirtualTime,
        rng: &mut StdRng,
    ) -> LinkVerdict;
}

/// A [`LinkModel`] the threaded runtime copies for each sender; every
/// `Clone + Send` link model is one.
pub trait SenderLink: LinkModel + Send {
    /// A fresh instance in this one's state.
    fn fork(&self) -> Box<dyn SenderLink>;
}

impl<L: LinkModel + Clone + Send + 'static> SenderLink for L {
    fn fork(&self) -> Box<dyn SenderLink> {
        Box::new(self.clone())
    }
}

/// Every latency model is a loss-free link model: the verdict is always
/// [`LinkVerdict::Deliver`] with the model's delay. This keeps every
/// existing `LatencyModel` call site working unchanged.
impl<L: LatencyModel> LinkModel for L {
    fn verdict(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: VirtualTime,
        rng: &mut StdRng,
    ) -> LinkVerdict {
        LinkVerdict::Deliver(self.latency(from, to, now, rng))
    }
}

/// Which directed links one scripted cut severs.
#[derive(Debug, Clone)]
enum LinkSet {
    /// Explicit directed pairs.
    Pairs(Vec<(ProcessId, ProcessId)>),
    /// Everything crossing the boundary between `group` and its
    /// complement, in both directions — a network split.
    Split(Vec<ProcessId>),
}

impl LinkSet {
    fn severs(&self, from: ProcessId, to: ProcessId) -> bool {
        match self {
            LinkSet::Pairs(pairs) => pairs.iter().any(|&(f, t)| f == from && t == to),
            LinkSet::Split(group) => {
                let a = group.contains(&from);
                let b = group.contains(&to);
                a != b
            }
        }
    }
}

/// One scripted cut: the links in `links` are severed for `[from, until)`.
#[derive(Debug, Clone)]
struct Cut {
    from: VirtualTime,
    until: VirtualTime,
    links: LinkSet,
}

/// A dynamic partition script: cut/heal of link sets over virtual time.
///
/// Messages sent while a link is severed are dropped (the verdict of the
/// wrapping [`FaultyLink`]); messages already in flight are unaffected,
/// matching a network that loses new traffic at the cut, not the queue.
/// A cut with `until = `[`VirtualTime::MAX`] never heals.
///
/// # Examples
///
/// ```
/// use sfs_asys::{PartitionSchedule, ProcessId, VirtualTime};
///
/// let p = |i| ProcessId::new(i);
/// let sched = PartitionSchedule::new()
///     // {p0} is isolated from ticks 100 to 200, then the net heals.
///     .split(VirtualTime::from_ticks(100), VirtualTime::from_ticks(200), &[p(0)]);
/// assert!(!sched.severed(p(0), p(1), VirtualTime::from_ticks(50)));
/// assert!(sched.severed(p(0), p(1), VirtualTime::from_ticks(150)));
/// assert!(sched.severed(p(1), p(0), VirtualTime::from_ticks(150)));
/// assert!(!sched.severed(p(0), p(1), VirtualTime::from_ticks(200)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PartitionSchedule {
    cuts: Vec<Cut>,
}

impl PartitionSchedule {
    /// An empty schedule: the network is never partitioned.
    pub fn new() -> Self {
        PartitionSchedule::default()
    }

    /// Severs the directed links `pairs` for `[from, until)`.
    pub fn cut_links(
        mut self,
        from: VirtualTime,
        until: VirtualTime,
        pairs: &[(ProcessId, ProcessId)],
    ) -> Self {
        self.cuts.push(Cut {
            from,
            until,
            links: LinkSet::Pairs(pairs.to_vec()),
        });
        self
    }

    /// Splits the network into `group` vs. the rest for `[from, until)`:
    /// every link crossing the boundary is severed, in both directions.
    pub fn split(mut self, from: VirtualTime, until: VirtualTime, group: &[ProcessId]) -> Self {
        self.cuts.push(Cut {
            from,
            until,
            links: LinkSet::Split(group.to_vec()),
        });
        self
    }

    /// Whether the link `from -> to` is severed at `now`.
    pub fn severed(&self, from: ProcessId, to: ProcessId, now: VirtualTime) -> bool {
        self.cuts
            .iter()
            .any(|c| now >= c.from && now < c.until && c.links.severs(from, to))
    }

    /// Whether the schedule contains no cuts at all.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// The earliest moment from which the network is whole again — the
    /// latest heal time across all cuts — or `None` when the schedule
    /// has no cuts at all or contains a cut that never heals.
    pub fn healed_at(&self) -> Option<VirtualTime> {
        if self.cuts.iter().any(|c| c.until >= VirtualTime::MAX) {
            return None;
        }
        self.cuts.iter().map(|c| c.until).max()
    }
}

/// One scripted delay storm: messages on `links` pay `extra` additional
/// ticks of delay while `[from, until)` is in effect.
#[derive(Debug, Clone)]
struct Storm {
    from: VirtualTime,
    until: VirtualTime,
    links: LinkSet,
    extra: u64,
}

/// A delay-storm script: windows of virtual time during which chosen link
/// sets pay a flat delay surcharge on top of the base latency model.
///
/// Storms model congestion and gray failure — links that stay *up* (no
/// loss is introduced) but get slow enough to look dead to a poorly
/// provisioned timeout. Overlapping storms stack additively. Like
/// [`PartitionSchedule`], windows are half-open `[from, until)` and the
/// surcharge applies to messages *sent* during the window (in-flight
/// traffic is unaffected).
///
/// # Examples
///
/// ```
/// use sfs_asys::{ProcessId, StormSchedule, VirtualTime};
///
/// let p = |i| ProcessId::new(i);
/// let t = VirtualTime::from_ticks;
/// let storms = StormSchedule::new()
///     // p0's outbound traffic crawls (+120 ticks) from 100 to 200.
///     .surge_links(t(100), t(200), &[(p(0), p(1)), (p(0), p(2))], 120);
/// assert_eq!(storms.surcharge(p(0), p(1), t(150)), 120);
/// assert_eq!(storms.surcharge(p(0), p(1), t(200)), 0);
/// assert_eq!(storms.surcharge(p(1), p(0), t(150)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StormSchedule {
    storms: Vec<Storm>,
}

impl StormSchedule {
    /// An empty schedule: no link ever pays a surcharge.
    pub fn new() -> Self {
        StormSchedule::default()
    }

    /// Adds `extra` ticks to the directed links `pairs` for
    /// `[from, until)`.
    pub fn surge_links(
        mut self,
        from: VirtualTime,
        until: VirtualTime,
        pairs: &[(ProcessId, ProcessId)],
        extra: u64,
    ) -> Self {
        self.storms.push(Storm {
            from,
            until,
            links: LinkSet::Pairs(pairs.to_vec()),
            extra,
        });
        self
    }

    /// Adds `extra` ticks to every link crossing the boundary between
    /// `group` and its complement (both directions) for `[from, until)`.
    pub fn surge_split(
        mut self,
        from: VirtualTime,
        until: VirtualTime,
        group: &[ProcessId],
        extra: u64,
    ) -> Self {
        self.storms.push(Storm {
            from,
            until,
            links: LinkSet::Split(group.to_vec()),
            extra,
        });
        self
    }

    /// The total surcharge on `from -> to` at `now` (overlapping storms
    /// stack).
    pub fn surcharge(&self, from: ProcessId, to: ProcessId, now: VirtualTime) -> u64 {
        self.storms
            .iter()
            .filter(|s| now >= s.from && now < s.until && s.links.severs(from, to))
            .map(|s| s.extra)
            .sum()
    }

    /// Whether the schedule contains no storms at all.
    pub fn is_empty(&self) -> bool {
        self.storms.is_empty()
    }
}

/// A faulty network: a base latency model composed with i.i.d. message
/// loss, i.i.d. duplication, and a [`PartitionSchedule`].
///
/// Verdict order: a severed link drops unconditionally; otherwise the
/// loss coin is tossed, then the duplication coin, then the base model
/// supplies the delay(s). Coins are only consumed when their probability
/// is nonzero, so a `FaultyLink` with `loss = duplicate = 0` and no cuts
/// consumes the rng exactly like its base model — loss-free runs stay
/// byte-identical to bare-latency runs.
///
/// # Examples
///
/// ```
/// use sfs_asys::{FaultyLink, UniformLatency};
///
/// let link = FaultyLink::new(UniformLatency::new(1, 10))
///     .loss(0.05)
///     .duplicate(0.01);
/// # let _ = link;
/// ```
#[derive(Debug, Clone)]
pub struct FaultyLink<B> {
    base: B,
    loss: f64,
    duplicate: f64,
    partitions: PartitionSchedule,
    storms: StormSchedule,
}

impl<B: LatencyModel> FaultyLink<B> {
    /// A loss-free, unpartitioned faulty link over `base` — configure
    /// with [`FaultyLink::loss`], [`FaultyLink::duplicate`],
    /// [`FaultyLink::partitions`], and [`FaultyLink::storms`].
    pub fn new(base: B) -> Self {
        FaultyLink {
            base,
            loss: 0.0,
            duplicate: 0.0,
            partitions: PartitionSchedule::new(),
            storms: StormSchedule::new(),
        }
    }

    /// Sets the i.i.d. per-message loss probability (clamped to `[0, 1]`).
    pub fn loss(mut self, p: f64) -> Self {
        self.loss = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the i.i.d. per-message duplication probability (clamped to
    /// `[0, 1]`).
    pub fn duplicate(mut self, p: f64) -> Self {
        self.duplicate = p.clamp(0.0, 1.0);
        self
    }

    /// Installs the partition script.
    pub fn partitions(mut self, sched: PartitionSchedule) -> Self {
        self.partitions = sched;
        self
    }

    /// Installs the delay-storm script. Surcharges are added to the base
    /// model's delay (both copies of a duplicate pay it) and consume no
    /// randomness, so a storm-free schedule leaves the rng stream — and
    /// hence every existing run — untouched.
    pub fn storms(mut self, sched: StormSchedule) -> Self {
        self.storms = sched;
        self
    }
}

impl<B: LatencyModel> LinkModel for FaultyLink<B> {
    fn verdict(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: VirtualTime,
        rng: &mut StdRng,
    ) -> LinkVerdict {
        if self.partitions.severed(from, to, now) {
            return LinkVerdict::Drop;
        }
        if self.loss > 0.0 && rng.gen_bool(self.loss) {
            return LinkVerdict::Drop;
        }
        let extra = self.storms.surcharge(from, to, now);
        if self.duplicate > 0.0 && rng.gen_bool(self.duplicate) {
            let d1 = self.base.latency(from, to, now, rng);
            let d2 = self.base.latency(from, to, now, rng);
            return LinkVerdict::Duplicate(d1 + extra, d2 + extra);
        }
        LinkVerdict::Deliver(self.base.latency(from, to, now, rng) + extra)
    }
}

/// Arbitrary closure-backed link model, for scripted drop/duplicate
/// patterns (the transport test suite's adversary).
#[derive(Clone)]
pub struct FnLink<F>(pub F);

impl<F> LinkModel for FnLink<F>
where
    F: FnMut(ProcessId, ProcessId, VirtualTime, &mut StdRng) -> LinkVerdict,
{
    fn verdict(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: VirtualTime,
        rng: &mut StdRng,
    ) -> LinkVerdict {
        (self.0)(from, to, now, rng)
    }
}

impl<F> std::fmt::Debug for FnLink<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnLink").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::FixedLatency;
    use rand::SeedableRng;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn t(ticks: u64) -> VirtualTime {
        VirtualTime::from_ticks(ticks)
    }

    #[test]
    fn latency_models_are_loss_free_links() {
        let mut m = FixedLatency(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            LinkModel::verdict(&mut m, p(0), p(1), t(0), &mut rng),
            LinkVerdict::Deliver(4)
        );
    }

    #[test]
    fn partition_windows_are_half_open_and_directional_for_pairs() {
        let sched = PartitionSchedule::new().cut_links(t(10), t(20), &[(p(0), p(1))]);
        assert!(!sched.severed(p(0), p(1), t(9)));
        assert!(sched.severed(p(0), p(1), t(10)));
        assert!(sched.severed(p(0), p(1), t(19)));
        assert!(!sched.severed(p(0), p(1), t(20)));
        // Directed: the reverse link stays up.
        assert!(!sched.severed(p(1), p(0), t(15)));
    }

    #[test]
    fn split_severs_both_directions_across_the_boundary_only() {
        let sched = PartitionSchedule::new().split(t(0), t(100), &[p(0), p(1)]);
        assert!(sched.severed(p(0), p(2), t(5)));
        assert!(sched.severed(p(2), p(1), t(5)));
        // Within either side, links stay up.
        assert!(!sched.severed(p(0), p(1), t(5)));
        assert!(!sched.severed(p(2), p(3), t(5)));
    }

    #[test]
    fn healed_at_is_the_moment_the_whole_net_is_up() {
        let sched =
            PartitionSchedule::new()
                .split(t(10), t(50), &[p(0)])
                .split(t(20), t(80), &[p(1)]);
        assert_eq!(sched.healed_at(), Some(t(80)));
        let forever = PartitionSchedule::new().split(t(10), VirtualTime::MAX, &[p(0)]);
        assert_eq!(forever.healed_at(), None);
        // A forever cut poisons the whole schedule: the network is never
        // whole again, even though another cut heals.
        let mixed = PartitionSchedule::new().split(t(10), t(50), &[p(0)]).split(
            t(20),
            VirtualTime::MAX,
            &[p(1)],
        );
        assert_eq!(mixed.healed_at(), None);
        assert_eq!(PartitionSchedule::new().healed_at(), None);
    }

    #[test]
    fn faulty_link_with_zero_rates_consumes_rng_like_its_base() {
        let mut faulty = FaultyLink::new(FixedLatency(3));
        let mut bare = FixedLatency(3);
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(
                faulty.verdict(p(0), p(1), t(0), &mut r1),
                LinkModel::verdict(&mut bare, p(0), p(1), t(0), &mut r2)
            );
        }
        use rand::RngCore;
        assert_eq!(r1.next_u64(), r2.next_u64(), "identical rng consumption");
    }

    #[test]
    fn loss_rate_is_roughly_respected() {
        let mut link = FaultyLink::new(FixedLatency(1)).loss(0.25);
        let mut rng = StdRng::seed_from_u64(42);
        let drops = (0..10_000)
            .filter(|_| link.verdict(p(0), p(1), t(0), &mut rng) == LinkVerdict::Drop)
            .count();
        assert!((2_000..3_000).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn duplicates_draw_two_delays_from_the_base() {
        let mut link = FaultyLink::new(FixedLatency(7)).duplicate(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            link.verdict(p(0), p(1), t(0), &mut rng),
            LinkVerdict::Duplicate(7, 7)
        );
    }

    #[test]
    fn severed_links_drop_before_any_coin_is_tossed() {
        let mut link = FaultyLink::new(FixedLatency(1)).partitions(PartitionSchedule::new().split(
            t(0),
            VirtualTime::MAX,
            &[p(0)],
        ));
        let mut r1 = StdRng::seed_from_u64(5);
        assert_eq!(link.verdict(p(0), p(1), t(0), &mut r1), LinkVerdict::Drop);
        use rand::RngCore;
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(r1.next_u64(), r2.next_u64(), "no rng consumed on a cut");
    }

    #[test]
    fn overlapping_cuts_sever_while_any_window_is_open() {
        // Two overlapping cuts of the same link: the union of windows
        // severs, and healing one cut does not heal the link early.
        let sched = PartitionSchedule::new()
            .cut_links(t(10), t(30), &[(p(0), p(1))])
            .cut_links(t(20), t(50), &[(p(0), p(1))]);
        assert!(!sched.severed(p(0), p(1), t(9)));
        assert!(sched.severed(p(0), p(1), t(15)));
        assert!(sched.severed(p(0), p(1), t(25)), "overlap region");
        assert!(
            sched.severed(p(0), p(1), t(35)),
            "first cut healed, second holds"
        );
        assert!(!sched.severed(p(0), p(1), t(50)));
        assert_eq!(sched.healed_at(), Some(t(50)));
    }

    #[test]
    fn heal_before_cut_ordering_is_an_empty_window() {
        // A cut whose heal precedes (or equals) its start never severs
        // anything: [from, until) with until <= from is empty.
        let inverted = PartitionSchedule::new().cut_links(t(40), t(10), &[(p(0), p(1))]);
        for tick in 0..60 {
            assert!(!inverted.severed(p(0), p(1), t(tick)), "tick {tick}");
        }
        let degenerate = PartitionSchedule::new().split(t(25), t(25), &[p(0)]);
        assert!(!degenerate.severed(p(0), p(1), t(25)));
    }

    #[test]
    fn cut_at_tick_zero_severs_from_the_first_instant() {
        let sched = PartitionSchedule::new().split(t(0), t(5), &[p(0)]);
        assert!(sched.severed(p(0), p(1), t(0)), "tick 0 is inside [0, 5)");
        assert!(sched.severed(p(1), p(0), t(4)));
        assert!(!sched.severed(p(0), p(1), t(5)));
    }

    #[test]
    fn empty_link_sets_sever_nothing() {
        // A cut over zero pairs and a split of the empty group both name
        // no links; the schedule is non-empty but severs nothing.
        let sched = PartitionSchedule::new()
            .cut_links(t(0), t(100), &[])
            .split(t(0), t(100), &[]);
        assert!(!sched.is_empty());
        for (a, b) in [(0, 1), (1, 0), (2, 3)] {
            assert!(!sched.severed(p(a), p(b), t(50)));
        }
        // A split of the *full* group also crosses no boundary.
        let all = PartitionSchedule::new().split(t(0), t(100), &[p(0), p(1)]);
        assert!(!all.severed(p(0), p(1), t(50)));
    }

    #[test]
    fn storms_surcharge_delays_without_touching_the_rng() {
        let storms = StormSchedule::new()
            .surge_links(t(100), t(200), &[(p(0), p(1))], 120)
            .surge_split(t(150), t(250), &[p(0)], 30);
        let mut link = FaultyLink::new(FixedLatency(3)).storms(storms);
        let mut r1 = StdRng::seed_from_u64(11);
        // Outside every window: base delay.
        assert_eq!(
            link.verdict(p(0), p(1), t(50), &mut r1),
            LinkVerdict::Deliver(3)
        );
        // Inside the pair storm only.
        assert_eq!(
            link.verdict(p(0), p(1), t(120), &mut r1),
            LinkVerdict::Deliver(123)
        );
        // Overlap region: surcharges stack.
        assert_eq!(
            link.verdict(p(0), p(1), t(160), &mut r1),
            LinkVerdict::Deliver(153)
        );
        // The split half also covers the reverse direction.
        assert_eq!(
            link.verdict(p(1), p(0), t(160), &mut r1),
            LinkVerdict::Deliver(33)
        );
        // Half-open: the boundary tick is storm-free for the pair window.
        assert_eq!(
            link.verdict(p(0), p(1), t(200), &mut r1),
            LinkVerdict::Deliver(33)
        );
        // Rng untouched: FixedLatency consumes none, and neither do storms.
        use rand::RngCore;
        let mut r2 = StdRng::seed_from_u64(11);
        assert_eq!(r1.next_u64(), r2.next_u64(), "storms consume no rng");
    }

    #[test]
    fn storm_surcharge_applies_to_both_duplicate_copies() {
        let storms = StormSchedule::new().surge_links(t(0), t(10), &[(p(0), p(1))], 5);
        let mut link = FaultyLink::new(FixedLatency(7))
            .duplicate(1.0)
            .storms(storms);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            link.verdict(p(0), p(1), t(0), &mut rng),
            LinkVerdict::Duplicate(12, 12)
        );
    }

    #[test]
    fn fn_link_scripts_arbitrary_patterns() {
        let mut calls = 0u64;
        let mut link = FnLink(move |_, _, _, _: &mut StdRng| {
            calls += 1;
            if calls.is_multiple_of(2) {
                LinkVerdict::Drop
            } else {
                LinkVerdict::Deliver(1)
            }
        });
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            link.verdict(p(0), p(1), t(0), &mut rng),
            LinkVerdict::Deliver(1)
        );
        assert_eq!(link.verdict(p(0), p(1), t(0), &mut rng), LinkVerdict::Drop);
    }
}
