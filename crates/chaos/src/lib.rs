//! # sfs-chaos — deterministic fault orchestration
//!
//! The chaos orchestrator for experiment E13: it composes over the
//! `sfs-asys` link seam ([`PartitionSchedule`], [`StormSchedule`]) and the
//! service's crash plumbing to script *unplanned-looking* fault loads that
//! are nevertheless fully determined by a seed:
//!
//! * **Poisson crash arrivals** over virtual time — exponential
//!   inter-arrival gaps sampled by inverse CDF from the vendored rng;
//! * **correlated group failures** — one arrival takes out a run of
//!   neighbouring shards at the same tick;
//! * **flapping partitions** — repeated cut/heal cycles on a victim's
//!   outbound links;
//! * **delay storms** — gray failure: links stay up but pay a delay
//!   surcharge big enough to look dead to a poorly provisioned timeout.
//!
//! The output is a [`ChaosPlan`]: per *(epoch, shard)* overlays that the
//! service's continuous epoch loop applies to each shard run. Crash
//! victims are addressed by *rank from the top* of the shard's current
//! local id range, so the same plan remains meaningful as survivors are
//! relabelled between epochs — and never lands on local `p0`, the
//! designated gray-failure victim. Because the plan only produces
//! schedules and crash scripts consumed through `ClusterSpec`/`NetSpec`,
//! it runs unchanged on the deterministic simulator and the threaded
//! runtime.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sfs_asys::{PartitionSchedule, ProcessId, StormSchedule, VirtualTime};

/// Draws one exponential inter-arrival gap with the given mean (in
/// ticks), by inverse CDF over the rng's next 64 bits. The result is
/// clamped to at least 1 tick so arrival sequences always advance.
pub fn exponential_gap(rng: &mut StdRng, mean_ticks: u64) -> u64 {
    // u ∈ [0, 1); 1 - u ∈ (0, 1] keeps ln finite.
    let u = rng.next_u64() as f64 / (u64::MAX as f64 + 1.0);
    let gap = -(1.0 - u).ln() * mean_ticks as f64;
    (gap.ceil() as u64).max(1)
}

/// The arrival ticks of a Poisson process with mean inter-arrival
/// `mean_ticks`, over `[0, horizon)`. Deterministic per rng state.
pub fn poisson_arrivals(rng: &mut StdRng, mean_ticks: u64, horizon: u64) -> Vec<u64> {
    let mut at = 0u64;
    let mut out = Vec::new();
    loop {
        at = at.saturating_add(exponential_gap(rng, mean_ticks));
        if at >= horizon {
            return out;
        }
        out.push(at);
    }
}

/// The cut windows of a flapping partition: `count` cycles starting at
/// `start`, each severed for `cut_len` ticks then healed for `gap` ticks.
pub fn flapping(start: u64, count: usize, cut_len: u64, gap: u64) -> Vec<(u64, u64)> {
    (0..count as u64)
        .map(|k| {
            let from = start + k * (cut_len + gap);
            (from, from + cut_len)
        })
        .collect()
}

/// The chaos overlay for one shard in one epoch.
///
/// `crashes` are `(rank_from_top, tick)`: rank 0 is the shard's highest
/// current local id, rank 1 the next, and so on — the service resolves
/// ranks against the epoch's actual membership. The flap and storm
/// windows target local `p0`'s *outbound* links (the gray-failure victim
/// seat); instantiate them against a concrete shard size with
/// [`ShardChaos::partitions_for`] / [`ShardChaos::storms_for`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardChaos {
    /// Poisson/correlated crash script: `(rank_from_top, tick)`.
    pub crashes: Vec<(usize, u64)>,
    /// Flapping-partition cut windows `[from, until)` on p0's outbound
    /// links.
    pub flaps: Vec<(u64, u64)>,
    /// Delay-storm window `(from, until, extra_ticks)` on p0's outbound
    /// links.
    pub storm: Option<(u64, u64, u64)>,
}

impl ShardChaos {
    /// Whether this overlay injects nothing at all.
    pub fn is_quiet(&self) -> bool {
        self.crashes.is_empty() && self.flaps.is_empty() && self.storm.is_none()
    }

    /// The directed pairs `p0 -> pj` for a shard of `n` processes.
    fn outbound_of_p0(n: usize) -> Vec<(ProcessId, ProcessId)> {
        (1..n)
            .map(|j| (ProcessId::new(0), ProcessId::new(j)))
            .collect()
    }

    /// The flap windows as a [`PartitionSchedule`] over local pids
    /// `0..n`.
    pub fn partitions_for(&self, n: usize) -> PartitionSchedule {
        let pairs = Self::outbound_of_p0(n);
        self.flaps
            .iter()
            .fold(PartitionSchedule::new(), |s, &(from, until)| {
                s.cut_links(
                    VirtualTime::from_ticks(from),
                    VirtualTime::from_ticks(until),
                    &pairs,
                )
            })
    }

    /// The storm window as a [`StormSchedule`] over local pids `0..n`.
    pub fn storms_for(&self, n: usize) -> StormSchedule {
        match self.storm {
            None => StormSchedule::new(),
            Some((from, until, extra)) => StormSchedule::new().surge_links(
                VirtualTime::from_ticks(from),
                VirtualTime::from_ticks(until),
                &Self::outbound_of_p0(n),
                extra,
            ),
        }
    }
}

/// Parameters of one chaos soak: how hard, how correlated, and for how
/// long the orchestrator beats on the service.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Number of shards under test.
    pub shards: usize,
    /// Per-shard failure bound (used to derive the default thinning cap).
    pub t: usize,
    /// Epochs in the soak.
    pub epochs: usize,
    /// Virtual-tick horizon of each epoch.
    pub epoch_len: u64,
    /// Ticks at the end of each epoch kept free of new crash arrivals,
    /// so FS1's eventualities discharge before the horizon.
    pub quiet_tail: u64,
    /// Mean inter-arrival gap of the global Poisson crash process.
    pub crash_mean_gap: u64,
    /// Probability that an arrival is a correlated *group* failure.
    pub group_p: f64,
    /// Shards taken out together by a group failure (consecutive ids).
    pub group_size: usize,
    /// Thinning cap: crashes per shard across the whole soak. Keeps the
    /// Poisson load inside each shard's failure budget so one additional
    /// erroneous suspicion still certifies.
    pub max_crashes_per_shard: usize,
    /// Guarantee at least one crash somewhere even if the Poisson draw
    /// is empty (deterministic floor, so every soak exercises FS1).
    pub crash_floor: bool,
    /// Epoch-0 flapping-partition windows on each shard's local p0
    /// outbound links.
    pub flaps: Vec<(u64, u64)>,
    /// Epoch-0 delay-storm window `(from, until, extra)` on each shard's
    /// local p0 outbound links.
    pub storm: Option<(u64, u64, u64)>,
    /// Orchestration seed: the entire plan is a function of this spec.
    pub seed: u64,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            shards: 4,
            t: 2,
            epochs: 3,
            epoch_len: 1_000,
            quiet_tail: 250,
            crash_mean_gap: 1_500,
            group_p: 0.25,
            group_size: 2,
            max_crashes_per_shard: 1,
            crash_floor: true,
            flaps: Vec::new(),
            storm: None,
            seed: 0,
        }
    }
}

impl ChaosSpec {
    /// A spec for `shards` shards of failure bound `t`, everything else
    /// defaulted.
    pub fn new(shards: usize, t: usize) -> Self {
        ChaosSpec {
            shards,
            t,
            max_crashes_per_shard: t.saturating_sub(1).max(1),
            ..ChaosSpec::default()
        }
    }

    /// Sets the orchestration seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets epoch count and per-epoch horizon.
    pub fn horizon(mut self, epochs: usize, epoch_len: u64) -> Self {
        self.epochs = epochs;
        self.epoch_len = epoch_len;
        self
    }

    /// Installs epoch-0 flapping cuts (see [`flapping`]).
    pub fn flaps(mut self, windows: Vec<(u64, u64)>) -> Self {
        self.flaps = windows;
        self
    }

    /// Installs the epoch-0 delay storm.
    pub fn storm(mut self, from: u64, until: u64, extra: u64) -> Self {
        self.storm = Some((from, until, extra));
        self
    }

    /// Expands the spec into the full per-(epoch, shard) overlay plan.
    /// Pure: the same spec always yields the same plan.
    pub fn plan(&self) -> ChaosPlan {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC4A0_5EED);
        let mut epochs: Vec<Vec<ShardChaos>> =
            vec![vec![ShardChaos::default(); self.shards]; self.epochs];
        let mut count = vec![0usize; self.shards];
        let horizon = self.epoch_len * self.epochs as u64;
        for at in poisson_arrivals(&mut rng, self.crash_mean_gap, horizon) {
            let first = rng.gen_range(0..self.shards);
            let group = if self.group_p > 0.0 && rng.gen_bool(self.group_p) {
                self.group_size.max(1)
            } else {
                1
            };
            for k in 0..group {
                let shard = (first + k) % self.shards;
                if count[shard] >= self.max_crashes_per_shard {
                    continue; // thinning: stay inside the failure budget
                }
                let epoch = (at / self.epoch_len) as usize;
                let tick = (at % self.epoch_len).clamp(1, self.epoch_len - self.quiet_tail);
                epochs[epoch][shard].crashes.push((count[shard], tick));
                count[shard] += 1;
            }
        }
        if self.crash_floor && count.iter().all(|&c| c == 0) && !epochs.is_empty() {
            let tick = (self.epoch_len / 2).clamp(1, self.epoch_len - self.quiet_tail);
            epochs[0][0].crashes.push((0, tick));
        }
        for shard in epochs[0].iter_mut() {
            shard.flaps = self.flaps.clone();
            shard.storm = self.storm;
        }
        ChaosPlan { epochs }
    }
}

/// The expanded chaos plan: one [`ShardChaos`] overlay per
/// *(epoch, shard)*.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    epochs: Vec<Vec<ShardChaos>>,
}

impl ChaosPlan {
    /// The overlay for `shard` in `epoch`. Epochs beyond the planned
    /// horizon (and shards beyond the planned width) are quiet.
    pub fn overlay(&self, epoch: usize, shard: usize) -> ShardChaos {
        self.epochs
            .get(epoch)
            .and_then(|e| e.get(shard))
            .cloned()
            .unwrap_or_default()
    }

    /// Number of planned epochs.
    pub fn epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Total crash events across the whole plan.
    pub fn total_crashes(&self) -> usize {
        self.epochs
            .iter()
            .flat_map(|e| e.iter())
            .map(|s| s.crashes.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_deterministic_and_mean_is_roughly_right() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = poisson_arrivals(&mut r1, 50, 100_000);
        let b = poisson_arrivals(&mut r2, 50, 100_000);
        assert_eq!(a, b, "same seed, same arrivals");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(a.iter().all(|&t| t < 100_000));
        // ~2000 expected; allow a generous band.
        assert!((1_500..2_600).contains(&a.len()), "count = {}", a.len());
    }

    #[test]
    fn flapping_windows_tile_without_overlap() {
        let w = flapping(200, 4, 60, 80);
        assert_eq!(w, vec![(200, 260), (340, 400), (480, 540), (620, 680)]);
        assert!(
            w.windows(2).all(|p| p[0].1 <= p[1].0),
            "healed between cuts"
        );
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let spec = ChaosSpec::new(6, 2).seed(42).horizon(3, 800);
        assert_eq!(spec.plan(), spec.plan());
        assert_ne!(
            spec.plan(),
            ChaosSpec::new(6, 2).seed(43).horizon(3, 800).plan(),
            "different seed should (at this density) move arrivals"
        );
    }

    #[test]
    fn thinning_respects_the_per_shard_budget_and_quiet_tail() {
        // A dense arrival stream: without thinning every shard would be
        // hit many times over.
        let spec = ChaosSpec {
            crash_mean_gap: 10,
            ..ChaosSpec::new(5, 2).seed(3)
        };
        let plan = spec.plan();
        let mut per_shard = vec![0usize; spec.shards];
        for epoch in 0..spec.epochs {
            for (shard, seen) in per_shard.iter_mut().enumerate() {
                let overlay = plan.overlay(epoch, shard);
                for &(rank, tick) in &overlay.crashes {
                    assert!(tick >= 1 && tick <= spec.epoch_len - spec.quiet_tail);
                    assert_eq!(rank, *seen, "ranks count up from the top");
                    *seen += 1;
                }
            }
        }
        assert!(per_shard.iter().all(|&c| c <= spec.max_crashes_per_shard));
        assert!(plan.total_crashes() > 0);
    }

    #[test]
    fn correlated_group_failures_hit_consecutive_shards_at_one_tick() {
        let spec = ChaosSpec {
            crash_mean_gap: 400,
            group_p: 1.0,
            group_size: 3,
            max_crashes_per_shard: 8,
            ..ChaosSpec::new(9, 2).seed(11).horizon(1, 4_000)
        };
        let plan = spec.plan();
        // Every arrival is a group of 3: collect (tick -> shards hit) and
        // check at least one tick hits 3 consecutive shards.
        let mut by_tick: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        for shard in 0..spec.shards {
            for &(_, tick) in &plan.overlay(0, shard).crashes {
                by_tick.entry(tick).or_default().push(shard);
            }
        }
        assert!(
            by_tick.values().any(|shards| {
                let mut s = shards.clone();
                s.sort_unstable();
                s.len() == 3
                    && s.windows(2)
                        .all(|w| (w[0] + 1) % spec.shards == w[1] % spec.shards)
            }),
            "no correlated triple found: {by_tick:?}"
        );
    }

    #[test]
    fn crash_floor_guarantees_at_least_one_crash() {
        let spec = ChaosSpec {
            crash_mean_gap: u64::MAX / 4, // essentially no Poisson arrivals
            ..ChaosSpec::new(3, 2).seed(0)
        };
        let plan = spec.plan();
        assert_eq!(plan.total_crashes(), 1, "the deterministic floor fires");
        let (rank, tick) = plan.overlay(0, 0).crashes[0];
        assert_eq!(rank, 0);
        assert!(tick >= 1 && tick <= spec.epoch_len - spec.quiet_tail);
    }

    #[test]
    fn epoch_zero_overlays_carry_flaps_and_storm_for_every_shard() {
        let spec = ChaosSpec::new(3, 2)
            .seed(5)
            .flaps(flapping(200, 3, 60, 80))
            .storm(700, 880, 120);
        let plan = spec.plan();
        for shard in 0..3 {
            let o = plan.overlay(0, shard);
            assert_eq!(o.flaps.len(), 3);
            assert_eq!(o.storm, Some((700, 880, 120)));
            // Instantiated over n = 4: p0's outbound severed mid-flap,
            // reverse direction untouched, storm pays on p0 outbound only.
            let parts = o.partitions_for(4);
            let p = ProcessId::new;
            let t = VirtualTime::from_ticks;
            assert!(parts.severed(p(0), p(3), t(230)));
            assert!(!parts.severed(p(3), p(0), t(230)));
            assert!(!parts.severed(p(0), p(3), t(300)), "healed between flaps");
            let storms = o.storms_for(4);
            assert_eq!(storms.surcharge(p(0), p(1), t(750)), 120);
            assert_eq!(storms.surcharge(p(1), p(0), t(750)), 0);
        }
        // Later epochs are quiet apart from any Poisson crashes.
        for shard in 0..3 {
            let o = plan.overlay(1, shard);
            assert!(o.flaps.is_empty() && o.storm.is_none());
        }
        // Out-of-range lookups are quiet, not a panic.
        assert!(plan.overlay(99, 0).is_quiet());
        assert!(plan.overlay(0, 99).is_quiet());
    }
}
