//! Message latency models: how asynchrony is realized.
//!
//! In an asynchronous system, message delay is unbounded and chosen by an
//! adversary. The simulator makes that adversary explicit: every sent
//! message asks the run's [`LatencyModel`] for a delay. Random models
//! explore "typical" asynchrony; rule-based models implement the paper's
//! adversarial constructions ("the messages sent to the processes in set
//! `S_{i-1}` are delayed indefinitely", Appendix A.3). FIFO order is
//! enforced by the engine regardless of the delays chosen here, matching
//! the paper's channel axioms.

use crate::id::ProcessId;
use crate::time::VirtualTime;
use rand::rngs::StdRng;
use rand::Rng;

/// Horizon used by adversarial models to mean "delayed past the end of any
/// finite experiment" — the finite-prefix rendering of *indefinitely*.
pub const NEVER: u64 = u64::MAX / 4;

/// Why a latency-model configuration is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyError {
    /// The range is inverted: `min > max`.
    InvertedRange {
        /// Requested minimum delay.
        min: u64,
        /// Requested maximum delay.
        max: u64,
    },
}

impl std::fmt::Display for LatencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LatencyError::InvertedRange { min, max } => {
                write!(f, "uniform latency requires min <= max, got [{min}, {max}]")
            }
        }
    }
}

impl std::error::Error for LatencyError {}

/// Chooses a delivery delay (in ticks) for each sent message.
pub trait LatencyModel {
    /// Delay for a message sent `from -> to` at time `now`.
    fn latency(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: VirtualTime,
        rng: &mut StdRng,
    ) -> u64;
}

/// Every message takes exactly `0` extra ticks beyond the minimum of 1.
/// Deliveries become a breadth-first expansion; useful for golden tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedLatency(pub u64);

impl LatencyModel for FixedLatency {
    fn latency(&mut self, _: ProcessId, _: ProcessId, _: VirtualTime, _: &mut StdRng) -> u64 {
        self.0.max(1)
    }
}

/// Uniformly random delay in `[min, max]`; the standard "benign asynchrony"
/// workload for the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformLatency {
    /// Minimum delay in ticks (clamped to at least 1).
    pub min: u64,
    /// Maximum delay in ticks.
    pub max: u64,
}

impl UniformLatency {
    /// Creates a uniform model over `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`; [`UniformLatency::try_new`] returns the
    /// typed [`LatencyError`] instead.
    pub fn new(min: u64, max: u64) -> Self {
        Self::try_new(min, max).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`UniformLatency::new`]: an inverted range comes
    /// back as a typed error instead of a panic, so configuration layers
    /// (e.g. `ClusterSpec::validate` in `sfs`) can surface it.
    ///
    /// # Errors
    ///
    /// [`LatencyError::InvertedRange`] when `min > max`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sfs_asys::{LatencyError, UniformLatency};
    ///
    /// assert!(UniformLatency::try_new(1, 10).is_ok());
    /// assert_eq!(
    ///     UniformLatency::try_new(5, 2),
    ///     Err(LatencyError::InvertedRange { min: 5, max: 2 })
    /// );
    /// ```
    pub fn try_new(min: u64, max: u64) -> Result<Self, LatencyError> {
        if min > max {
            return Err(LatencyError::InvertedRange { min, max });
        }
        Ok(UniformLatency { min, max })
    }
}

impl LatencyModel for UniformLatency {
    fn latency(&mut self, _: ProcessId, _: ProcessId, _: VirtualTime, rng: &mut StdRng) -> u64 {
        rng.gen_range(self.min.max(1)..=self.max.max(1))
    }
}

/// A directed-pair override on top of a base model: selected channels get a
/// fixed latency (typically [`NEVER`]); everything else falls through.
///
/// This is the paper's Appendix A.3 adversary: to build a `k`-cycle in the
/// failed-before relation, the messages `SUSP_{i, i⊕1}` sent to the set
/// `S_{i⊖1}` are "delayed indefinitely".
#[derive(Debug, Clone)]
pub struct OverrideLatency<B> {
    base: B,
    overrides: Vec<(ProcessId, ProcessId, u64)>,
}

impl<B: LatencyModel> OverrideLatency<B> {
    /// Wraps `base` with an empty override table.
    pub fn new(base: B) -> Self {
        OverrideLatency {
            base,
            overrides: Vec::new(),
        }
    }

    /// Forces messages `from -> to` to take `delay` ticks.
    pub fn hold(mut self, from: ProcessId, to: ProcessId, delay: u64) -> Self {
        self.overrides.push((from, to, delay));
        self
    }

    /// Forces messages from `from` to every process in `targets` to take
    /// `delay` ticks.
    pub fn hold_set(mut self, from: ProcessId, targets: &[ProcessId], delay: u64) -> Self {
        for &t in targets {
            self.overrides.push((from, t, delay));
        }
        self
    }
}

impl<B: LatencyModel> LatencyModel for OverrideLatency<B> {
    fn latency(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: VirtualTime,
        rng: &mut StdRng,
    ) -> u64 {
        for &(f, t, d) in &self.overrides {
            if f == from && t == to {
                return d.max(1);
            }
        }
        self.base.latency(from, to, now, rng)
    }
}

/// Arbitrary closure-backed model, for scripted scenarios.
#[derive(Clone)]
pub struct FnLatency<F>(pub F);

impl<F> LatencyModel for FnLatency<F>
where
    F: FnMut(ProcessId, ProcessId, VirtualTime, &mut StdRng) -> u64,
{
    fn latency(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: VirtualTime,
        rng: &mut StdRng,
    ) -> u64 {
        (self.0)(from, to, now, rng).max(1)
    }
}

// Generic over every closure type, not just the bare fn-pointer
// instantiation, so runs configured with capturing closures stay
// derivable-`Debug` all the way up the generic stack.
impl<F> std::fmt::Debug for FnLatency<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnLatency").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fixed_latency_is_at_least_one() {
        let mut m = FixedLatency(0);
        let mut r = rng();
        assert_eq!(
            m.latency(
                ProcessId::new(0),
                ProcessId::new(1),
                VirtualTime::ZERO,
                &mut r
            ),
            1
        );
    }

    #[test]
    fn uniform_latency_stays_in_range() {
        let mut m = UniformLatency::new(2, 9);
        let mut r = rng();
        for _ in 0..200 {
            let d = m.latency(
                ProcessId::new(0),
                ProcessId::new(1),
                VirtualTime::ZERO,
                &mut r,
            );
            assert!((2..=9).contains(&d), "delay {d} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn uniform_latency_rejects_inverted_range() {
        let _ = UniformLatency::new(5, 2);
    }

    #[test]
    fn try_new_reports_inverted_ranges_as_typed_errors() {
        assert_eq!(UniformLatency::try_new(2, 9), Ok(UniformLatency::new(2, 9)));
        assert_eq!(
            UniformLatency::try_new(9, 2),
            Err(LatencyError::InvertedRange { min: 9, max: 2 })
        );
        assert_eq!(
            LatencyError::InvertedRange { min: 9, max: 2 }.to_string(),
            "uniform latency requires min <= max, got [9, 2]"
        );
    }

    #[test]
    fn fn_latency_is_debug_for_capturing_closures() {
        // The Debug impl must cover arbitrary closure types, not just the
        // bare fn-pointer instantiation: a capturing closure exercises it.
        let base = 3u64;
        let m =
            FnLatency(move |_: ProcessId, _: ProcessId, _: VirtualTime, _: &mut StdRng| base + 1);
        assert!(format!("{m:?}").contains("FnLatency"));
    }

    #[test]
    fn override_latency_applies_to_selected_pair_only() {
        let mut m =
            OverrideLatency::new(FixedLatency(3)).hold(ProcessId::new(0), ProcessId::new(1), NEVER);
        let mut r = rng();
        assert_eq!(
            m.latency(
                ProcessId::new(0),
                ProcessId::new(1),
                VirtualTime::ZERO,
                &mut r
            ),
            NEVER
        );
        assert_eq!(
            m.latency(
                ProcessId::new(1),
                ProcessId::new(0),
                VirtualTime::ZERO,
                &mut r
            ),
            3
        );
        assert_eq!(
            m.latency(
                ProcessId::new(0),
                ProcessId::new(2),
                VirtualTime::ZERO,
                &mut r
            ),
            3
        );
    }

    #[test]
    fn hold_set_covers_all_targets() {
        let targets = [ProcessId::new(2), ProcessId::new(3)];
        let mut m =
            OverrideLatency::new(FixedLatency(1)).hold_set(ProcessId::new(0), &targets, 500);
        let mut r = rng();
        for &t in &targets {
            assert_eq!(
                m.latency(ProcessId::new(0), t, VirtualTime::ZERO, &mut r),
                500
            );
        }
        assert_eq!(
            m.latency(
                ProcessId::new(0),
                ProcessId::new(1),
                VirtualTime::ZERO,
                &mut r
            ),
            1
        );
    }

    #[test]
    fn fn_latency_clamps_to_one() {
        let mut m = FnLatency(|_, _, _, _: &mut StdRng| 0u64);
        let mut r = rng();
        assert_eq!(
            m.latency(
                ProcessId::new(0),
                ProcessId::new(0),
                VirtualTime::ZERO,
                &mut r
            ),
            1
        );
    }
}
