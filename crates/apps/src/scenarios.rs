//! Adversarial executions from the paper's lower-bound proofs, plus
//! systematic schedule-space exploration of small protocol instances.
//!
//! Two kinds of adversary live here:
//!
//! * [`WitnessAttack`] — the *constructed* adversary of Appendix A.3: one
//!   specific latency schedule forcing a failed-before cycle (Theorem 6);
//! * [`ExploreInstance`] — the *universal* adversary: every schedule of a
//!   bounded instance, enumerated via the `sfs-explore` crate, with each
//!   explored history pushed through the full property suite
//!   ([`check_sfs_suite`](sfs_tlogic::properties::check_sfs_suite)) and
//!   the Theorem 5 rearrangement engine ([`rearrange_to_fs`]) to produce
//!   per-property **certify/violate** verdicts (experiment E9).
//!
//! The centerpiece of the first kind is the Appendix A.3 construction behind Theorem 6: if
//! the quorum sets of `k = t` detections can have empty intersection (no
//! witness), an asynchronous adversary can schedule message delays so that
//! the failed-before relation acquires a `k`-cycle, violating sFS2b.
//!
//! The construction: divide `P` into `k` sets `S_0 .. S_{k-1}` with
//! initiator `i ∈ S_i`. Every process in `S_j` has its messages to all of
//! `S_{j⊕1}` delayed indefinitely. Each process is made to suspect the
//! `k` victims in an order chosen so that, for every victim `x`, the vote
//! `"x⊕1 failed"` is sent before `"x failed"` on every non-delayed
//! channel — so victim `x` completes its quorum for `x⊕1` *before* its own
//! obituary kills it. Each victim can gather at most `n - |S_{x⊖1}|
//! = n(t-1)/t` votes; if the protocol's quorum threshold is at or below
//! that bound, all `k` detections fire and `failed_0(1), failed_1(2), ...,
//! failed_{k-1}(0)` close the cycle. At the Theorem 7 threshold
//! `⌊n(t-1)/t⌋ + 1`, no victim can complete its round and the attack
//! fails — the bound is tight.

use sfs::{
    Backend, ClusterSpec, Instruments, ModeSpec, NetSpec, NullApp, ProbeConfig, QuorumPolicy,
    SfsMsg,
};
use sfs_asys::{
    ChoiceTrace, FixedLatency, OverrideLatency, PartitionSchedule, ProcessId, Sim, Trace,
    VirtualTime,
};
use sfs_explore::{
    class_fingerprint, explore, random_walks, replay, replay_fidelity, shrink, DifferentialOracle,
    Divergence, Envelope, ExploreConfig, ExploreStats, PropertyEnvelope, Pruning, ScheduleRun,
    ShrinkConfig, ShrinkOutcome, WalkConfig,
};
use sfs_history::{rearrange_to_fs, FailedBefore, History};
use sfs_tlogic::{properties, Verdict};
use std::collections::HashSet;
use std::time::Duration;

/// Parameters of the A.3 witness-violation attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessAttack {
    /// System size; must satisfy `n ≥ t` (sets need one initiator each).
    pub n: usize,
    /// Cycle size `k = t` — the number of victims.
    pub t: usize,
    /// Vote threshold the protocol is (mis)configured with.
    pub quorum: usize,
    /// Scheduler seed (the attack is deterministic; the seed only affects
    /// inconsequential tie-breaks).
    pub seed: u64,
}

impl WitnessAttack {
    /// The largest vote count any victim can gather under this attack:
    /// `n - |S_{x⊖1}| - 1`, minimized over victims (sets are near-equal).
    ///
    /// The `-1` is a nuance of the concrete §5 protocol relative to the
    /// abstract §4 model the Theorem 7 bound is stated for: in §4 the
    /// suspected process may still ACK its own suspicion, so the
    /// construction reaches `n(t-1)/t` votes; in §5 the acknowledgement
    /// *is* the obituary and the victim crashes instead of acking, costing
    /// every round exactly one vote. The concrete protocol therefore
    /// resists the attack even one vote below the abstract bound.
    pub fn max_available_votes(&self) -> usize {
        let k = self.t;
        // |S_j| = processes with index ≡ j (mod k); the largest set bounds
        // the tightest victim.
        let largest_set = self.n.div_ceil(k);
        self.n - largest_set - 1
    }

    /// Runs the attack and returns the trace.
    ///
    /// # Panics
    ///
    /// Panics if `t < 2` (a cycle needs at least two victims), `n < t`, or
    /// the attack's quorum is infeasible for `(n, t)`.
    pub fn run(&self) -> Trace {
        assert!(
            self.t >= 2,
            "a failed-before cycle needs at least two victims"
        );
        assert!(self.n >= self.t, "need one initiator per set");
        let n = self.n;
        let k = self.t;
        let set_of = |p: ProcessId| p.index() % k;
        let members_of = |j: usize| -> Vec<ProcessId> {
            ProcessId::all(n).filter(|p| set_of(*p) == j).collect()
        };

        // Timing: suspicion steps are `d` ticks apart; the base channel
        // latency `l` exceeds the whole injection window so no process
        // learns a suspicion from a peer before its own schedule says so.
        let d = k as u64; // injection step spacing
        let l = (k * k + k + 10) as u64; // base latency

        // Adversarial latency. Two layers (first match wins):
        //  1. S_j -> S_{j+1} held past the horizon ("delayed
        //     indefinitely");
        //  2. channels into each victim x are sped up in proportion to how
        //     *late* the sender's schedule votes for x's suspect x+1, so
        //     every quorum vote for x+1 arrives strictly before any
        //     obituary of x. (On each channel FIFO already orders the two;
        //     this handles the race *between* channels.)
        let mut latency = OverrideLatency::new(FixedLatency(l));
        for from in ProcessId::all(n) {
            let blocked = members_of((set_of(from) + 1) % k);
            latency = latency.hold_set(from, &blocked, sfs_asys::NEVER);
        }
        for from in ProcessId::all(n) {
            let j = set_of(from);
            for x in 0..k {
                // Position of victim x+1 in `from`'s descending schedule.
                let pos = ((j + k) - x) % k;
                if pos == k - 1 {
                    continue; // that's the held channel (j = x-1)
                }
                let victim = ProcessId::new(x);
                let chan_latency = l - (pos as u64) * (d - 1);
                latency = latency.hold(from, victim, chan_latency);
            }
        }

        // Suspicion schedule: process v in S_j suspects the victims in the
        // order j+1, j, j-1, ... (descending mod k). On every non-delayed
        // channel FIFO then delivers the obituary of x+1 before the
        // obituary of x, so each victim completes its round before dying.
        let mut spec = ClusterSpec::new(n, k)
            .quorum(QuorumPolicy::FixedCount(self.quorum))
            .seed(self.seed)
            .max_time(100_000);
        for v in ProcessId::all(n) {
            let j = set_of(v);
            for step in 0..k {
                // Descending from j+1: victim = (j + 1 - step) mod k.
                let victim = ProcessId::new((j + 1 + k - step) % k);
                spec = spec.suspect(v, victim, 1 + step as u64 * d);
            }
        }
        spec.try_build_with_latency(latency, |_| sfs::NullApp)
            .expect("attack quorum is feasible for (n, t)")
            .run()
    }
}

/// Whether the trace's failed-before relation contains a cycle exactly
/// over the `t` victims `{0, .., t-1}`.
pub fn cycle_among_victims(trace: &Trace, t: usize) -> bool {
    let h = History::from_trace(trace);
    let fb = FailedBefore::from_history(&h);
    match fb.find_cycle() {
        None => false,
        Some(cycle) => cycle.iter().all(|p| p.index() < t),
    }
}

/// A bounded protocol instance whose **entire schedule space** is to be
/// checked: the universal-adversary counterpart of [`WitnessAttack`].
///
/// Exploration re-runs the cluster once per schedule, so the spec should
/// be small (3–4 processes, a couple of injected suspicions/crashes);
/// larger instances fall back to [`ExploreInstance::random_walks`].
///
/// # Examples
///
/// Certify the full sFS suite over *every* schedule of a 3-process
/// instance with one erroneous suspicion:
///
/// ```
/// use sfs::ClusterSpec;
/// use sfs_apps::scenarios::ExploreInstance;
/// use sfs_asys::ProcessId;
///
/// let spec = ClusterSpec::new(3, 1).suspect(ProcessId::new(1), ProcessId::new(0), 10);
/// let outcome = ExploreInstance::new(spec).explore();
/// assert!(outcome.stats.complete, "small instance: fully enumerated");
/// assert!(outcome.all_certified(), "no schedule violates any sFS property");
/// ```
#[derive(Debug, Clone)]
pub struct ExploreInstance {
    /// The cluster under test. Its `seed`/`latency` fields are largely
    /// moot: the explorer overrides the schedule entirely.
    pub spec: ClusterSpec,
    /// Exploration budgets and pruning policy.
    pub config: ExploreConfig,
}

/// The exploration verdict for one property on one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyCertificate {
    /// Property name as reported by the checker (e.g. `"sFS2a"`), or the
    /// synthetic `"Theorem5"` entry for "an isomorphic fail-stop run
    /// exists" — the schedule-robust reading of FS2 (raw FS2 order is
    /// interleaving-sensitive, so it is exactly the thing exploration
    /// must *not* quantify class-wise; Theorem 5 rearrangeability is its
    /// commutation-invariant counterpart).
    pub property: String,
    /// `true` when the exploration was complete and no schedule violated
    /// the property: a proof over the instance's whole schedule space.
    pub certified: bool,
    /// Schedule-equivalence classes on which the property was violated
    /// (an upper bound after [`ExploreOutcome::merge`]: parallel branches
    /// dedup independently, so a class seen by two branches counts
    /// twice).
    pub violations: usize,
    /// The choice trace of the first violating schedule, replayable via
    /// [`ExploreInstance::replay`].
    pub witness: Option<ChoiceTrace>,
}

/// Aggregated result of exploring one instance.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Raw exploration counters (schedules, pruning, completeness).
    pub stats: ExploreStats,
    /// Sorted fingerprints of the distinct happens-before classes
    /// checked (see [`class_fingerprint`]).
    pub fingerprints: Vec<u64>,
    /// Visited schedules skipped because their class fingerprint had
    /// already been checked (catches equivalences sleep sets miss, e.g.
    /// the pruning lost across parallel root branches).
    pub deduped: usize,
    /// Simulator trace events across every *visited* schedule — the
    /// experiment harness's throughput denominator.
    pub trace_events: u64,
    /// One certificate per property, in suite order, `"Theorem5"` last.
    pub properties: Vec<PropertyCertificate>,
    /// Whether this outcome was [merged](ExploreOutcome::merge) from
    /// parallel root branches. Merged per-property violation counts are
    /// upper bounds (branches dedup independently), which weakens what an
    /// [`Envelope`](ExploreOutcome::envelope) may claim.
    pub merged: bool,
}

impl ExploreOutcome {
    /// Distinct happens-before classes actually checked.
    pub fn classes(&self) -> usize {
        self.fingerprints.len()
    }

    /// The certificate for `property`, if present.
    pub fn certificate(&self, property: &str) -> Option<&PropertyCertificate> {
        self.properties.iter().find(|c| c.property == property)
    }

    /// Whether every property was certified (requires a complete
    /// exploration with zero violations across the board).
    pub fn all_certified(&self) -> bool {
        self.properties.iter().all(|c| c.certified)
    }

    /// Folds the outcome of another (root-branch) exploration of the
    /// **same instance** into this one: counters sum, class fingerprints
    /// union, per-property violations sum (first witness wins), and a
    /// property stays certified only if the merged exploration is
    /// complete with zero violations.
    pub fn merge(mut self, other: ExploreOutcome) -> ExploreOutcome {
        self.merged = true;
        self.stats.absorb(&other.stats);
        self.fingerprints.extend(other.fingerprints);
        self.fingerprints.sort_unstable();
        self.fingerprints.dedup();
        self.deduped += other.deduped;
        self.trace_events += other.trace_events;
        for theirs in other.properties {
            match self
                .properties
                .iter_mut()
                .find(|c| c.property == theirs.property)
            {
                Some(ours) => {
                    ours.violations += theirs.violations;
                    if ours.witness.is_none() {
                        ours.witness = theirs.witness;
                    }
                }
                None => self.properties.push(theirs),
            }
        }
        for c in &mut self.properties {
            c.certified = self.stats.complete && c.violations == 0;
        }
        self
    }
}

/// The standard per-run evaluator behind every backend comparison: the
/// full sFS suite ([`check_sfs_suite`](properties::check_sfs_suite)) plus
/// the synthetic `"Theorem5"` entry ("an isomorphic fail-stop run
/// exists", via [`rearrange_to_fs`] after completing missing crashes —
/// sFS2a guarantees those crashes in the full run, so they are charged to
/// the already-checked sFS2a, as the paper does).
///
/// `complete` gates liveness: on a truncated prefix unmet eventualities
/// come back [`Verdict::Vacuous`], never [`Verdict::Violated`].
pub fn sfs_verdicts(trace: &Trace, complete: bool) -> Vec<(&'static str, Verdict)> {
    sfs_verdicts_of(&History::from_trace(trace), complete)
}

/// [`sfs_verdicts`] on an already-projected [`History`] — the form the
/// exploration hot path uses, where the history is also needed for the
/// class fingerprint and must not be rebuilt per check.
pub fn sfs_verdicts_of(h: &History, complete: bool) -> Vec<(&'static str, Verdict)> {
    let mut verdicts: Vec<(&'static str, Verdict)> = properties::check_sfs_suite(h, complete)
        .into_iter()
        .map(|report| (report.property, report.verdict))
        .collect();
    let theorem5 = match rearrange_to_fs(&h.complete_missing_crashes()) {
        Ok(_) => Verdict::Holds,
        Err(_) => Verdict::Violated,
    };
    verdicts.push(("Theorem5", theorem5));
    verdicts
}

/// Verdict accumulator shared by the exhaustive and sampling drivers.
#[derive(Debug, Default)]
struct Verdicts {
    seen: HashSet<u64>,
    deduped: usize,
    trace_events: u64,
    /// name → (violations, first witness)
    table: Vec<(String, usize, Option<ChoiceTrace>)>,
}

impl Verdicts {
    fn note(&mut self, name: &str, verdict: Verdict, choices: &ChoiceTrace) {
        let entry = match self.table.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => e,
            None => {
                self.table.push((name.to_owned(), 0, None));
                self.table.last_mut().expect("just pushed")
            }
        };
        if verdict == Verdict::Violated {
            entry.1 += 1;
            if entry.2.is_none() {
                entry.2 = Some(choices.clone());
            }
        }
    }

    fn ingest(&mut self, run: &ScheduleRun) {
        self.trace_events += run.trace.events().len() as u64;
        let h = History::from_trace(&run.trace);
        let fp = class_fingerprint(&h);
        if !self.seen.insert(fp) {
            self.deduped += 1;
            return;
        }
        // Liveness obligations are only judged on complete (quiescent)
        // schedules; truncated ones still check all safety properties.
        let complete = run.trace.stop_reason().is_complete();
        for (property, verdict) in sfs_verdicts_of(&h, complete) {
            self.note(property, verdict, &run.choices);
        }
    }

    fn finish(self, stats: ExploreStats) -> ExploreOutcome {
        let mut fingerprints: Vec<u64> = self.seen.iter().copied().collect();
        fingerprints.sort_unstable();
        ExploreOutcome {
            stats,
            fingerprints,
            deduped: self.deduped,
            trace_events: self.trace_events,
            merged: false,
            properties: self
                .table
                .into_iter()
                .map(|(property, violations, witness)| PropertyCertificate {
                    certified: stats.complete && violations == 0,
                    property,
                    violations,
                    witness,
                })
                .collect(),
        }
    }
}

impl ExploreInstance {
    /// An instance with default exploration budgets.
    pub fn new(spec: ClusterSpec) -> Self {
        ExploreInstance {
            spec,
            config: ExploreConfig::default(),
        }
    }

    /// A fresh, un-run simulator for the spec. Exploration ignores the
    /// spec's latency model, so a fixed one keeps `at` annotations tame.
    fn build(&self) -> Sim<SfsMsg<()>> {
        self.spec
            .try_build_with_latency(FixedLatency(1), |_| NullApp)
            .expect("explored instance is feasible")
    }

    /// Sleep-set pruning is sound only when process behaviour is a
    /// function of (local state, delivered event) — the paper's own
    /// determinism assumption. Heartbeat detection reads the virtual
    /// clock (`ctx.now()`), and the oracle detector reads the shared
    /// crash registry; both can observe *when* a step runs relative to
    /// steps at other loci, so commuting locus-disjoint steps is no
    /// longer behaviour-preserving and a "complete" pruned exploration
    /// could falsely certify. Refuse rather than mis-prove.
    fn assert_pruning_sound(&self) {
        if self.config.pruning != Pruning::SleepSets {
            return;
        }
        assert!(
            self.spec.heartbeat.is_none(),
            "sleep-set pruning is unsound under heartbeat detection (handlers read \
             ctx.now()); use Pruning::None or random_walks"
        );
        assert!(
            self.spec.mode != ModeSpec::Oracle,
            "sleep-set pruning is unsound under the oracle detector (handlers read \
             the shared crash registry); use Pruning::None or random_walks"
        );
    }

    /// Exhaustively explores the instance's schedule space (within the
    /// configured budgets) and checks every schedule class against the
    /// sFS suite and the Theorem 5 rearrangement engine.
    ///
    /// # Panics
    ///
    /// Panics on spec/pruning combinations where sleep-set pruning would
    /// be unsound (heartbeat or oracle detection): use
    /// [`Pruning::None`] or [`ExploreInstance::random_walks`] there.
    pub fn explore(&self) -> ExploreOutcome {
        self.assert_pruning_sound();
        let mut verdicts = Verdicts::default();
        let stats = explore(&self.config, || self.build(), |run| verdicts.ingest(&run));
        verdicts.finish(stats)
    }

    /// Explores only the subtree under `prefix` — the unit the E9 sweep
    /// parallelizes over (one rayon task per root branch).
    ///
    /// # Panics
    ///
    /// As [`ExploreInstance::explore`].
    pub fn explore_prefix(&self, prefix: &[u32]) -> ExploreOutcome {
        self.assert_pruning_sound();
        let mut verdicts = Verdicts::default();
        let stats = sfs_explore::explore_with_prefix(
            &self.config,
            prefix,
            || self.build(),
            |run| verdicts.ingest(&run),
        );
        verdicts.finish(stats)
    }

    /// The root branching width of the instance's schedule tree.
    pub fn width(&self) -> usize {
        sfs_explore::probe_width(|| self.build())
    }

    /// The sampling fallback: `config.walks` random schedules. Verdicts
    /// are aggregated identically but nothing is ever certified
    /// (`certified` stays `false` on every entry).
    pub fn random_walks(&self, config: &WalkConfig) -> ExploreOutcome {
        let mut verdicts = Verdicts::default();
        let stats = random_walks(config, || self.build(), |run| verdicts.ingest(&run));
        verdicts.finish(stats)
    }

    /// Replays a recorded witness against a fresh instance, reproducing
    /// its trace byte-for-byte.
    pub fn replay(&self, choices: &[u32]) -> Trace {
        replay(self.build(), choices)
    }
}

// ---- faulty-network scenarios (experiment E12) --------------------------

/// One adversarial network condition for a transport-backed cluster run:
/// the scenario family behind experiment E12 and the faulty-net behaviour
/// suites of the election/membership/workpool applications.
///
/// Every scenario runs the §5 protocol inside the `sfs-transport` ARQ
/// layer with heartbeat probing, so **all** suspicions are endogenous
/// (missed-heartbeat timeouts), never scripted.
#[derive(Debug, Clone, PartialEq)]
pub enum NetScenario {
    /// I.i.d. per-message loss at the given rate.
    Loss(f64),
    /// I.i.d. per-message duplication at the given rate.
    Duplicate(f64),
    /// A transmit-side blackout: the first `island` processes cannot
    /// *send* for `[cut_at, heal_at)` (their inbound links stay up — the
    /// gray-failure shape: alive but silent, exactly the "erroneous
    /// suspicion" the paper's model admits). Survivors' probes time out,
    /// the protocol detects the island and kills it cleanly; a
    /// sufficiently short cut is harmless. `island` must stay within the
    /// failure bound `t` for the run to stay within the paper's model.
    HealedPartition {
        /// Number of silenced processes (ids `0..island`).
        island: usize,
        /// Cut start (ticks).
        cut_at: u64,
        /// Heal time (ticks).
        heal_at: u64,
    },
    /// Membership churn: `crashes` staggered real crashes, one every
    /// `every` ticks starting at 100, victims from the top of the id
    /// space. Detection is endogenous (probe timeouts).
    Churn {
        /// Number of crashes (keep `<= t`).
        crashes: usize,
        /// Tick gap between consecutive crashes.
        every: u64,
    },
}

impl NetScenario {
    /// A short, stable label for tables and test names.
    pub fn label(&self) -> String {
        match self {
            NetScenario::Loss(p) => format!("loss {:.0}%", p * 100.0),
            NetScenario::Duplicate(p) => format!("dup {:.0}%", p * 100.0),
            NetScenario::HealedPartition {
                island,
                cut_at,
                heal_at,
            } => format!("cut {island} [{cut_at},{heal_at})"),
            NetScenario::Churn { crashes, every } => format!("churn {crashes}/{every}"),
        }
    }

    /// The transport-backed cluster spec for this scenario over `(n, t)`:
    /// probe-driven endogenous detection, a horizon long enough for
    /// every scenario of this family to settle, and — for the crash-ful
    /// scenarios — one real crash at tick 100 so detection latency is
    /// measurable.
    ///
    /// The probe timeout is provisioned for the family's worst tested
    /// loss rate (250 ticks ≈ 12 heartbeat intervals: at 20% i.i.d.
    /// loss the chance of losing a whole window of pings is ~10⁻⁸).
    /// An *under*provisioned timeout is not a bug in the transport but
    /// physics: enough consecutive losses are indistinguishable from a
    /// crash, the prober suspects a live peer, and each such false
    /// suspicion spends one unit of the failure budget `t` — beyond
    /// which the paper's guarantees genuinely end.
    pub fn spec(&self, n: usize, t: usize, seed: u64) -> ClusterSpec {
        let probe = ProbeConfig {
            interval: 20,
            timeout: 250,
            check_every: 25,
        };
        let mut net = NetSpec::faultless().probe(probe);
        let mut spec = ClusterSpec::new(n, t).seed(seed).max_time(6_000);
        match *self {
            NetScenario::Loss(p) => {
                net = net.loss(p);
                spec = spec.crash(ProcessId::new(n - 1), 100);
            }
            NetScenario::Duplicate(p) => {
                net = net.duplicate(p);
                spec = spec.crash(ProcessId::new(n - 1), 100);
            }
            NetScenario::HealedPartition {
                island,
                cut_at,
                heal_at,
            } => {
                let outbound: Vec<(ProcessId, ProcessId)> = (0..island)
                    .flat_map(|i| {
                        (0..n)
                            .filter(move |&j| j != i)
                            .map(move |j| (ProcessId::new(i), ProcessId::new(j)))
                    })
                    .collect();
                net = net.partitions(PartitionSchedule::new().cut_links(
                    VirtualTime::from_ticks(cut_at),
                    VirtualTime::from_ticks(heal_at),
                    &outbound,
                ));
            }
            NetScenario::Churn { crashes, every } => {
                for i in 0..crashes {
                    spec = spec.crash(ProcessId::new(n - 1 - i), 100 + i as u64 * every);
                }
            }
        }
        spec.net(net)
    }
}

// ---- differential conformance ------------------------------------------

/// Budgets for one differential-conformance check of one instance.
#[derive(Debug, Clone, Copy)]
pub struct ConformanceConfig {
    /// Scheduled simulator runs under [`RandomStrategy`](sfs_asys::RandomStrategy)
    /// (each also replay-checked), seeds `seed..seed + random_runs`.
    pub random_runs: usize,
    /// Repetitions on the threaded runtime (real-concurrency
    /// nondeterminism: every repetition is a fresh schedule).
    pub threaded_runs: usize,
    /// Transport-backed simulator runs (`sim:transport`): the instance
    /// on the loss-free faulty-net leg — §5 inside the `sfs-transport`
    /// ARQ layer — whose model-level history must land in the bare
    /// exploration's envelope. Seeds `seed..seed + transport_runs`.
    pub transport_runs: usize,
    /// Multi-process UDP backend runs (`net:udp`): the instance across
    /// real OS processes and localhost datagrams, whose Lamport-merged
    /// trace must land in the same envelope. Skipped (with a stderr
    /// note) when the `sfs-udp-node` binary is not built, so library
    /// test runs stay self-contained.
    pub udp_runs: usize,
    /// Base seed for the random-strategy runs.
    pub seed: u64,
    /// Budgets for minimizing the reference exploration's witnesses.
    pub shrink: ShrinkConfig,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            random_runs: 8,
            threaded_runs: 2,
            transport_runs: 2,
            udp_runs: 0,
            seed: 1,
            shrink: ShrinkConfig::default(),
        }
    }
}

/// What one backend contributed to a conformance check.
#[derive(Debug, Clone)]
pub struct BackendReport {
    /// Backend label (`"sim:time-ordered"`, `"sim:random"`, `"replay"`,
    /// `"threaded:event"`, `"threaded:event+net"`, `"sim:transport"`,
    /// `"sim:transport-adaptive"`, `"net:udp"`).
    pub backend: &'static str,
    /// Runs executed on this backend.
    pub runs: usize,
    /// Runs that were maximal (quiescent, or drained on the threaded
    /// runtime) and therefore subject to the full envelope.
    pub complete_runs: usize,
    /// Runs that produced at least one divergence.
    pub divergent_runs: usize,
    /// Divergences this backend produced (empty = agreement).
    pub divergences: Vec<Divergence>,
}

impl BackendReport {
    fn new(backend: &'static str) -> Self {
        BackendReport {
            backend,
            runs: 0,
            complete_runs: 0,
            divergent_runs: 0,
            divergences: Vec::new(),
        }
    }

    fn absorb_run(&mut self, complete: bool, divergences: Vec<Divergence>) {
        self.runs += 1;
        self.complete_runs += usize::from(complete);
        self.divergent_runs += usize::from(!divergences.is_empty());
        self.divergences.extend(divergences);
    }
}

/// A reference witness minimized by the delta-debugging shrinker.
#[derive(Debug, Clone)]
pub struct ShrunkWitness {
    /// The violated property the witness exhibits.
    pub property: String,
    /// The minimized, strictly replayable witness and its statistics.
    pub outcome: ShrinkOutcome,
}

/// Aggregate result of one differential-conformance check.
#[derive(Debug)]
pub struct ConformanceOutcome {
    /// The reference exploration (sequential, so per-class violation
    /// counts are exact).
    pub reference: ExploreOutcome,
    /// One report per backend.
    pub backends: Vec<BackendReport>,
    /// Recorded schedules strictly re-executed for byte-identity.
    pub replay_checks: usize,
    /// Reference witnesses after shrinking, one per violated property.
    pub shrunk: Vec<ShrunkWitness>,
}

impl ConformanceOutcome {
    /// Whether every backend agreed with the reference envelope.
    pub fn agreement(&self) -> bool {
        self.backends.iter().all(|b| b.divergences.is_empty())
    }

    /// Every divergence across all backends.
    pub fn divergences(&self) -> impl Iterator<Item = &Divergence> {
        self.backends.iter().flat_map(|b| b.divergences.iter())
    }

    /// Total backend runs executed.
    pub fn total_runs(&self) -> usize {
        self.backends.iter().map(|b| b.runs).sum()
    }

    /// Fraction of backend runs that produced no divergence, in `[0, 1]`.
    pub fn agreement_rate(&self) -> f64 {
        let total = self.total_runs();
        if total == 0 {
            return 1.0;
        }
        let divergent: usize = self.backends.iter().map(|b| b.divergent_runs).sum();
        (total - divergent) as f64 / total as f64
    }
}

impl ExploreOutcome {
    /// The conformance [`Envelope`] this exploration establishes.
    ///
    /// `always_violated` is derived from exact per-class violation
    /// counts, which holds for outcomes produced by a *sequential*
    /// [`ExploreInstance::explore`]; on a
    /// [merged](ExploreOutcome::merge) outcome the violation count is an
    /// upper bound (branches dedup independently), so the flag is
    /// suppressed there to stay sound.
    pub fn envelope(&self) -> Envelope {
        // A merged outcome can double-count a class seen by two branches,
        // so `violations >= classes` stops implying "every class
        // violates"; suppress the universal flag there.
        let exact = self.stats.complete && !self.merged;
        Envelope {
            complete: self.stats.complete,
            fingerprints: self.fingerprints.clone(),
            properties: self
                .properties
                .iter()
                .map(|c| PropertyEnvelope {
                    property: c.property.clone(),
                    certified: c.certified,
                    always_violated: exact
                        && c.violations > 0
                        && c.violations >= self.fingerprints.len(),
                    witness: c.witness.clone(),
                })
                .collect(),
        }
    }
}

/// Wall-clock bound on one `net:udp` conformance run. Its ticks are real
/// milliseconds; the handshake returns as soon as quiescence is
/// confirmed, so the bound costs nothing on healthy runs.
const UDP_SETTLE: Duration = Duration::from_secs(5);

impl ExploreInstance {
    /// The full differential-conformance check of this instance: explores
    /// the schedule space into a reference [`Envelope`], then drives the
    /// other backends through the [`DifferentialOracle`]:
    ///
    /// 1. `sim:time-ordered` — one scheduled run under
    ///    [`TimeOrderedStrategy`](sfs_asys::TimeOrderedStrategy) (the
    ///    default engine's schedule);
    /// 2. `sim:random` — `random_runs` scheduled runs under seeded
    ///    [`RandomStrategy`](sfs_asys::RandomStrategy);
    /// 3. `replay` — every recorded schedule from (1) and (2) strictly
    ///    re-executed and byte-compared;
    /// 4. `threaded:event` — `threaded_runs` executions on real OS
    ///    threads under the event-driven virtual clock;
    /// 5. `threaded:event+net` — `threaded_runs` threaded executions
    ///    over the runtime's link seam (ARQ-wrapped processes on a
    ///    loss-free [`NetSpec`]), so real concurrency and the emulated
    ///    transport are exercised *together*;
    /// 6. `sim:transport` / `sim:transport-adaptive` — the simulated
    ///    transport-backed legs, pinning that the ARQ layer re-earns the
    ///    §2 channel axioms;
    /// 7. `net:udp` — `udp_runs` executions with every process in its
    ///    own OS process over real localhost UDP (the `sfs-wire`
    ///    backend). Trace times are Lamport ticks, so this column pins
    ///    the causal-order properties; runs are skipped with a stderr
    ///    note when the `sfs-udp-node` binary is not built.
    ///
    /// Reference witnesses are then minimized by the delta-debugging
    /// shrinker, each shrink candidate re-validated by replay.
    pub fn conformance(&self, config: &ConformanceConfig) -> ConformanceOutcome {
        let reference = self.explore();
        let envelope = reference.envelope();
        let oracle = DifferentialOracle::new(envelope, |trace: &Trace, complete| {
            sfs_verdicts(trace, complete)
                .into_iter()
                .map(|(p, v)| (p.to_owned(), v))
                .collect()
        });

        let mut backends = Vec::new();
        let mut replay_checks = 0usize;
        let mut replay_report = BackendReport::new("replay");
        // Runs a scheduled simulator recorded, checks the run against the
        // envelope, and replays its recording strictly.
        let mut check_recorded = |report: &mut BackendReport, sim: Sim<SfsMsg<()>>| {
            let (trace, log) = sim.run_scheduled();
            let complete = trace.stop_reason().is_complete();
            let run = ScheduleRun {
                trace,
                choices: log.choices(),
                truncated: !complete,
            };
            report.absorb_run(complete, oracle.check(report.backend, &run.trace, complete));
            replay_checks += 1;
            replay_report.absorb_run(
                complete,
                replay_fidelity("replay", || self.build(), &run)
                    .into_iter()
                    .collect(),
            );
        };

        // Backend 1: the default engine's schedule.
        let mut time_ordered = BackendReport::new("sim:time-ordered");
        let mut sim = self.build();
        sim.set_strategy(sfs_asys::TimeOrderedStrategy);
        check_recorded(&mut time_ordered, sim);

        // Backend 2: seeded random schedulers.
        let mut random = BackendReport::new("sim:random");
        for i in 0..config.random_runs {
            let mut sim = self.build();
            let seed = config.seed.wrapping_add(i as u64);
            sim.set_strategy(sfs_asys::RandomStrategy::new(seed));
            check_recorded(&mut random, sim);
        }
        backends.push(time_ordered);
        backends.push(random);
        backends.push(replay_report);

        // Backends 4–7 of the list above, one row each: (label, engine,
        // network, runs, fresh seeds). `None` as the engine is the
        // multi-process UDP leg; the network alone picks each engine's
        // leg. The transport and UDP rows run seeds `seed..seed + runs`;
        // the threaded rows reuse the instance's own seed, real
        // concurrency varying the schedule. Every row's model-level history must land in the
        // bare exploration's envelope: same class set, same verdict
        // bounds — which pins differentially, not axiomatically, that
        // the transport earns the §2 channel axioms, that adaptive
        // timeouts are model-invisible on a loss-free link, and that the
        // threaded runtime and the real wire keep the causal order.
        let faultless = NetSpec::faultless();
        let adaptive = NetSpec::faultless().adaptive(sfs::AdaptiveConfig::default());
        #[rustfmt::skip]
        let rows = [
            ("threaded:event",         Some(Backend::Threaded), None,             config.threaded_runs,  false),
            ("threaded:event+net",     Some(Backend::Threaded), Some(&faultless), config.threaded_runs,  false),
            ("sim:transport",          Some(Backend::Sim),      Some(&faultless), config.transport_runs, true),
            ("sim:transport-adaptive", Some(Backend::Sim),      Some(&adaptive),  config.transport_runs, true),
            ("net:udp",                None,                    Some(&faultless), config.udp_runs,       true),
        ];
        for (label, engine, net, runs, fresh_seeds) in rows {
            let mut report = BackendReport::new(label);
            for i in 0..runs {
                let mut spec = self.spec.clone();
                spec.net = net.cloned();
                if fresh_seeds {
                    spec.seed = config.seed.wrapping_add(i as u64);
                }
                let (trace, complete) = match engine {
                    Some(backend) => {
                        let out = spec
                            .run(backend, Instruments::default(), |_| NullApp)
                            .expect("explored instance is feasible");
                        (out.trace.expect("recorded"), out.quiesced)
                    }
                    // Real-kernel nondeterminism replaces the seeded
                    // strategies. A missing node binary downgrades the
                    // row to a skip so `cargo test` without `--bins`
                    // still passes.
                    None => match spec.try_run_udp(UDP_SETTLE) {
                        Ok(run) => (run.trace, run.quiesced),
                        Err(e) => {
                            eprintln!("{label}: skipping runs {i}.. ({e})");
                            break;
                        }
                    },
                };
                report.absorb_run(complete, oracle.check(label, &trace, complete));
            }
            backends.push(report);
        }

        // Minimize every reference witness.
        let shrunk = reference
            .properties
            .iter()
            .filter_map(|c| {
                let witness = c.witness.as_ref()?;
                let outcome = self.shrink_witness(&c.property, witness, &config.shrink)?;
                Some(ShrunkWitness {
                    property: c.property.clone(),
                    outcome,
                })
            })
            .collect();

        ConformanceOutcome {
            reference,
            backends,
            replay_checks,
            shrunk,
        }
    }

    /// Delta-debugs `witness` down to a minimal choice trace whose replay
    /// still violates `property`, re-validating every candidate by
    /// replay. Returns `None` if the witness itself does not reproduce
    /// the violation (a conformance failure the oracle reports
    /// separately).
    pub fn shrink_witness(
        &self,
        property: &str,
        witness: &[u32],
        config: &ShrinkConfig,
    ) -> Option<ShrinkOutcome> {
        shrink(
            config,
            || self.build(),
            witness,
            |run| {
                let complete = run.trace.stop_reason().is_complete();
                sfs_verdicts(&run.trace, complete)
                    .into_iter()
                    .any(|(p, v)| p == property && v == Verdict::Violated)
            },
        )
    }

    /// Whether a bounded (sequential) exploration of this instance still
    /// finds a violation of `property`; the witness if so. The
    /// re-validation step for [`ExploreInstance::shrink_instance`]
    /// candidates — a spec change invalidates recorded choice traces, so
    /// candidates are vetted by re-exploration, not replay.
    fn violation_witness(&self, property: &str) -> Option<ChoiceTrace> {
        if self
            .spec
            .quorum
            .validated(self.spec.n, self.spec.t)
            .is_err()
        {
            return None; // infeasible candidate: building would panic
        }
        let out = self.explore();
        out.certificate(property)
            .filter(|c| c.violations > 0)
            .and_then(|c| c.witness.clone())
    }

    /// Shrinks the **instance itself** — the other delta-debugging axis:
    /// greedily drops scripted suspicions and crashes, removes
    /// unreferenced top processes (`n`), and lowers the failure bound
    /// (`t`), keeping any candidate whose re-exploration still violates
    /// `property` (infeasible candidates are skipped). The reduced
    /// instance's witness is then choice-shrunk via
    /// [`ExploreInstance::shrink_witness`].
    ///
    /// Returns `None` when this instance's own exploration does not
    /// violate `property` in the first place.
    pub fn shrink_instance(
        &self,
        property: &str,
        config: &ShrinkConfig,
    ) -> Option<InstanceShrinkOutcome> {
        let mut current = self.clone();
        let mut witness = current.violation_witness(property)?;
        let mut dropped_suspicions = 0usize;
        let mut dropped_crashes = 0usize;
        let mut dropped_processes = 0usize;
        let mut t_reduction = 0usize;
        #[derive(Clone, Copy)]
        enum Axis {
            Suspicion,
            Crash,
            Process,
            Bound,
        }
        loop {
            let mut improved = false;
            let mut candidates: Vec<(ExploreInstance, Axis)> = Vec::new();
            let derived = |spec: ClusterSpec| ExploreInstance {
                spec,
                config: current.config,
            };
            for i in 0..current.spec.suspicions.len() {
                let mut spec = current.spec.clone();
                spec.suspicions.remove(i);
                candidates.push((derived(spec), Axis::Suspicion));
            }
            for i in 0..current.spec.crashes.len() {
                let mut spec = current.spec.clone();
                spec.crashes.remove(i);
                candidates.push((derived(spec), Axis::Crash));
            }
            let top = ProcessId::new(current.spec.n.saturating_sub(1));
            let top_referenced = current.spec.crashes.iter().any(|&(p, _)| p == top)
                || current
                    .spec
                    .suspicions
                    .iter()
                    .any(|&(by, of, _)| by == top || of == top);
            if current.spec.n > 1 && !top_referenced {
                let mut spec = current.spec.clone();
                spec.n -= 1;
                spec.t = spec.t.min(spec.n);
                candidates.push((derived(spec), Axis::Process));
            }
            if current.spec.t > 0 {
                let mut spec = current.spec.clone();
                spec.t -= 1;
                candidates.push((derived(spec), Axis::Bound));
            }
            for (candidate, axis) in candidates {
                if let Some(w) = candidate.violation_witness(property) {
                    current = candidate;
                    witness = w;
                    match axis {
                        Axis::Suspicion => dropped_suspicions += 1,
                        Axis::Crash => dropped_crashes += 1,
                        Axis::Process => dropped_processes += 1,
                        Axis::Bound => t_reduction += 1,
                    }
                    improved = true;
                    break;
                }
            }
            if !improved {
                break;
            }
        }
        let witness = current
            .shrink_witness(property, &witness, config)
            .expect("re-explored witness reproduces by construction");
        Some(InstanceShrinkOutcome {
            instance: current,
            dropped_suspicions,
            dropped_crashes,
            dropped_processes,
            t_reduction,
            witness,
        })
    }
}

/// Result of [`ExploreInstance::shrink_instance`]: the reduced instance
/// plus its minimized witness.
#[derive(Debug)]
pub struct InstanceShrinkOutcome {
    /// The reduced instance (still violating the property).
    pub instance: ExploreInstance,
    /// Scripted suspicions dropped from the spec.
    pub dropped_suspicions: usize,
    /// Scripted crashes dropped from the spec.
    pub dropped_crashes: usize,
    /// Processes removed (`n` reduction).
    pub dropped_processes: usize,
    /// Failure-bound reduction (`t`).
    pub t_reduction: usize,
    /// The reduced instance's minimal choice-trace witness.
    pub witness: ShrinkOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs::quorum::min_quorum;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn attack_below_the_bound_builds_a_two_cycle() {
        let n = 6;
        let t = 2;
        let attack = WitnessAttack {
            n,
            t,
            quorum: attack_quorum(n, t),
            seed: 0,
        };
        assert!(attack.quorum < min_quorum(n, t) || attack.quorum <= attack.max_available_votes());
        let trace = attack.run();
        assert!(
            cycle_among_victims(&trace, t),
            "no cycle found:\n{}",
            trace.to_pretty_string()
        );
    }

    #[test]
    fn attack_below_the_bound_builds_a_three_cycle() {
        let n = 9;
        let t = 3;
        let attack = WitnessAttack {
            n,
            t,
            quorum: attack_quorum(n, t),
            seed: 0,
        };
        let trace = attack.run();
        assert!(
            cycle_among_victims(&trace, t),
            "no cycle found:\n{}",
            trace.to_pretty_string()
        );
    }

    #[test]
    fn attack_fails_at_the_theorem7_threshold() {
        for (n, t) in [(6usize, 2usize), (12, 3), (10, 2)] {
            let attack = WitnessAttack {
                n,
                t,
                quorum: min_quorum(n, t),
                seed: 0,
            };
            let trace = attack.run();
            assert!(
                !cycle_among_victims(&trace, t),
                "n={n}, t={t}: cycle formed at the safe threshold\n{}",
                trace.to_pretty_string()
            );
            // Stronger: the history must satisfy sFS2b outright.
            let h = History::from_trace(&trace);
            assert!(FailedBefore::from_history(&h).is_acyclic());
        }
    }

    /// The vote threshold the attack targets: the largest count every
    /// victim can still gather.
    fn attack_quorum(n: usize, t: usize) -> usize {
        WitnessAttack {
            n,
            t,
            quorum: 0,
            seed: 0,
        }
        .max_available_votes()
    }

    #[test]
    fn exploration_certifies_the_full_protocol_within_the_failure_bound() {
        // n = 3, t = 1, one erroneous suspicion: ONE crash, within the
        // bound. Every schedule must satisfy the whole sFS suite and
        // rearrange into a fail-stop run (Theorem 5) — and the
        // exploration is small enough to prove it.
        let inst = ExploreInstance::new(ClusterSpec::new(3, 1).suspect(p(1), p(0), 10));
        let out = inst.explore();
        assert!(out.stats.complete, "{:?}", out.stats);
        assert!(out.all_certified(), "{:#?}", out.properties);
        assert!(out.certificate("sFS2b").is_some());
        assert!(out.certificate("Theorem5").is_some());
        assert!(out.classes() >= 1);
    }

    #[test]
    fn exploration_finds_a_replayable_cycle_beyond_the_failure_bound() {
        // Two suspicions → two crashes > t = 1: some schedule builds a
        // failed-before cycle (sFS2b violation), and consequently no
        // isomorphic fail-stop run exists (Theorem 5 inapplicable).
        let inst = ExploreInstance::new(ClusterSpec::new(3, 1).suspect(p(1), p(0), 10).suspect(
            p(0),
            p(1),
            10,
        ));
        let out = inst.explore();
        assert!(out.stats.complete);
        let cycle = out.certificate("sFS2b").expect("sFS2b checked");
        assert!(!cycle.certified);
        assert!(cycle.violations > 0);
        // The recorded witness replays to a schedule exhibiting the
        // violation, byte-for-byte.
        let witness = cycle.witness.clone().expect("violation recorded");
        let trace = inst.replay(&witness);
        let h = History::from_trace(&trace);
        assert_eq!(
            sfs_tlogic::properties::check_sfs2b(&h).verdict,
            Verdict::Violated,
            "replayed witness must reproduce the cycle:\n{}",
            trace.to_pretty_string()
        );
        assert!(!out.certificate("Theorem5").expect("checked").certified);
        // Properties indifferent to the cycle stay certified.
        assert!(out.certificate("sFS2c").expect("checked").certified);
    }

    #[test]
    fn exploration_pins_the_ablation_violation_on_every_schedule_class() {
        // Disabling crash-on-own-obituary: the victim survives its
        // detection on EVERY schedule — sFS2a (and Condition 1) violated.
        let inst = ExploreInstance::new(
            ClusterSpec::new(3, 1)
                .suspect(p(1), p(0), 10)
                .without_self_crash(),
        );
        let out = inst.explore();
        assert!(out.stats.complete);
        let a = out.certificate("sFS2a").expect("checked");
        assert!(!a.certified && a.violations > 0);
        assert!(a.witness.is_some());
        assert!(!out.certificate("Condition1").expect("checked").certified);
    }

    #[test]
    fn root_branch_partition_merges_to_the_sequential_outcome() {
        let inst = ExploreInstance::new(ClusterSpec::new(3, 1).suspect(p(1), p(0), 10).suspect(
            p(2),
            p(1),
            12,
        ));
        let sequential = inst.explore();
        let width = inst.width();
        assert!(width >= 1);
        let merged = (0..width as u32)
            .map(|b| inst.explore_prefix(&[b]))
            .reduce(ExploreOutcome::merge)
            .expect("at least one branch");
        assert!(merged.stats.complete);
        assert_eq!(
            merged.fingerprints, sequential.fingerprints,
            "branch partition must cover exactly the same classes"
        );
        let verdicts = |o: &ExploreOutcome| {
            let mut v: Vec<(String, bool)> = o
                .properties
                .iter()
                .map(|c| (c.property.clone(), c.certified))
                .collect();
            v.sort();
            v
        };
        assert_eq!(verdicts(&merged), verdicts(&sequential));
    }

    /// A cheap conformance budget for tests: fewer random runs, one
    /// threaded repetition, small shrink budget.
    fn test_conformance_config() -> ConformanceConfig {
        ConformanceConfig {
            random_runs: 4,
            threaded_runs: 1,
            transport_runs: 1,
            // Deterministic totals for the assertions below: the UDP leg
            // depends on a separately built binary, so the cheap budget
            // leaves it to the dedicated `udp_backend` integration tests.
            udp_runs: 0,
            seed: 7,
            shrink: ShrinkConfig {
                max_replays: 2048,
                canonicalize: true,
            },
        }
    }

    #[test]
    fn conformance_all_backends_agree_on_the_certified_instance() {
        let inst = ExploreInstance::new(ClusterSpec::new(3, 1).suspect(p(1), p(0), 10));
        let out = inst.conformance(&test_conformance_config());
        assert!(out.reference.stats.complete);
        assert!(out.reference.all_certified());
        assert!(
            out.agreement(),
            "{:#?}",
            out.divergences().collect::<Vec<_>>()
        );
        assert!(out.replay_checks >= 5, "{}", out.replay_checks);
        // time-ordered + random + replay + threaded:event +
        // threaded:event+net + transport + transport-adaptive; the
        // net:udp column is present but budgeted to zero runs here.
        assert_eq!(
            out.total_runs(),
            1 + 4 + 5 + 1 + 1 + 1 + 1,
            "{:#?}",
            out.backends
        );
        assert!(out.backends.iter().any(|b| b.backend == "net:udp"));
        // Nothing was violated, so nothing was shrunk.
        assert!(out.shrunk.is_empty());
    }

    #[test]
    fn conformance_agrees_beyond_the_bound_and_shrinks_the_cycle_witness() {
        // The PR 2 sFS2b cycle instance: mutual suspicion, 2 crashes > t.
        let inst = ExploreInstance::new(ClusterSpec::new(3, 1).suspect(p(1), p(0), 10).suspect(
            p(0),
            p(1),
            10,
        ));
        let out = inst.conformance(&test_conformance_config());
        assert!(out.reference.stats.complete);
        assert!(
            out.agreement(),
            "{:#?}",
            out.divergences().collect::<Vec<_>>()
        );
        let cycle = out
            .shrunk
            .iter()
            .find(|s| s.property == "sFS2b")
            .expect("cycle witness shrunk");
        assert!(
            cycle.outcome.final_len < cycle.outcome.initial_len,
            "no reduction: {} -> {}",
            cycle.outcome.initial_len,
            cycle.outcome.final_len
        );
        // The minimal witness still replays to the violation, strictly.
        let trace = inst.replay(&cycle.outcome.run.choices);
        assert_eq!(trace, cycle.outcome.run.trace);
        let h = History::from_trace(&trace);
        assert_eq!(properties::check_sfs2b(&h).verdict, Verdict::Violated);
    }

    #[test]
    fn envelope_of_a_merged_outcome_drops_the_universal_claim() {
        // Two injections give the schedule tree a root width of 2, so the
        // branch partition genuinely merges.
        let inst = ExploreInstance::new(
            ClusterSpec::new(3, 1)
                .suspect(p(1), p(0), 10)
                .suspect(p(2), p(0), 12)
                .without_self_crash(),
        );
        let sequential = inst.explore();
        assert!(!sequential.merged);
        // sFS2a is violated on every class: the sequential envelope says so.
        let envelope = sequential.envelope();
        assert!(envelope.property("sFS2a").expect("present").always_violated);
        let width = inst.width();
        let merged = (0..width as u32)
            .map(|b| inst.explore_prefix(&[b]))
            .reduce(ExploreOutcome::merge)
            .expect("width >= 1");
        assert!(merged.merged);
        // The merged outcome may double-count, so its envelope must not
        // make the universal claim even though it happens to be true.
        let envelope = merged.envelope();
        assert!(!envelope.property("sFS2a").expect("present").always_violated);
        assert!(envelope.complete);
    }

    #[test]
    fn shrink_instance_reduces_spec_and_witness() {
        // A cycle-exhibiting spec padded with an irrelevant third
        // suspicion. The instance shrinker must strip scripted noise
        // while the sFS2b cycle keeps reproducing, then choice-shrink the
        // reduced instance's witness.
        let inst = ExploreInstance::new(
            ClusterSpec::new(3, 1)
                .suspect(p(1), p(0), 10)
                .suspect(p(0), p(1), 10)
                .suspect(p(2), p(0), 50),
        );
        let out = inst
            .shrink_instance("sFS2b", &ShrinkConfig::default())
            .expect("cycle reproducible");
        assert!(
            out.dropped_suspicions >= 1,
            "no suspicion dropped: {:?}",
            out.instance.spec
        );
        assert!(out.instance.spec.suspicions.len() < 3);
        // The reduced instance still violates, with a replayable witness.
        let trace = out.instance.replay(&out.witness.run.choices);
        assert_eq!(trace, out.witness.run.trace);
        let h = History::from_trace(&trace);
        assert_eq!(properties::check_sfs2b(&h).verdict, Verdict::Violated);
    }

    #[test]
    fn random_walks_sample_without_certifying() {
        let inst = ExploreInstance::new(ClusterSpec::new(3, 1).suspect(p(1), p(0), 10));
        let out = inst.random_walks(&sfs_explore::WalkConfig {
            walks: 16,
            ..Default::default()
        });
        assert!(!out.stats.complete);
        assert!(out.properties.iter().all(|c| !c.certified));
        assert_eq!(out.stats.visited, 16);
    }
}
