//! Differential conformance checking across execution backends.
//!
//! The workspace executes the same protocol three ways: the deterministic
//! [`Sim`] under any [`Strategy`](sfs_asys::Strategy), the
//! explorer's stateless replay of recorded
//! [`ScheduleLog`](sfs_asys::ScheduleLog)s, and the real-concurrency
//! threaded [`Runtime`](sfs_asys::net::Runtime). This module is the
//! oracle that checks they *agree* — not event-for-event (different
//! backends legitimately pick different schedules) but on everything a
//! schedule may not change:
//!
//! * **Class membership.** A complete exploration enumerates every
//!   happens-before class of the instance ([`class_fingerprint`]). Any
//!   execution of the same instance — however scheduled, including on
//!   real threads — is just one more schedule, so its class fingerprint
//!   must be a member of the enumerated set. An unknown class means one
//!   backend runs a different protocol than the other.
//! * **Verdict envelope.** A property the exploration *certified* (holds
//!   on every class) may not be violated by any backend; a property
//!   violated on *every* class must be violated by every complete
//!   backend run. In between — violated on some classes — either outcome
//!   is legitimate and the oracle says nothing.
//! * **Replay fidelity.** Re-executing a recorded schedule through the
//!   strict [`ReplayStrategy`](sfs_asys::ReplayStrategy) must reproduce
//!   its trace byte-for-byte ([`replay_fidelity`]).
//!
//! Every disagreement is a [`Divergence`] carrying the diverging
//! backend's full trace plus a replayable reference witness when one
//! exists — a conformance failure is itself a counterexample, and the
//! [`shrink`](mod@crate::shrink) module minimizes it like any other.
//!
//! The protocol-specific wiring (which properties, which backends, how
//! threaded runs are driven) lives in `sfs-apps::scenarios`; this module
//! is generic over an *evaluator* — a function from a trace to named
//! verdicts.

use crate::canon::class_fingerprint;
use crate::dfs::ScheduleRun;
use sfs_asys::{ChoiceTrace, Sim, Trace};
use sfs_history::History;
use sfs_tlogic::Verdict;
use std::fmt;

/// What the reference exploration promises about one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyEnvelope {
    /// Property name as the evaluator reports it (e.g. `"sFS2b"`,
    /// `"Theorem5"`).
    pub property: String,
    /// Complete exploration, zero violating classes: **no** schedule of
    /// the instance violates the property.
    pub certified: bool,
    /// Complete exploration, *every* class violating: **every** complete
    /// run of the instance violates the property.
    pub always_violated: bool,
    /// A replayable violating schedule, when the exploration found one —
    /// attached to divergences as the reference counterexample.
    pub witness: Option<ChoiceTrace>,
}

/// The reference envelope one instance's exploration establishes: the
/// set of schedule classes plus per-property expectations. Built by the
/// caller from an exploration outcome (see
/// `sfs-apps::scenarios::ExploreOutcome`), consumed by
/// [`DifferentialOracle`].
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Whether the reference exploration enumerated the entire schedule
    /// space. Only then do class membership and the certified/universal
    /// verdict bounds carry any force.
    pub complete: bool,
    /// Sorted, deduplicated class fingerprints of every explored class.
    pub fingerprints: Vec<u64>,
    /// Per-property expectations.
    pub properties: Vec<PropertyEnvelope>,
}

impl Envelope {
    /// Whether `fingerprint` names an explored class.
    pub fn knows_class(&self, fingerprint: u64) -> bool {
        self.fingerprints.binary_search(&fingerprint).is_ok()
    }

    /// The envelope entry for `property`, if present.
    pub fn property(&self, property: &str) -> Option<&PropertyEnvelope> {
        self.properties.iter().find(|p| p.property == property)
    }
}

/// How one backend run disagreed with the reference envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// A complete backend run produced a happens-before class the
    /// complete exploration never enumerated.
    UnknownClass {
        /// The unknown class fingerprint.
        fingerprint: u64,
    },
    /// A property certified over the whole schedule space was violated
    /// by a backend run.
    CertifiedViolated {
        /// The property.
        property: String,
    },
    /// A property violated on every explored class held on a complete
    /// backend run.
    UniversalViolationMissed {
        /// The property.
        property: String,
    },
    /// Strict replay of a recorded schedule did not reproduce its trace.
    ReplayMismatch,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceKind::UnknownClass { fingerprint } => {
                write!(f, "unknown schedule class {fingerprint:#018x}")
            }
            DivergenceKind::CertifiedViolated { property } => {
                write!(f, "certified property {property} violated")
            }
            DivergenceKind::UniversalViolationMissed { property } => {
                write!(f, "universally-violated property {property} held")
            }
            DivergenceKind::ReplayMismatch => write!(f, "replay diverged from its recording"),
        }
    }
}

/// One conformance failure: a backend run disagreeing with the reference
/// envelope (or with its own recording), with both sides attached.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which backend diverged (e.g. `"sim:time-ordered"`, `"threaded"`).
    pub backend: String,
    /// The disagreement.
    pub kind: DivergenceKind,
    /// The diverging run's full trace.
    pub trace: Trace,
    /// A replayable reference witness, when one exists: the envelope's
    /// violating schedule for verdict divergences, the original recording
    /// for replay mismatches.
    pub reference: Option<ChoiceTrace>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.backend, self.kind)
    }
}

/// The differential oracle for one instance: the reference [`Envelope`]
/// plus the evaluator that turns any backend trace into per-property
/// verdicts (the same evaluator the reference was built with, or the
/// comparison is meaningless).
///
/// The evaluator receives the trace and whether the run was *complete*
/// (quiescent / maximal), so liveness obligations on truncated prefixes
/// come back [`Verdict::Vacuous`] and never conflict.
pub struct DifferentialOracle<E>
where
    E: Fn(&Trace, bool) -> Vec<(String, Verdict)>,
{
    envelope: Envelope,
    evaluate: E,
}

impl<E> fmt::Debug for DifferentialOracle<E>
where
    E: Fn(&Trace, bool) -> Vec<(String, Verdict)>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DifferentialOracle")
            .field("envelope", &self.envelope)
            .finish_non_exhaustive()
    }
}

impl<E> DifferentialOracle<E>
where
    E: Fn(&Trace, bool) -> Vec<(String, Verdict)>,
{
    /// An oracle for `envelope`, judging runs with `evaluate`.
    pub fn new(envelope: Envelope, evaluate: E) -> Self {
        DifferentialOracle { envelope, evaluate }
    }

    /// The reference envelope.
    pub fn envelope(&self) -> &Envelope {
        &self.envelope
    }

    /// Checks one backend run against the envelope. `complete` is the
    /// run's own maximality: `true` for a quiescent simulator run or a
    /// threaded run whose channels drained
    /// ([`Trace::channels_drained`]), `false` for
    /// truncated prefixes (which are only held to safety bounds).
    ///
    /// Returns every divergence found (empty = conformant).
    pub fn check(&self, backend: &str, trace: &Trace, complete: bool) -> Vec<Divergence> {
        let mut divergences = Vec::new();
        // Class membership: only a complete enumeration knows all classes,
        // and only a maximal run is a full schedule of the instance.
        if self.envelope.complete && complete {
            let fingerprint = class_fingerprint(&History::from_trace(trace));
            if !self.envelope.knows_class(fingerprint) {
                divergences.push(Divergence {
                    backend: backend.to_owned(),
                    kind: DivergenceKind::UnknownClass { fingerprint },
                    trace: trace.clone(),
                    reference: None,
                });
            }
        }
        // Verdict envelope.
        for (property, verdict) in (self.evaluate)(trace, complete) {
            let Some(bound) = self.envelope.property(&property) else {
                continue;
            };
            if bound.certified && verdict == Verdict::Violated {
                divergences.push(Divergence {
                    backend: backend.to_owned(),
                    kind: DivergenceKind::CertifiedViolated { property },
                    trace: trace.clone(),
                    reference: None,
                });
            } else if self.envelope.complete
                && bound.always_violated
                && complete
                && verdict == Verdict::Holds
            {
                divergences.push(Divergence {
                    backend: backend.to_owned(),
                    kind: DivergenceKind::UniversalViolationMissed { property },
                    trace: trace.clone(),
                    reference: bound.witness.clone(),
                });
            }
        }
        divergences
    }
}

/// Checks replay fidelity of one recorded schedule: strict re-execution
/// of `run.choices` against a fresh instance must reproduce `run.trace`
/// byte-for-byte. Returns the divergence if it does not.
///
/// This is the oracle for the *replay* backend: it holds on every
/// recording the engine produces, and a failure means the engine is not
/// deterministic (or `build` does not rebuild the same system).
pub fn replay_fidelity<M, F>(backend: &str, mut build: F, run: &ScheduleRun) -> Option<Divergence>
where
    M: Clone + fmt::Debug + 'static,
    F: FnMut() -> Sim<M>,
{
    let replayed = crate::dfs::replay(build(), &run.choices);
    if replayed == run.trace {
        None
    } else {
        Some(Divergence {
            backend: backend.to_owned(),
            kind: DivergenceKind::ReplayMismatch,
            trace: replayed,
            reference: Some(run.choices.clone()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, ExploreConfig, Pruning};
    use sfs_asys::{Context, FixedLatency, Process, ProcessId, TimeOrderedStrategy};
    use std::collections::BTreeSet;

    /// Every process > 0 sends one message to p0.
    struct Star;
    impl Process<u8> for Star {
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            if ctx.id().index() > 0 {
                ctx.send(ProcessId::new(0), 1);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: u8) {}
    }

    /// Like Star, but p0 sends one extra message to p1 — a different
    /// protocol, hence a different class universe.
    struct StarPlus;
    impl Process<u8> for StarPlus {
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            if ctx.id().index() > 0 {
                ctx.send(ProcessId::new(0), 1);
            } else {
                ctx.send(ProcessId::new(1), 7);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: u8) {}
    }

    fn star(n: usize) -> Sim<u8> {
        Sim::<u8>::builder(n)
            .link(FixedLatency(1))
            .build(|_| Box::new(Star))
    }

    fn star_plus(n: usize) -> Sim<u8> {
        Sim::<u8>::builder(n)
            .link(FixedLatency(1))
            .build(|_| Box::new(StarPlus))
    }

    /// "delivered-all": holds iff every send was received.
    fn evaluator(trace: &Trace, complete: bool) -> Vec<(String, Verdict)> {
        let verdict = if trace.stats().messages_sent == trace.stats().messages_delivered {
            Verdict::Holds
        } else if complete {
            Verdict::Violated
        } else {
            Verdict::Vacuous
        };
        vec![("delivered-all".to_owned(), verdict)]
    }

    fn envelope_of(n: usize) -> Envelope {
        let mut fingerprints = BTreeSet::new();
        let stats = explore(
            &ExploreConfig {
                pruning: Pruning::None,
                ..ExploreConfig::default()
            },
            || star(n),
            |run| {
                // Full-alphabet fingerprints: these test systems have no
                // classifier, so from_trace keeps everything.
                fingerprints.insert(class_fingerprint(&History::from_trace(&run.trace)));
            },
        );
        assert!(stats.complete);
        Envelope {
            complete: true,
            fingerprints: fingerprints.into_iter().collect(),
            properties: vec![PropertyEnvelope {
                property: "delivered-all".to_owned(),
                certified: true,
                always_violated: false,
                witness: None,
            }],
        }
    }

    #[test]
    fn conformant_backend_run_raises_nothing() {
        let oracle = DifferentialOracle::new(envelope_of(4), evaluator);
        let mut sim = star(4);
        sim.set_strategy(TimeOrderedStrategy);
        let (trace, _) = sim.run_scheduled();
        let complete = trace.stop_reason().is_complete();
        assert!(oracle
            .check("sim:time-ordered", &trace, complete)
            .is_empty());
    }

    #[test]
    fn foreign_system_is_an_unknown_class() {
        let oracle = DifferentialOracle::new(envelope_of(4), evaluator);
        let trace = star_plus(4).run();
        let divergences = oracle.check("sim:foreign", &trace, true);
        assert!(
            divergences
                .iter()
                .any(|d| matches!(d.kind, DivergenceKind::UnknownClass { .. })),
            "{divergences:?}"
        );
        // The divergence carries the diverging trace.
        assert_eq!(divergences[0].trace, trace);
    }

    #[test]
    fn certified_property_violation_is_reported() {
        let oracle = DifferentialOracle::new(envelope_of(4), evaluator);
        // A run of a 5-process star truncated so hard nothing delivers:
        // complete=false keeps liveness vacuous, so force the conflict by
        // lying about completeness of a partial run.
        let mut sim = star(4);
        sim.set_max_steps(0);
        sim.set_strategy(TimeOrderedStrategy);
        let (trace, _) = sim.run_scheduled();
        assert!(trace.stats().messages_sent > trace.stats().messages_delivered);
        let divergences = oracle.check("sim:truncated", &trace, true);
        assert!(divergences
            .iter()
            .any(|d| matches!(&d.kind, DivergenceKind::CertifiedViolated { property } if property == "delivered-all")));
        // Honest completeness: the truncated run is held to safety only.
        let honest = oracle.check("sim:truncated", &trace, false);
        assert!(honest
            .iter()
            .all(|d| !matches!(d.kind, DivergenceKind::CertifiedViolated { .. })));
    }

    #[test]
    fn universal_violation_must_reproduce() {
        let mut envelope = envelope_of(3);
        envelope.properties.push(PropertyEnvelope {
            property: "never-holds".to_owned(),
            certified: false,
            always_violated: true,
            witness: Some(vec![0]),
        });
        let oracle = DifferentialOracle::new(envelope, |_t: &Trace, _c| {
            vec![("never-holds".to_owned(), Verdict::Holds)]
        });
        let trace = star(3).run();
        let divergences = oracle.check("sim", &trace, true);
        assert_eq!(divergences.len(), 1);
        assert!(matches!(
            &divergences[0].kind,
            DivergenceKind::UniversalViolationMissed { property } if property == "never-holds"
        ));
        assert_eq!(divergences[0].reference, Some(vec![0]));
    }

    #[test]
    fn replay_fidelity_accepts_recordings_and_rejects_foreign_builds() {
        let mut runs = Vec::new();
        explore(
            &ExploreConfig {
                pruning: Pruning::None,
                ..ExploreConfig::default()
            },
            || star(3),
            |run| runs.push(run),
        );
        for run in &runs {
            assert!(replay_fidelity("replay", || star(3), run).is_none());
        }
        // Replaying against a different system must be caught.
        let mismatch = runs
            .iter()
            .find_map(|run| replay_fidelity("replay", || star_plus(3), run));
        let mismatch = mismatch.expect("foreign build diverges");
        assert_eq!(mismatch.kind, DivergenceKind::ReplayMismatch);
        assert!(mismatch.reference.is_some());
    }
}
