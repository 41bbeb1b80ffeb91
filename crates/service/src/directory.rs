//! The cross-shard directory: a small replicated membership map, itself
//! an sFS group.
//!
//! The directory decides which shard serves which slice of the client
//! key space. It is the service's control plane, and it is built exactly
//! the way the paper's introduction says services *should* be built on
//! fail-stop: as a deterministic replicated state machine. Every replica
//! merges the same set of per-shard health reports and applies the same
//! pure [`RoutingTable::rebalance`] function, so — because the detector
//! gives fail-stop semantics (FS1 makes failures common knowledge,
//! sFS2a makes detected replicas really dead) — all surviving replicas
//! install the *identical* table without any agreement protocol.
//! [`Directory::decide`] runs one such replicated decision and
//! cross-checks that the survivors did agree.
//!
//! Reports are seeded redundantly (each shard's report homes on
//! `t + 1` distinct replicas), so any `t` replica crashes leave at least
//! one live holder to disseminate every report.

use crate::plan::ShardId;
use serde::{Deserialize, Serialize};
use sfs::{AppApi, Application, Backend, ClusterSpec, Instruments, QuorumError, SpecError};
use sfs_asys::{Note, ProcessId};
use std::collections::BTreeMap;
use std::fmt;

/// Trace-note key under which a directory replica announces its decided
/// routing table.
pub const NOTE_DIR_TABLE: &str = "dir-table";

/// Health summary of one shard, as fed to the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardReport {
    /// The shard.
    pub shard: ShardId,
    /// Distinct members the shard's detectors have declared failed.
    pub detections: usize,
    /// The shard's local failure bound.
    pub t: usize,
}

impl ShardReport {
    /// Whether the shard has exhausted its local failure budget: one more
    /// failure (or erroneous suspicion) and its quorum math no longer
    /// covers it, so the directory must stop routing new work there. A
    /// fault-intolerant shard (`t = 0`) is healthy while it has zero
    /// detections and exhausted at the first one.
    pub fn exhausted(&self) -> bool {
        self.detections >= self.t.max(1)
    }
}

/// The routing decision for one epoch: which shards are healthy and
/// which shard serves each key slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingTable {
    /// Monotone epoch number.
    pub epoch: u64,
    /// Shards still inside their failure budget, ascending.
    pub healthy: Vec<ShardId>,
    /// Slot → serving shard. Slot `i` is the native key range of the
    /// `i`-th lowest *reported* shard id (for the usual contiguous
    /// `0..g` report sets, simply shard `i`); an exhausted shard's slot
    /// points at a healthy donor. Sparse report sets are legal — routing
    /// then hashes over the reported shards only — and every slot always
    /// names a healthy shard.
    pub slots: Vec<ShardId>,
    /// Shards whose failure budget is exhausted, ascending: still listed
    /// in the table (operators and donors need to know who shed load),
    /// but never routed to. Disjoint from `healthy` by construction.
    pub degraded: Vec<ShardId>,
}

impl RoutingTable {
    /// The epoch-0 table for `shards` shards: everyone healthy, identity
    /// routing.
    pub fn identity(shards: usize) -> Self {
        RoutingTable {
            epoch: 0,
            healthy: (0..shards).collect(),
            slots: (0..shards).collect(),
            degraded: Vec::new(),
        }
    }

    /// The shard serving `key`.
    pub fn route(&self, key: u64) -> ShardId {
        self.slots[(key % self.slots.len() as u64) as usize]
    }

    /// The pure rebalancing function every directory replica applies:
    /// healthy shards keep their native slots; each exhausted shard's
    /// slot is redistributed round-robin over the healthy shards (in
    /// slot order, so the result is a function of the report set alone).
    /// Slots are keyed by ascending reported shard id (see
    /// [`RoutingTable::slots`]), so report sets with gaps — e.g. after a
    /// shard is decommissioned entirely — still produce a table whose
    /// every slot is healthy. Returns `None` when no shard is healthy.
    pub fn rebalance(epoch: u64, reports: &[ShardReport]) -> Option<Self> {
        let mut sorted: Vec<&ShardReport> = reports.iter().collect();
        sorted.sort_by_key(|r| r.shard);
        let healthy: Vec<ShardId> = sorted
            .iter()
            .filter(|r| !r.exhausted())
            .map(|r| r.shard)
            .collect();
        let degraded: Vec<ShardId> = sorted
            .iter()
            .filter(|r| r.exhausted())
            .map(|r| r.shard)
            .collect();
        if healthy.is_empty() {
            return None;
        }
        let mut donor = 0usize;
        let slots = sorted
            .iter()
            .map(|r| {
                if r.exhausted() {
                    let s = healthy[donor % healthy.len()];
                    donor += 1;
                    s
                } else {
                    r.shard
                }
            })
            .collect();
        Some(RoutingTable {
            epoch,
            healthy,
            slots,
            degraded,
        })
    }

    /// Compact one-line rendering (the wire/annotation format).
    fn render(&self) -> String {
        let join = |v: &[ShardId]| {
            v.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "e{}|h{}|s{}|d{}",
            self.epoch,
            join(&self.healthy),
            join(&self.slots),
            join(&self.degraded)
        )
    }

    /// Parses [`RoutingTable::render`]'s format.
    fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split('|');
        let epoch = parts.next()?.strip_prefix('e')?.parse().ok()?;
        let list = |p: &str, tag: char| -> Option<Vec<ShardId>> {
            let body = p.strip_prefix(tag)?;
            if body.is_empty() {
                return Some(Vec::new());
            }
            body.split(',').map(|x| x.parse().ok()).collect()
        };
        let healthy = list(parts.next()?, 'h')?;
        let slots = list(parts.next()?, 's')?;
        let degraded = list(parts.next()?, 'd')?;
        Some(RoutingTable {
            epoch,
            healthy,
            slots,
            degraded,
        })
    }
}

impl fmt::Display for RoutingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Directory-group messages: health reports disseminated among replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirMsg {
    /// "Shard `shard` has `detections` detected failures against budget
    /// `t`."
    Report {
        /// The reported shard.
        shard: u64,
        /// Distinct detected members.
        detections: u64,
        /// The shard's failure bound.
        t: u64,
    },
}

/// One directory replica: merges reports, and once its map covers every
/// shard, installs the rebalanced routing table (as a trace annotation —
/// the replicated decision's observable output).
#[derive(Debug, Clone)]
pub struct DirectoryApp {
    epoch: u64,
    shard_count: usize,
    /// Reports seeded at this replica; broadcast on start.
    home: Vec<ShardReport>,
    known: BTreeMap<ShardId, ShardReport>,
    announced: bool,
}

impl DirectoryApp {
    /// A replica for `shard_count` shards, initially holding `home`.
    pub fn new(epoch: u64, shard_count: usize, home: Vec<ShardReport>) -> Self {
        DirectoryApp {
            epoch,
            shard_count,
            home,
            known: BTreeMap::new(),
            announced: false,
        }
    }

    fn merge(&mut self, r: ShardReport) {
        // Detection counts are monotone; keep the freshest view.
        let e = self.known.entry(r.shard).or_insert(r);
        if r.detections > e.detections {
            *e = r;
        }
    }

    fn maybe_decide(&mut self, api: &mut AppApi<'_, '_, DirMsg>) {
        if self.announced || self.known.len() < self.shard_count {
            return;
        }
        let reports: Vec<ShardReport> = self.known.values().copied().collect();
        if let Some(table) = RoutingTable::rebalance(self.epoch, &reports) {
            api.annotate(Note::key_val(NOTE_DIR_TABLE, table));
            self.announced = true;
        }
    }
}

impl Application for DirectoryApp {
    type Msg = DirMsg;

    fn on_start(&mut self, api: &mut AppApi<'_, '_, DirMsg>) {
        for r in self.home.clone() {
            self.merge(r);
            api.broadcast(DirMsg::Report {
                shard: r.shard as u64,
                detections: r.detections as u64,
                t: r.t as u64,
            });
        }
        self.maybe_decide(api);
    }

    fn on_message(&mut self, api: &mut AppApi<'_, '_, DirMsg>, _from: ProcessId, msg: DirMsg) {
        let DirMsg::Report {
            shard,
            detections,
            t,
        } = msg;
        self.merge(ShardReport {
            shard: shard as usize,
            detections: detections as usize,
            t: t as usize,
        });
        self.maybe_decide(api);
    }

    fn on_failure(&mut self, api: &mut AppApi<'_, '_, DirMsg>, _failed: ProcessId) {
        // Anti-entropy on failure: under fail-stop the dead replica sends
        // nothing further, so survivors re-disseminate everything they
        // know. Receives are idempotent, so this is safe over-sending.
        for r in self.known.values().copied().collect::<Vec<_>>() {
            api.broadcast(DirMsg::Report {
                shard: r.shard as u64,
                detections: r.detections as u64,
                t: r.t as u64,
            });
        }
    }
}

/// Why a directory decision failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryError {
    /// The directory group's own shape is infeasible.
    Quorum(QuorumError),
    /// The directory group's cluster configuration was rejected for a
    /// non-quorum reason (e.g. inverted latency bounds).
    Spec(SpecError),
    /// Every shard has exhausted its failure budget — there is nowhere
    /// left to route.
    AllShardsExhausted,
    /// No surviving replica announced a table (e.g. too many directory
    /// crashes for its own `t`).
    Incomplete,
    /// Surviving replicas announced different tables — replicated
    /// determinism was broken (this is a bug, not an environment fault).
    Diverged(String, String),
}

impl fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectoryError::Quorum(e) => write!(f, "directory group infeasible: {e}"),
            DirectoryError::Spec(e) => write!(f, "directory group rejected: {e}"),
            DirectoryError::AllShardsExhausted => {
                write!(f, "every shard has exhausted its failure budget")
            }
            DirectoryError::Incomplete => write!(f, "no surviving replica decided a table"),
            DirectoryError::Diverged(a, b) => {
                write!(f, "replicas diverged: {a} vs {b}")
            }
        }
    }
}

impl std::error::Error for DirectoryError {}

impl From<QuorumError> for DirectoryError {
    fn from(e: QuorumError) -> Self {
        DirectoryError::Quorum(e)
    }
}

impl From<SpecError> for DirectoryError {
    fn from(e: SpecError) -> Self {
        // Quorum infeasibility keeps its dedicated variant; everything
        // else surfaces as the spec error it is.
        match e {
            SpecError::Quorum(q) => DirectoryError::Quorum(q),
            other => DirectoryError::Spec(other),
        }
    }
}

/// Shape of the directory group itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectorySpec {
    /// Replica count.
    pub replicas: usize,
    /// Failure bound of the directory group.
    pub t: usize,
    /// Scheduler seed for the decision runs.
    pub seed: u64,
    /// Scripted replica crashes `(replica, tick)`, for fault testing.
    pub crashes: Vec<(usize, u64)>,
}

impl Default for DirectorySpec {
    fn default() -> Self {
        // 5 replicas tolerating 2 failures: the smallest shape where the
        // fixed minimum quorum tolerates t = 2 (5 > 2²).
        DirectorySpec {
            replicas: 5,
            t: 2,
            seed: 0,
            crashes: Vec::new(),
        }
    }
}

/// The directory service: runs replicated routing decisions.
#[derive(Debug, Clone)]
pub struct Directory;

impl Directory {
    /// Runs one replicated decision over the given shard reports and
    /// returns the routing table for `epoch`.
    ///
    /// The decision executes as a real sFS group on the deterministic
    /// simulator (the control plane stays deterministic regardless of
    /// which backend the data plane runs on): each report homes on
    /// `spec.t + 1` replicas, replicas disseminate and merge, and every
    /// survivor annotates the rebalanced table. All survivors must agree
    /// — that agreement needs no protocol is precisely the fail-stop
    /// dividend the paper is about.
    ///
    /// # Errors
    ///
    /// See [`DirectoryError`].
    pub fn decide(
        spec: &DirectorySpec,
        epoch: u64,
        reports: &[ShardReport],
    ) -> Result<RoutingTable, DirectoryError> {
        if reports.iter().all(|r| r.exhausted()) {
            return Err(DirectoryError::AllShardsExhausted);
        }
        let d = spec.replicas;
        let mut cluster = ClusterSpec::new(d, spec.t).seed(spec.seed);
        for &(replica, at) in &spec.crashes {
            cluster = cluster.crash(ProcessId::new(replica), at.max(1));
        }
        // Crashes without heartbeats are silent; erroneous-suspicion
        // injection is the harness's job in tests. Keep the decision run
        // quiescence-friendly (no heartbeats) so it terminates exactly
        // when dissemination does.
        let home_of = |replica: ProcessId| -> Vec<ShardReport> {
            reports
                .iter()
                .filter(|r| (0..=spec.t).any(|k| (r.shard + k) % d == replica.index()))
                .copied()
                .collect()
        };
        let shard_count = reports.len();
        let trace = cluster
            .run(Backend::Sim, Instruments::default(), |pid| {
                DirectoryApp::new(epoch, shard_count, home_of(pid))
            })?
            .into_trace();
        let mut decided: Option<RoutingTable> = None;
        for (_, _, note) in trace.notes_with_key(NOTE_DIR_TABLE) {
            let Note::KeyVal { val, .. } = note else {
                continue;
            };
            let table = RoutingTable::parse(val)
                .ok_or_else(|| DirectoryError::Diverged("<unparseable>".into(), val.to_string()))?;
            match &decided {
                None => decided = Some(table),
                Some(prev) if *prev == table => {}
                Some(prev) => return Err(DirectoryError::Diverged(prev.render(), table.render())),
            }
        }
        decided.ok_or(DirectoryError::Incomplete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reports(healths: &[(usize, usize)]) -> Vec<ShardReport> {
        healths
            .iter()
            .enumerate()
            .map(|(shard, &(detections, t))| ShardReport {
                shard,
                detections,
                t,
            })
            .collect()
    }

    #[test]
    fn rebalance_keeps_healthy_slots_and_redistributes_exhausted() {
        let table =
            RoutingTable::rebalance(3, &reports(&[(0, 2), (2, 2), (1, 2), (2, 2)])).unwrap();
        assert_eq!(table.healthy, vec![0, 2]);
        assert_eq!(table.degraded, vec![1, 3]);
        assert_eq!(table.slots[0], 0);
        assert_eq!(table.slots[2], 2);
        // Exhausted shards 1 and 3 round-robin over {0, 2}.
        assert_eq!(table.slots[1], 0);
        assert_eq!(table.slots[3], 2);
        for key in 0..100 {
            assert!(table.healthy.contains(&table.route(key)));
        }
    }

    #[test]
    fn fault_intolerant_shards_are_healthy_until_first_detection() {
        let clean = ShardReport {
            shard: 0,
            detections: 0,
            t: 0,
        };
        assert!(!clean.exhausted(), "t = 0 with no detections is healthy");
        let hit = ShardReport {
            shard: 0,
            detections: 1,
            t: 0,
        };
        assert!(hit.exhausted(), "t = 0 exhausts at the first detection");
    }

    #[test]
    fn rebalance_handles_sparse_report_sets() {
        // Reports for shards {0, 2, 5} only (1, 3, 4 decommissioned):
        // slots are keyed by ascending reported id, and routing still
        // only ever lands on healthy shards.
        let reports = vec![
            ShardReport {
                shard: 5,
                detections: 0,
                t: 2,
            },
            ShardReport {
                shard: 0,
                detections: 2,
                t: 2,
            },
            ShardReport {
                shard: 2,
                detections: 1,
                t: 2,
            },
        ];
        let table = RoutingTable::rebalance(4, &reports).unwrap();
        assert_eq!(table.healthy, vec![2, 5]);
        assert_eq!(table.degraded, vec![0]);
        assert_eq!(table.slots, vec![2, 2, 5], "slot order = ascending id");
        for key in 0..50 {
            assert!(table.healthy.contains(&table.route(key)));
        }
    }

    #[test]
    fn rebalance_with_no_healthy_shard_is_none() {
        assert!(RoutingTable::rebalance(1, &reports(&[(2, 2), (3, 2)])).is_none());
    }

    #[test]
    fn render_parse_round_trips() {
        let t = RoutingTable {
            epoch: 7,
            healthy: vec![0, 3],
            slots: vec![0, 3, 0, 3],
            degraded: vec![1, 2],
        };
        assert_eq!(RoutingTable::parse(&t.render()), Some(t));
        // A degradation-free table round-trips through the empty list.
        let clean = RoutingTable::identity(3);
        assert_eq!(RoutingTable::parse(&clean.render()), Some(clean));
    }

    #[test]
    fn replicated_decision_agrees_without_faults() {
        let spec = DirectorySpec::default();
        let table = Directory::decide(&spec, 1, &reports(&[(0, 2), (2, 2), (0, 2)])).unwrap();
        assert_eq!(table.epoch, 1);
        assert_eq!(table.healthy, vec![0, 2]);
        assert_eq!(table.degraded, vec![1]);
        assert_eq!(table.slots, vec![0, 0, 2]);
    }

    #[test]
    fn replicated_decision_survives_replica_crashes() {
        // Crash t = 2 replicas mid-dissemination: the survivors must
        // still converge on the same table, because every report homes
        // on t + 1 replicas.
        for seed in 0..10 {
            let spec = DirectorySpec {
                seed,
                crashes: vec![(0, 2), (3, 4)],
                ..DirectorySpec::default()
            };
            let table = Directory::decide(&spec, 2, &reports(&[(1, 2), (2, 2), (0, 2), (0, 2)]))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(table.healthy, vec![0, 2, 3]);
        }
    }

    #[test]
    fn all_exhausted_is_a_typed_error() {
        let spec = DirectorySpec::default();
        assert_eq!(
            Directory::decide(&spec, 1, &reports(&[(2, 2), (2, 2)])),
            Err(DirectoryError::AllShardsExhausted)
        );
    }

    #[test]
    fn infeasible_directory_shape_is_a_typed_error() {
        let spec = DirectorySpec {
            replicas: 4,
            t: 2,
            ..DirectorySpec::default()
        };
        assert!(matches!(
            Directory::decide(&spec, 1, &reports(&[(0, 2)])),
            Err(DirectoryError::Quorum(_))
        ));
    }
}
