//! The six workloads. Each is a fixed amount of work derived from the
//! run's `--seed`: set-up builds the inputs, and every iteration repeats
//! the *same* work on the *same* seeds, so on the simulator all counts
//! must repeat exactly from one iteration to the next.

use crate::drive::{self, Instance, Outcome, Service, Trace};
use crate::trace::Tracer;

/// Workload names, in run order. Fixed: `BENCHMARK.json` lists the same.
pub const NAMES: [&str; 6] = [
    "detect_sim",
    "service_sim",
    "service_threaded",
    "faulty_net",
    "chaos_soak",
    "certify_posthoc",
];

/// Cluster runs per `detect_sim` iteration.
const DETECT_RUNS: u64 = 24;
/// Transport-backed runs per `faulty_net` iteration.
const NET_RUNS: u64 = 48;
/// Link loss on `faulty_net`.
const NET_LOSS: f64 = 0.10;
/// Service seeds per `service_sim` iteration.
const SERVICE_SIM_RUNS: u64 = 2;
/// Chaos plans per `chaos_soak` iteration (plan seeds 1, 2, 3).
const CHAOS_RUNS: u64 = 3;
/// Stored traces certified per `certify_posthoc` iteration …
const CERTIFY_TRACES: u64 = 24;
/// … followed by this many rounds over the five explorer instances.
const EXPLORE_ROUNDS: u64 = 60;

/// The `i`-th engine seed of a run. Distinct `--seed`s give disjoint
/// seed sets for any realistic count.
fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i)
}

/// A prepared workload: inputs built, ready to iterate.
pub enum Workload {
    DetectSim {
        seed: u64,
    },
    Service {
        runs: Vec<Service>,
        /// `core.msgs_sent` of the same specs on the simulator, when this
        /// is the threaded workload (the ±1-per-shard-run check).
        sim_msgs: Option<u64>,
    },
    FaultyNet {
        seed: u64,
    },
    CertifyPosthoc {
        traces: Vec<Trace>,
        instances: Vec<Instance>,
        /// Engine-side numbers of the stored traces (messages, detection
        /// latencies): they describe the input, not the timed work.
        input: Outcome,
    },
}

impl Workload {
    /// Builds the inputs of workload `name` from `seed`. `None` for an
    /// unknown name.
    pub fn prepare(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "detect_sim" => Workload::DetectSim { seed },
            "faulty_net" => Workload::FaultyNet { seed },
            "service_sim" => Workload::Service {
                runs: (0..SERVICE_SIM_RUNS)
                    .map(|i| drive::service_e11(1024, false, sub_seed(seed, i)))
                    .collect(),
                sim_msgs: None,
            },
            "service_threaded" => {
                let s = sub_seed(seed, 0);
                let mut sim = Outcome::default();
                let twin = drive::service_e11(128, false, s);
                drive::run_service_once(&mut Tracer::new(false), &mut sim, &twin);
                Workload::Service {
                    runs: vec![drive::service_e11(128, true, s)],
                    sim_msgs: Some(sim.count("core.msgs_sent")),
                }
            }
            "chaos_soak" => Workload::Service {
                runs: (0..CHAOS_RUNS)
                    .map(|i| drive::service_chaos(i + 1, sub_seed(seed, i)))
                    .collect(),
                sim_msgs: None,
            },
            "certify_posthoc" => {
                let mut input = Outcome::default();
                let traces: Vec<Trace> = (0..CERTIFY_TRACES)
                    .map(|i| {
                        let t = drive::stored_trace(sub_seed(seed, i));
                        drive::fold_trace(&mut input, &t);
                        t
                    })
                    .collect();
                Workload::CertifyPosthoc {
                    traces,
                    instances: drive::explore_instances(),
                    input,
                }
            }
            _ => return None,
        })
    }

    /// One iteration. With `verify`, outputs whose check is too costly
    /// for the timed region are certified too (`faulty_net` traces run
    /// the post-hoc suite): set-up's warm-up iteration does that once,
    /// and the timed iterations are then held to its counts.
    pub fn iterate(&self, tr: &mut Tracer, verify: bool) -> Outcome {
        let mut out = Outcome::default();
        match self {
            Workload::DetectSim { seed } => {
                for i in 0..DETECT_RUNS {
                    drive::run_detect(tr, &mut out, sub_seed(*seed, i));
                }
            }
            Workload::FaultyNet { seed } => {
                for i in 0..NET_RUNS {
                    let s = sub_seed(*seed, i);
                    let trace = drive::run_net(tr, s, NET_LOSS);
                    let all_detected = drive::fold_trace(&mut out, &trace);
                    out.check(all_detected, || {
                        format!("faulty_net seed {s}: a survivor missed a crash")
                    });
                    if verify {
                        let mut cert = Outcome::default();
                        drive::certify(tr, &mut cert, &trace);
                        out.absorb_checks(&cert);
                    }
                }
            }
            Workload::Service { runs, sim_msgs } => {
                for svc in runs {
                    svc.plan_chaos(tr, &mut out);
                    drive::run_service_once(tr, &mut out, svc);
                }
                if let Some(sim) = *sim_msgs {
                    let (got, slack) =
                        (out.count("core.msgs_sent"), out.count("service.shard_runs"));
                    out.check(got.abs_diff(sim) <= slack, || {
                        format!("threaded sent {got} messages, simulator {sim} (±{slack} allowed)")
                    });
                }
            }
            Workload::CertifyPosthoc {
                traces,
                instances,
                input,
            } => {
                for t in traces {
                    drive::certify(tr, &mut out, t);
                }
                for _ in 0..EXPLORE_ROUNDS {
                    for inst in instances {
                        drive::explore(tr, &mut out, inst);
                    }
                }
                // Input constants, not measurements: no engine runs here,
                // but every workload must report every end-to-end metric
                // and none may read 0, so `det_p95_ticks` and
                // `msgs_per_unit` describe the stored traces. They move
                // with `--seed` only (README, *Cells that cannot move*).
                for name in ["core.msgs_sent", "core.detections", "core.crashes"] {
                    out.add(name, input.count(name));
                }
                out.det_latencies.clone_from(&input.det_latencies);
            }
        }
        out
    }

    /// Whether every count must repeat exactly between iterations (all
    /// workloads but the threaded one, whose schedule is the OS's).
    pub fn deterministic(&self) -> bool {
        !matches!(
            self,
            Workload::Service {
                sim_msgs: Some(_),
                ..
            }
        )
    }
}

/// The events an iteration processed: engine events executed, or — on
/// `certify_posthoc`, which runs no engine of its own — trace events
/// certified plus the events of every schedule the explorer visited.
pub fn events_of(out: &Outcome) -> u64 {
    out.count("asys.sim.events")
        + out.count("asys.router.events")
        + out.count("history.trace_events")
        + out.count("explore.trace_events")
}

/// Compares a timed iteration against the warm-up's outcome: exact
/// equality of every count and latency on deterministic workloads.
pub fn same_work(reference: &Outcome, got: &Outcome) -> bool {
    let sorted = |v: &[u64]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    };
    reference.counts == got.counts
        && sorted(&reference.det_latencies) == sorted(&got.det_latencies)
        && sorted(&reference.op_latencies) == sorted(&got.op_latencies)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_legal_and_known() {
        for name in NAMES {
            assert!(crate::stats::valid_name(name));
        }
        assert!(Workload::prepare("no_such_workload", 1).is_none());
    }

    #[test]
    fn sub_seeds_of_distinct_seeds_do_not_collide() {
        let a: Vec<u64> = (0..NET_RUNS).map(|i| sub_seed(1, i)).collect();
        let b: Vec<u64> = (0..NET_RUNS).map(|i| sub_seed(2, i)).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
    }
}
