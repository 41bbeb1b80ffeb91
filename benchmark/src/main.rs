//! The repo's performance benchmark. See README.md for the workloads,
//! metrics and flags; `../BENCHMARK.json` is the contract.
//!
//! ```text
//! sfs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sfs-benchmark --all [--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat <k>] [--quick]
//! sfs-benchmark --compare <a.json> <b.json>
//! ```

mod compare;
mod drive;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{Extras, Sample};
use stats::{summarize, JsonWriter, Metric, RunResult};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::Workload;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed iterations a run reports a median over.
const MIN_ITERATIONS: usize = 3;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    quick: bool,
}

fn usage() -> String {
    format!(
        "usage:\n  \
         --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last stdout line is the result\n  \
         --all [--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat <k>] [--quick]\n          \
         every workload, one child process each; writes out/results.json (out/trace.json when tracing)\n  \
         --compare <a.json> <b.json>   judge b against a by the bounds in BENCHMARK.json\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        compare: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        repeat: 1,
        quick: false,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?));
            }
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--repeat" => {
                args.repeat = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.compare.is_none() && !args.all && args.workload.is_none() {
        return Err("one of --workload, --all or --compare is required".to_owned());
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn write_out(name: &str, body: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, body)?;
    Ok(path)
}

fn parallelism() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds the inputs and runs the warm-up iteration, with the costly
/// output checks on. Returns the workload, the warm-up's outcome (the
/// reference every timed iteration is held to) and the wall seconds it
/// took.
fn set_up(name: &str, seed: u64) -> (Workload, drive::Outcome, f64) {
    let start = Instant::now();
    let workload = Workload::prepare(name, seed).expect("workload name was validated");
    let reference = workload.iterate(&mut Tracer::new(false), true);
    (workload, reference, start.elapsed().as_secs_f64())
}

/// Folds one timed iteration's checks into the run's, and holds its
/// counts to the warm-up's where the workload is deterministic.
fn check_iteration(
    checks: &mut drive::Outcome,
    workload: &Workload,
    reference: &drive::Outcome,
    out: &drive::Outcome,
) {
    checks.absorb_checks(out);
    if workload.deterministic() {
        checks.check(workloads::same_work(reference, out), || {
            "counts differ between iterations on the same seeds".to_owned()
        });
    }
}

/// Runs one iteration under a root span and times it.
fn timed_iteration(workload: &Workload, tr: &mut Tracer) -> Sample {
    let root = tr.enter("iteration");
    let start = Instant::now();
    let out = workload.iterate(tr, false);
    let wall_s = start.elapsed().as_secs_f64();
    tr.exit(root);
    Sample { wall_s, out }
}

/// The untraced run: `SETUPS` set-ups, then timed iterations for
/// `seconds`; reports the end-to-end metrics.
fn run_untraced(name: &str, args: &Args) -> RunResult {
    let setups = if args.quick { 1 } else { SETUPS };
    let mut checks = drive::Outcome::default();
    let mut setup_samples = Vec::new();
    let mut prepared = None;
    for _ in 0..setups {
        // Drop the previous set-up's inputs first: two sets of stored
        // traces alive at once would double `peak_rss_mb`.
        drop(prepared.take());
        let (workload, reference, secs) = set_up(name, args.seed);
        setup_samples.push(secs);
        prepared = Some((workload, reference));
    }
    let (workload, reference) = prepared.expect("at least one set-up");
    checks.absorb_checks(&reference);

    let min_iterations = if args.quick { 2 } else { MIN_ITERATIONS };
    let mut tr = Tracer::new(false);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_iterations || start.elapsed().as_secs_f64() < args.seconds {
        let sample = timed_iteration(&workload, &mut tr);
        check_iteration(&mut checks, &workload, &reference, &sample.out);
        samples.push(sample);
    }

    let wall = summarize(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>())
        .expect("at least one iteration");
    eprintln!(
        "{name}: {} timed iterations after {setups} set-ups; wall seconds per iteration: median \
         {:.4} (min {:.4}, max {:.4}); this sample count supports no percentile beyond the \
         quartiles",
        wall.samples, wall.median, wall.min, wall.max
    );
    let metrics = metrics::end_to_end(&samples, stats::median(&setup_samples), peak_rss_mb());
    finish(name, args, checks, metrics)
}

/// The traced pass: one set-up, then alternating untraced and traced
/// iterations for half of `seconds`, then the workload's replay probes;
/// reports the per-layer metrics and writes the spans to
/// `out/trace-<workload>.json`.
fn run_traced(name: &str, args: &Args) -> RunResult {
    let mut checks = drive::Outcome::default();
    let (workload, reference, _) = set_up(name, args.seed);
    checks.absorb_checks(&reference);

    let mut tr = Tracer::new(true);
    let mut plain = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let min_pairs = if args.quick { 1 } else { 2 };
    let start = Instant::now();
    while traced.len() < min_pairs || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        tr.set_enabled(false);
        plain.push(timed_iteration(&workload, &mut tr).wall_s);
        tr.set_enabled(true);
        tr.set_iteration(traced.len() as u32 + 1);
        let sample = timed_iteration(&workload, &mut tr);
        check_iteration(&mut checks, &workload, &reference, &sample.out);
        traced.push(sample);
    }
    tr.set_iteration(0);

    let traced_wall: Vec<f64> = traced.iter().map(|s| s.wall_s).collect();
    let mut extras: Extras = vec![(
        "bench.trace_overhead_ratio",
        metrics::ratio(stats::median(&traced_wall), stats::median(&plain)),
    )];
    // What online certification costs a whole iteration: the same specs
    // with the monitor off, against the certified iterations above.
    if let ("service_sim", Workload::Service { runs, .. }) = (name, &workload) {
        let bare = Workload::Service {
            runs: runs.iter().map(drive::Service::uncertified).collect(),
            sim_msgs: None,
        };
        tr.set_enabled(false);
        let bare: Vec<f64> = (0..2)
            .map(|_| timed_iteration(&bare, &mut tr).wall_s)
            .collect();
        tr.set_enabled(true);
        let certified: Vec<f64> = plain.iter().chain(&traced_wall).copied().collect();
        extras.push((
            "obs.monitor_overhead_ratio",
            metrics::ratio(stats::median(&certified), stats::median(&bare)),
        ));
    }
    extras.extend(probes(name, &mut tr, args.seed));

    let transport_backed = matches!(name, "faulty_net" | "chaos_soak");
    let metrics = metrics::per_layer(&tr, &traced, transport_backed, &extras);
    let result = finish(name, args, checks, metrics);
    match write_out(
        &format!("trace-{name}.json"),
        &trace_document(&result, &tr, &traced),
    ) {
        Ok(path) => eprintln!("{name}: spans and counts written to {}", path.display()),
        Err(e) => eprintln!("{name}: could not write the trace file: {e}"),
    }
    result
}

/// The replay micro-timings: one layer's public functions fed fixed,
/// seeded inputs. None depends on the traced iterations, so each runs
/// under the one workload whose end-to-end metrics it should move
/// (README, *Per-layer metrics*) and reads 0 under the others.
fn probes(name: &str, tr: &mut Tracer, seed: u64) -> Extras {
    match name {
        "detect_sim" => vec![(
            "asys.sim.bare_ns_per_event",
            drive::probe_bare_sim(tr, seed),
        )],
        "service_sim" => {
            let stored = drive::run_net(tr, seed, 0.10);
            let obs = drive::probe_obs(tr, &stored);
            vec![
                ("obs.monitor_ns_per_event", obs.monitor_ns_per_event),
                (
                    "obs.registry_ingest_ns_per_event",
                    obs.registry_ingest_ns_per_event,
                ),
                ("obs.registry_record_ns", obs.registry_record_ns),
                ("obs.hist_record_ns", obs.hist_record_ns),
                ("service.plan_us", drive::probe_plan(tr, seed)),
            ]
        }
        "service_threaded" => {
            let (insert, fire, cancel) = drive::probe_wheel(tr, seed);
            vec![
                (
                    "asys.router.spawn_shutdown_us",
                    drive::probe_spawn_shutdown(tr),
                ),
                ("asys.wheel.insert_ns", insert),
                ("asys.wheel.fire_ns", fire),
                ("asys.wheel.cancel_ns", cancel),
            ]
        }
        "faulty_net" => {
            let wire = drive::probe_wire(tr, seed);
            vec![
                ("wire.encode_ns_per_frame", wire.encode_ns_per_frame),
                ("wire.decode_ns_per_frame", wire.decode_ns_per_frame),
                ("wire.cost_ns_per_msg", wire.cost_ns_per_msg),
                ("wire.bytes_per_frame", wire.bytes_per_frame),
                (
                    "transport.faultless_overhead_ratio",
                    drive::probe_transport_overhead(tr, seed),
                ),
            ]
        }
        _ => Vec::new(),
    }
}

fn trace_document(result: &RunResult, tr: &Tracer, traced: &[Sample]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("result");
    result.write_entry(&mut w);
    w.newline();
    w.key("available_parallelism");
    w.uint(parallelism());
    w.newline();
    w.key("iterations");
    w.begin_array();
    for (k, s) in traced.iter().enumerate() {
        w.begin_object();
        w.key("iteration");
        w.uint(k as u64 + 1);
        w.key("wall_s");
        w.number(s.wall_s);
        w.key("counts");
        w.begin_object();
        for (name, v) in &s.out.counts {
            w.key(name);
            w.uint(*v);
        }
        w.end_object();
        w.key("library_reported_seconds");
        w.begin_object();
        for (name, v) in &s.out.lib_seconds {
            w.key(name);
            w.number(*v);
        }
        w.end_object();
        w.end_object();
        w.newline();
    }
    w.end_array();
    w.newline();
    w.key("spans");
    tr.write_json(&mut w);
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    doc
}

fn finish(name: &str, args: &Args, checks: drive::Outcome, metrics: Vec<Metric>) -> RunResult {
    for reason in &checks.failures {
        eprintln!("{name}: CHECK FAILED: {reason}");
    }
    for m in &metrics {
        eprintln!("{name}  {:<36} {:>20.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{name}: attempted {}, failed {}, available_parallelism {}",
        checks.attempted,
        checks.failed,
        parallelism()
    );
    RunResult {
        workload: name.to_owned(),
        seed: args.seed,
        trace: args.trace,
        correct: checks.failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        metrics,
    }
}

/// `--all`: every workload (or the one `--workload` names), each in a
/// fresh child invocation of this binary so that `peak_rss_mb` is the
/// workload's own; `--repeat k` runs seeds `seed .. seed+k`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut lines: Vec<(String, u64, String)> = Vec::new();
    let mut all_correct = true;
    for rep in 0..args.repeat.max(1) {
        let seed = args.seed.wrapping_add(rep);
        for name in &names {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.quick {
                cmd.arg("--quick");
            }
            let output = cmd.output().map_err(|e| format!("spawning {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let doc = drive::Json::parse(line)
                .map_err(|e| format!("{name}: no result line ({e}); exit {}", output.status))?;
            let correct = doc.get("correct").and_then(drive::Json::as_bool) == Some(true);
            all_correct &= correct && output.status.success();
            lines.push(((*name).to_owned(), seed, line.to_owned()));
        }
    }
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("meta");
    w.begin_object();
    w.key("seed");
    w.uint(args.seed);
    w.key("repeat");
    w.uint(args.repeat);
    w.key("seconds");
    w.number(args.seconds);
    w.key("trace");
    w.boolean(args.trace);
    w.key("available_parallelism");
    w.uint(parallelism());
    w.key("rustc");
    w.string(&rustc);
    w.end_object();
    w.newline();
    w.key("runs");
    w.begin_array();
    for (name, seed, line) in &lines {
        w.newline();
        stats::write_entry(&mut w, name, *seed, args.trace, line);
    }
    w.newline();
    w.end_array();
    w.newline();
    w.key("claim");
    w.null();
    w.end_object();
    let mut body = w.finish();
    body.push('\n');
    let file = if args.trace {
        "trace.json"
    } else {
        "results.json"
    };
    let path = write_out(file, &body).map_err(|e| format!("writing {file}: {e}"))?;
    eprintln!(
        "{} runs written to {}; every check passed: {all_correct}",
        lines.len(),
        path.display()
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.all {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let name = args.workload.as_deref().expect("checked by parse_args");
    let result = if args.trace {
        run_traced(name, &args)
    } else {
        run_untraced(name, &args)
    };
    println!("{}", result.contract_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
