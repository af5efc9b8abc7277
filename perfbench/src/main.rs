//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_mix|fleet_batch|serve_slo> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public APIs of `pagoda-core`,
//! `pagoda-cluster` and `pagoda-serve` for about `--seconds` seconds,
//! repeating set-up and run, and prints one JSON object as the last
//! line of standard output: `correct`, `attempted`, `failed` and
//! `metrics`, each metric a `value` with its `unit`. The line before it
//! holds the run context (workload, seed, host cores, the host's steal
//! fraction during the run, repetitions, the reference workload's median
//! time, unscaled `tasks_per_s` on the CPU and wall clocks, sojourn
//! sample count).
//!
//! With `--trace 0` the metrics are the end-to-end ones, each the
//! median over repetitions: host `tasks_per_s`, `setup_s` and
//! `peak_rss_mb`, and the simulated `sim_*`, `slo_attainment` and
//! `completed_frac`. The two host times are process CPU seconds scaled
//! to reference seconds by the host's speed just before the repetition,
//! as a fixed reference workload measures it (see `calib.rs`): on a
//! shared host, other tenants change both wall and CPU time by tens of
//! percent. With `--trace 1` traced and untraced repetitions
//! alternate; the traced ones time the benchmark's own calls into each
//! layer and the metrics are the per-layer ones (see `LAYERS.md`).
//!
//! The exit code is non-zero, with `correct: false`, when any check of
//! the program's output fails: a task that never completed, a `sim_*`
//! value that differs between repetitions at one seed, an invariant
//! violation under `pagoda_check::CheckRecorder`, profile phases that do
//! not sum to sojourns, or (traced `fleet_batch`) a serial fleet run
//! that parallel fleet stepping does not reproduce exactly.

mod calib;
mod fleet_batch;
mod paper_mix;
mod run;
mod serve_slo;
mod timing;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::Calibrator;
use run::{Layers, Run, Sim, Workload};
use timing::Stopwatch;

/// Seed used when `--seed` is not given; 2 is the held-out seed.
const DEFAULT_SEED: u64 = 1;
/// Repetitions of each kind (plain, traced) made however short the run.
const MIN_REPS: usize = 3;

/// End-to-end metrics, output order, with units.
const END_TO_END: [(&str, &str); 8] = [
    ("tasks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_tasks_per_s", "1/s"),
    ("sim_sojourn_p50_us", "us"),
    ("sim_sojourn_p99_us", "us"),
    ("slo_attainment", "ratio"),
    ("completed_frac", "ratio"),
];

/// Per-layer metrics, with units. A layer a workload does not exercise
/// reports 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("workloads.gen_s", "s"),
    ("core.submit_s", "s"),
    ("core.sync_s", "s"),
    ("core.advance_s", "s"),
    ("core.wait_s", "s"),
    ("core.submit_calls", "count"),
    ("core.sync_calls", "count"),
    ("core.advance_calls", "count"),
    ("core.submit_accept_ratio", "ratio"),
    ("core.polls_per_task", "count"),
    ("core.copybacks_per_task", "count"),
    ("core.sched_decisions_per_task", "count"),
    ("core.mtb_wait_us", "us"),
    ("desim.events_per_task", "count"),
    ("desim.events_per_s", "1/s"),
    ("desim.comparisons_per_pop", "count"),
    ("desim.cancels_per_task", "count"),
    ("desim.max_queue_len", "count"),
    ("gpu-sim.occupancy", "ratio"),
    ("gpu-sim.smm_wait_us", "us"),
    ("gpu-sim.exec_us", "us"),
    ("pcie.h2d_txn_per_task", "count"),
    ("pcie.d2h_txn_per_task", "count"),
    ("pcie.bytes_per_task", "B"),
    ("pcie.h2d_busy_frac", "ratio"),
    ("pcie.staging_us", "us"),
    ("cluster.submit_s", "s"),
    ("cluster.sync_s", "s"),
    ("cluster.advance_s", "s"),
    ("cluster.wait_all_s", "s"),
    ("cluster.sync_calls", "count"),
    ("cluster.parallel_speedup", "ratio"),
    ("cluster.off_affinity_frac", "ratio"),
    ("serve.self_s", "s"),
    ("serve.backend_calls_per_task", "count"),
    ("serve.admit_ratio", "ratio"),
    ("obs.captured_per_task", "count"),
    ("obs.snapshot_s", "s"),
    ("prof.report_s", "s"),
    ("trace_overhead_frac", "ratio"),
];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no values");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// High-water resident memory of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in process status".to_string())
}

/// This machine's CPU time since boot, in ticks summed over its CPUs:
/// (steal, total). Steal is time a virtual CPU was ready to run but its
/// host ran something else.
fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// One repetition: the host's speed just before it, set-up CPU seconds
/// and the run.
struct Rep {
    calib_s: f64,
    setup_s: f64,
    run: Run,
}

impl Rep {
    /// Reference seconds per CPU second of this repetition.
    fn scale(&self) -> f64 {
        calib::REFERENCE_S / self.calib_s
    }

    /// Completed tasks per reference second of the timed phase.
    fn tasks_per_s(&self) -> f64 {
        self.run.sim.completed as f64 / (self.run.timed.cpu_s * self.scale())
    }
}

/// Sets up and runs `w` once; `calib_s` is the host's speed just before.
fn rep<W: Workload>(w: &W, seed: u64, trace: bool, calib_s: f64) -> Rep {
    let watch = Stopwatch::start();
    let inputs = w.setup(seed);
    let setup_s = watch.read().cpu_s;
    Rep {
        calib_s,
        setup_s,
        run: w.run(inputs, trace),
    }
}

/// Everything measured and checked in one invocation.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    context: BTreeMap<&'static str, String>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

fn measure<W: Workload>(w: &W, args: &Args) -> Outcome {
    let budget = Duration::from_secs(args.seconds);
    let ticks_before = host_ticks();
    let start = Instant::now();
    let mut first = rep(w, args.seed, false, f64::NAN);
    // The high-water mark of one set-up and run: later repetitions only
    // add allocator fragmentation that depends on how many fit in. The
    // calibrator's buffers come after it, and its first pass stands for
    // the host's speed during the first repetition.
    let peak = peak_rss_mb();
    let mut cal = Calibrator::new();
    first.calib_s = cal.measure();
    let mut plain: Vec<Rep> = vec![first];
    let mut traced: Vec<Rep> = Vec::new();
    // Traced and plain repetitions alternate, so host drift hits both.
    loop {
        let want_traced = args.trace && traced.len() < plain.len();
        if want_traced {
            traced.push(rep(w, args.seed, true, cal.measure()));
        } else {
            let enough = plain.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
            if enough && start.elapsed() >= budget {
                break;
            }
            plain.push(rep(w, args.seed, false, cal.measure()));
        }
    }
    let steal_frac = match (ticks_before, host_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.4}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".to_string(),
    };
    let mut problems: Vec<String> = Vec::new();
    let all = || plain.iter().chain(&traced);
    for r in all() {
        problems.extend(r.run.problems.iter().cloned());
    }
    let reference: &Sim = &plain[0].run.sim;
    if all().any(|r| r.run.sim != *reference) {
        problems.push("sim results differ between repetitions at one seed".into());
    }
    let peak = peak.unwrap_or_else(|e| {
        problems.push(e);
        0.0
    });

    let checked = w.check(args.seed);
    problems.extend(checked.problems.iter().cloned());
    if checked.sim != *reference {
        problems.push("sim results differ with the invariant checker attached".into());
    }

    let tasks_per_s = |reps: &[Rep]| median(reps.iter().map(Rep::tasks_per_s).collect());
    let plain_tps = tasks_per_s(&plain);
    let unscaled_tps = |secs: fn(&Rep) -> f64| {
        let tps = plain.iter().map(|r| r.run.sim.completed as f64 / secs(r));
        format!("{:.1}", median(tps.collect()))
    };
    let mut metrics = Vec::new();
    if args.trace {
        let mut layers = Layers::new();
        for &(name, _) in &PER_LAYER {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.run.layers.get(name).copied())
                .collect();
            if !values.is_empty() {
                layers.insert(name, median(values));
            }
        }
        layers.extend(checked.layers.iter().map(|(k, v)| (*k, *v)));
        layers.insert(
            "trace_overhead_frac",
            plain_tps / tasks_per_s(&traced) - 1.0,
        );
        if let Some(other) = w.mode_rerun(args.seed) {
            if other.fingerprint != plain[0].run.fingerprint {
                problems.push("serial and parallel fleet stepping disagree".into());
            }
            // Wall time: parallel stepping spreads the CPU seconds over
            // threads, and the gain it is for is in the wait.
            let this_s = median(plain.iter().map(|r| r.run.timed.wall_s).collect());
            layers.insert("cluster.parallel_speedup", this_s / other.timed.wall_s);
        }
        for &(name, unit) in &PER_LAYER {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        let mut values = BTreeMap::from([
            ("tasks_per_s", plain_tps),
            (
                "setup_s",
                median(plain.iter().map(|r| r.setup_s * r.scale()).collect()),
            ),
            ("peak_rss_mb", peak),
        ]);
        values.extend(reference.metrics());
        for &(name, unit) in &END_TO_END {
            metrics.push((name, values[name], unit));
        }
    }

    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        problems.push(format!("{name} is {v}"));
    }
    let context = BTreeMap::from([
        ("workload", format!("{:?}", args.workload)),
        ("seed", args.seed.to_string()),
        ("host_cores", host_cores().to_string()),
        ("host_steal_frac", steal_frac),
        ("plain_reps", plain.len().to_string()),
        (
            "calib_s",
            format!("{:.6}", median(plain.iter().map(|r| r.calib_s).collect())),
        ),
        ("cpu_tasks_per_s", unscaled_tps(|r| r.run.timed.cpu_s)),
        ("wall_tasks_per_s", unscaled_tps(|r| r.run.timed.wall_s)),
        ("traced_reps", traced.len().to_string()),
        ("tasks_per_rep", reference.attempted.to_string()),
        ("sojourn_samples", reference.completed.to_string()),
    ]);
    Outcome {
        metrics,
        context,
        attempted: all().map(|r| r.run.sim.attempted).sum(),
        failed: all().map(|r| r.run.sim.failed()).sum(),
        problems,
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "paper_mix" => measure(&paper_mix::PaperMix, &args),
        "fleet_batch" => measure(&fleet_batch::FleetBatch { parallel: false }, &args),
        "serve_slo" => measure(&serve_slo::ServeSlo, &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    for p in &out.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let context: Vec<String> = out
        .context
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"context\": {{{}}}}}", context.join(", "));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The manifest the benchmark is run from names exactly the metrics
    /// this binary prints, with the same units.
    #[test]
    fn manifest_lists_every_printed_metric() {
        let manifest = include_str!("../../BENCHMARK.json");
        let entries = manifest.matches("\"unit\"").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
