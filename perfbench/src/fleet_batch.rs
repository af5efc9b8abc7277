//! `fleet_batch`: a large irregular 3DES + Mandelbrot batch, submitted
//! closed-loop with `submit_for` across several tenants into a 4-device
//! `ClusterHandle` under power-of-two placement, then `wait_all`.
//! Tenants' state lives on one home device each, so off-home placements
//! pay the interconnect staging transfer.
//!
//! The timed runs step the fleet serially: on a 2-core host parallel
//! stepping's per-window thread fan-out made repetition times vary by
//! 2.8x, against 10 % when serial. The traced run reruns the batch
//! with parallel stepping, requires it to
//! reproduce the serial run exactly, and reports the speed ratio.

use std::time::Instant;

use desim::SimTime;
use pagoda_check::{CheckLimits, CheckRecorder};
use pagoda_cluster::{ClusterConfig, ClusterHandle, FleetReport, Placement, TaskStatus};
use pagoda_core::{SubmitError, TaskDesc};
use pagoda_host::Backend;
use workloads::{Bench, GenOpts};

use crate::run::{desim_layers, Checked, Layers, Protocol, Run, Sim, Workload};
use crate::timing::{timed, Call, Elapsed, Spans, Stopwatch};

/// Devices in the fleet.
const DEVICES: usize = 4;
/// Tenants submitting.
const TENANTS: u32 = 8;
/// Tasks per benchmark; the batch is twice this.
const TASKS_PER_BENCH: usize = 16_000;

/// The workload.
pub struct FleetBatch {
    /// Step each run-ahead window's devices on the thread pool.
    pub parallel: bool,
}

/// The batch, in submit order, and the fleet that will run it.
pub struct Inputs {
    tasks: Vec<(u32, TaskDesc)>,
    fleet: ClusterHandle,
    gen_s: f64,
}

fn config(seed: u64, parallel: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::uniform(DEVICES);
    cfg.placement = Placement::PowerOfTwo;
    cfg.seed = seed;
    cfg.affinity_spread = 1;
    cfg.parallel = parallel;
    cfg
}

/// 3DES and Mandelbrot tasks interleaved, tenants round-robin.
fn batch(seed: u64) -> Vec<(u32, TaskDesc)> {
    let opts = GenOpts {
        seed,
        ..GenOpts::default()
    };
    let des = Bench::Des3.tasks(TASKS_PER_BENCH, &opts);
    let mb = Bench::Mb.tasks(TASKS_PER_BENCH, &opts);
    des.into_iter()
        .zip(mb)
        .flat_map(|(a, b)| [a, b])
        .enumerate()
        .map(|(i, t)| (i as u32 % TENANTS, t))
        .collect()
}

/// What one fleet run leaves behind.
struct Driven {
    timed: Elapsed,
    /// Fleet key and fleet instant of each submit.
    keys: Vec<(u64, SimTime)>,
    report: FleetReport,
}

fn drive(inputs: Inputs, spans: Option<&Spans>) -> (ClusterHandle, Driven) {
    let Inputs {
        tasks, mut fleet, ..
    } = inputs;
    let slice = fleet.wait_timeout();
    let mut keys = Vec::with_capacity(tasks.len());
    let watch = Stopwatch::start();
    for (tenant, mut desc) in tasks {
        loop {
            let at = fleet.now();
            match timed(spans, Call::Submit, || fleet.submit_for(tenant, desc)) {
                Ok(key) => {
                    if let Some(s) = spans {
                        s.accept();
                    }
                    keys.push((key, at));
                    break;
                }
                Err(SubmitError::Full(d)) => {
                    timed(spans, Call::Sync, || fleet.sync());
                    if !fleet.capacity().has_room() {
                        let t = fleet.now() + slice;
                        timed(spans, Call::Advance, || fleet.advance_to(t));
                    }
                    desc = d;
                }
                Err(e) => panic!("fleet_batch generated an invalid task: {e}"),
            }
        }
    }
    timed(spans, Call::Wait, || fleet.wait_all());
    let report = fleet.report();
    let timed = watch.read();
    (
        fleet,
        Driven {
            timed,
            keys,
            report,
        },
    )
}

/// Simulated results and the serial-vs-parallel fingerprint.
fn sim(fleet: &ClusterHandle, d: &Driven) -> (Sim, String, Vec<String>) {
    let mut problems = Vec::new();
    let mut sojourns = Vec::with_capacity(d.keys.len());
    let mut times = Vec::with_capacity(d.keys.len());
    for &(key, at) in &d.keys {
        let done = fleet.completion_time(key);
        times.push(done.map(SimTime::as_ps));
        match (fleet.status(key), done) {
            (Ok(TaskStatus::Done), Some(t)) => sojourns.push((t - at).as_us_f64()),
            (status, _) => problems.push(format!("fleet_batch task {key} ended {status:?}")),
        }
    }
    if d.report.completed != d.keys.len() as u64 || d.report.tasks_lost != 0 {
        problems.push(format!(
            "fleet_batch completed {} and lost {} of {} tasks",
            d.report.completed,
            d.report.tasks_lost,
            d.keys.len()
        ));
    }
    let fingerprint = format!("{times:?}/{:?}/{:?}", fleet.engine_stats(), d.report);
    let within = sojourns.len() as u64;
    let sim = Sim::new(
        d.keys.len() as u64,
        0,
        within,
        d.report.makespan.as_ps(),
        sojourns,
    );
    (sim, fingerprint, problems)
}

impl Workload for FleetBatch {
    type Inputs = Inputs;

    fn setup(&self, seed: u64) -> Inputs {
        let start = Instant::now();
        let tasks = batch(seed);
        let gen_s = start.elapsed().as_secs_f64();
        Inputs {
            tasks,
            fleet: ClusterHandle::new(config(seed, self.parallel))
                .expect("fleet_batch config is valid"),
            gen_s,
        }
    }

    fn run(&self, inputs: Inputs, trace: bool) -> Run {
        let gen_s = inputs.gen_s;
        let spans = trace.then(Spans::default);
        let (fleet, d) = drive(inputs, spans.as_ref());
        let (sim, fingerprint, problems) = sim(&fleet, &d);
        let mut layers = Layers::new();
        layers.insert("workloads.gen_s", gen_s);
        desim_layers(&mut layers, &fleet.engine_stats(), sim.completed, d.timed);
        layers.insert("gpu-sim.occupancy", d.report.avg_warp_occupancy);
        layers.insert(
            "cluster.off_affinity_frac",
            d.report.off_affinity as f64 / d.report.placements.max(1) as f64,
        );
        if let Some(s) = &spans {
            layers.insert("cluster.submit_s", s.get(Call::Submit).secs);
            layers.insert("cluster.sync_s", s.get(Call::Sync).secs);
            layers.insert("cluster.advance_s", s.get(Call::Advance).secs);
            layers.insert("cluster.wait_all_s", s.get(Call::Wait).secs);
            layers.insert("cluster.sync_calls", s.get(Call::Sync).calls as f64);
        }
        Run {
            timed: d.timed,
            sim,
            layers,
            fingerprint: Some(fingerprint),
            problems,
        }
    }

    fn check(&self, seed: u64) -> Checked {
        let mut inputs = self.setup(seed);
        let cfg = config(seed, self.parallel);
        let (obs, rec) = CheckRecorder::recording(Some(CheckLimits::of(&cfg.devices[0])));
        inputs.fleet.attach_obs(obs);
        let (fleet, d) = drive(inputs, None);
        let (sim, _, problems) = sim(&fleet, &d);
        let mut protocol = Protocol::default();
        protocol.absorb("fleet_batch", &rec);
        protocol.into_checked("fleet_batch", sim, problems)
    }

    fn mode_rerun(&self, seed: u64) -> Option<Run> {
        let other = FleetBatch {
            parallel: !self.parallel,
        };
        Some(other.run(other.setup(seed), false))
    }
}
