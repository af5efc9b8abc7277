//! `paper_mix`: the paper's nine benchmarks, each spawned continuously
//! into its own `PagodaRuntime` on the default 24-SMM device — the
//! Fig. 5 Pagoda configuration. A closed loop per benchmark: submit;
//! on a full table `sync_table`, then `advance_to` one polling slice if
//! still full; `wait_all` at the end (and between SLUD's dependency
//! waves). DCT, MM and MPE use their shared-memory variants.

use std::time::Instant;

use pagoda_check::{CheckLimits, CheckRecorder};
use pagoda_core::{PagodaConfig, PagodaRuntime, RunReport, SubmitError, TaskDesc};
use workloads::{Bench, GenOpts};

use crate::run::{core_layers, desim_layers, Checked, Layers, Protocol, Run, Sim, Workload};
use crate::timing::{timed, Call, Elapsed, Spans, Stopwatch};

/// Tasks generated per benchmark (SLUD: at least this many, in waves).
const TASKS_PER_BENCH: usize = 6_000;

/// The workload.
pub struct PaperMix;

/// Every benchmark's inputs, and how long generating them took.
pub struct Inputs {
    parts: Vec<Part>,
    gen_s: f64,
}

/// One benchmark's generated waves and the runtime that will run them.
pub struct Part {
    waves: Vec<Vec<TaskDesc>>,
    rt: PagodaRuntime,
}

/// The generator options of `bench` at `seed`.
fn gen_opts(bench: Bench, seed: u64) -> GenOpts {
    GenOpts {
        use_smem: bench.uses_smem(),
        seed,
        ..GenOpts::default()
    }
}

/// `bench`'s task waves: SLUD's dependency waves, one wave otherwise.
fn waves(bench: Bench, seed: u64) -> Vec<Vec<TaskDesc>> {
    let opts = gen_opts(bench, seed);
    if bench == Bench::Slud {
        let nb = workloads::slud::grid_for(TASKS_PER_BENCH, seed);
        workloads::slud::waves_as_tasks(nb, workloads::slud::DENSITY, &opts)
    } else {
        vec![bench.tasks(TASKS_PER_BENCH, &opts)]
    }
}

/// The paper's blocking spawn: submit, and on a full table refresh the
/// host view, idling one polling slice if that freed nothing.
fn submit_blocking(rt: &mut PagodaRuntime, mut desc: TaskDesc, spans: Option<&Spans>) {
    loop {
        match timed(spans, Call::Submit, || rt.submit(desc)) {
            Ok(_) => {
                if let Some(s) = spans {
                    s.accept();
                }
                return;
            }
            Err(SubmitError::Full(d)) => {
                timed(spans, Call::Sync, || rt.sync_table());
                if !rt.capacity().has_room() {
                    let t = rt.host_now() + rt.config().wait_timeout;
                    timed(spans, Call::Advance, || rt.advance_to(t));
                }
                desc = d;
            }
            Err(e) => panic!("paper_mix generated an invalid task: {e}"),
        }
    }
}

/// Drives every part to completion; returns host seconds of the timed
/// phase and each runtime's final report.
fn drive(parts: &mut [Part], spans: Option<&Spans>) -> (Elapsed, Vec<RunReport>) {
    let watch = Stopwatch::start();
    let mut reports = Vec::with_capacity(parts.len());
    for part in parts.iter_mut() {
        for wave in std::mem::take(&mut part.waves) {
            for desc in wave {
                submit_blocking(&mut part.rt, desc, spans);
            }
            timed(spans, Call::Wait, || part.rt.wait_all());
        }
        reports.push(part.rt.report());
    }
    (watch.read(), reports)
}

/// Simulated results: sojourn is spawn until the output landed in host
/// memory; makespans add, as if the runtimes ran back to back.
fn sim(parts: &[Part], reports: &[RunReport]) -> (Sim, Vec<String>) {
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut sojourns = Vec::new();
    for (part, rep) in parts.iter().zip(reports) {
        let traces = part.rt.traces();
        attempted += traces.len() as u64;
        for tr in &traces {
            match tr.output_done {
                Some(done) => sojourns.push((done - tr.spawned).as_us_f64()),
                None => problems.push(format!("paper_mix task {:?} never completed", tr.task)),
            }
        }
        if rep.tasks != traces.len() as u64 {
            problems.push(format!(
                "paper_mix runtime completed {} of {} tasks",
                rep.tasks,
                traces.len()
            ));
        }
    }
    let makespan: u64 = reports.iter().map(|r| r.makespan.as_ps()).sum();
    let within = sojourns.len() as u64;
    (Sim::new(attempted, 0, within, makespan, sojourns), problems)
}

impl Workload for PaperMix {
    type Inputs = Inputs;

    fn setup(&self, seed: u64) -> Inputs {
        let start = Instant::now();
        let waves: Vec<_> = Bench::ALL.iter().map(|&b| waves(b, seed)).collect();
        let gen_s = start.elapsed().as_secs_f64();
        let parts = waves
            .into_iter()
            .map(|waves| Part {
                waves,
                rt: PagodaRuntime::new(PagodaConfig::default()),
            })
            .collect();
        Inputs { parts, gen_s }
    }

    fn run(&self, inputs: Inputs, trace: bool) -> Run {
        let Inputs { mut parts, gen_s } = inputs;
        let spans = trace.then(Spans::default);
        let (timed, reports) = drive(&mut parts, spans.as_ref());
        let (sim, problems) = sim(&parts, &reports);
        let mut layers = Layers::new();
        layers.insert("workloads.gen_s", gen_s);
        let stats: Vec<_> = parts.iter().map(|p| p.rt.engine_stats()).collect();
        desim_layers(&mut layers, &stats, sim.completed, timed);
        let tasks = sim.completed.max(1) as f64;
        layers.insert(
            "gpu-sim.occupancy",
            reports
                .iter()
                .map(|r| r.avg_running_occupancy * r.tasks as f64)
                .sum::<f64>()
                / tasks,
        );
        let h2d: u64 = reports.iter().map(|r| r.h2d_busy.as_ps()).sum();
        layers.insert(
            "pcie.h2d_busy_frac",
            h2d as f64 / sim.makespan_ps.max(1) as f64,
        );
        if let Some(s) = &spans {
            core_layers(&mut layers, s);
        }
        Run {
            timed,
            sim,
            layers,
            fingerprint: None,
            problems,
        }
    }

    fn check(&self, seed: u64) -> Checked {
        let mut parts = self.setup(seed).parts;
        let recorders: Vec<_> = parts
            .iter_mut()
            .map(|p| {
                let (obs, rec) = CheckRecorder::recording(Some(CheckLimits::of(p.rt.config())));
                p.rt.attach_obs(obs);
                rec
            })
            .collect();
        let (_, reports) = drive(&mut parts, None);
        let (sim, problems) = sim(&parts, &reports);
        let mut protocol = Protocol::default();
        for (b, rec) in Bench::ALL.iter().zip(&recorders) {
            protocol.absorb(&format!("paper_mix {}", b.name()), rec);
        }
        protocol.into_checked("paper_mix", sim, problems)
    }
}
