//! `serve_slo`: an open loop in simulated time. Three tenants share
//! the 2-SMM `serving_slice(2)` through `pagoda-serve`'s weighted-fair
//! scheduler with bounded queues and per-tenant latency objectives, at
//! fixed absolute arrival rates near the slice's knee. The program's
//! `ProfRecorder` is attached and its summary built at the end, as the
//! `multi_tenant --prof` example does.

use std::sync::Arc;
use std::time::Instant;

use pagoda_check::{CheckLimits, CheckRecorder, QosCheck};
use pagoda_core::PagodaRuntime;
use pagoda_prof::{ProfRecorder, SloSpec};
use pagoda_serve::{
    serve_on, serving_slice, ArrivalGen, ArrivalSpec, Outcome, Policy, ServeConfig, ServeOutcome,
    TenantSpec,
};
use workloads::Bench;

use crate::run::{
    captured, core_layers, desim_layers, phase_sum_problem, Checked, Layers, Protocol, Run, Sim,
    Workload,
};
use crate::timing::{Stopwatch, TimedBackend};

/// SMMs in the serving slice.
const SLICE_SMS: u32 = 2;

/// One tenant: name, benchmark, arrivals, weight, queue budget, latency
/// limit in microseconds, arrivals generated.
struct Tenant {
    name: &'static str,
    bench: Bench,
    arrival: ArrivalSpec,
    weight: u32,
    queue_cap: usize,
    limit_us: u64,
    tasks: usize,
}

/// The tenant mix. Rates are absolute and sit near the slice's knee;
/// arrival counts are proportional to rate, so every stream spans the
/// same simulated window.
fn tenants() -> [Tenant; 3] {
    [
        Tenant {
            name: "packets",
            bench: Bench::Des3,
            arrival: ArrivalSpec::Poisson { rate_per_s: 5.5e4 },
            weight: 4,
            queue_cap: 64,
            limit_us: 500,
            tasks: 23_000,
        },
        Tenant {
            name: "frames",
            bench: Bench::Dct,
            arrival: ArrivalSpec::Mmpp {
                calm_rate_per_s: 1.0e4,
                burst_rate_per_s: 2.6e5,
                mean_calm_us: 450.0,
                mean_burst_us: 150.0,
            },
            weight: 2,
            queue_cap: 24,
            limit_us: 1_500,
            tasks: 30_500,
        },
        Tenant {
            name: "batch",
            bench: Bench::Mm,
            arrival: ArrivalSpec::Poisson { rate_per_s: 1.5e4 },
            weight: 1,
            queue_cap: 8,
            limit_us: 3_000,
            tasks: 6_300,
        },
    ]
}

fn config(seed: u64) -> ServeConfig {
    let specs = tenants()
        .into_iter()
        .map(|t| {
            let mut s = TenantSpec::new(t.name, t.bench, 1.0);
            s.arrival = t.arrival;
            s.weight = t.weight;
            s.queue_cap = t.queue_cap;
            s.tasks = Some(t.tasks);
            s.slo = Some(SloSpec::p99_us(t.limit_us));
            s
        })
        .collect();
    let mut cfg = ServeConfig::new(specs, Policy::WeightedFair);
    cfg.seed = seed;
    cfg.mix = "serve_slo".into();
    cfg
}

/// SplitMix64, as the serving loop derives per-tenant seeds.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates the same task descriptors and arrival instants `serve_on`
/// generates for `cfg`, and drops them; returns the arrival count. The
/// serving loop generates inside the run, so this separate call is how
/// generation is timed.
fn generate(cfg: &ServeConfig) -> usize {
    let mut arrivals = 0;
    for (ti, t) in cfg.tenants.iter().enumerate() {
        let mut gen = t.gen.clone();
        gen.seed ^= splitmix(cfg.seed ^ splitmix(ti as u64));
        let descs = t.bench.tasks(t.tasks.unwrap_or(cfg.tasks_per_tenant), &gen);
        let mut ag = ArrivalGen::new(t.arrival, splitmix(cfg.seed).wrapping_add(ti as u64));
        for _ in &descs {
            std::hint::black_box(ag.next_arrival());
        }
        arrivals += std::hint::black_box(descs).len();
    }
    arrivals
}

/// The workload.
pub struct ServeSlo;

/// The experiment, the slice it runs on and the attached profiler.
pub struct Inputs {
    cfg: ServeConfig,
    rt: PagodaRuntime,
    prof: Arc<ProfRecorder>,
    gen_s: f64,
}

fn runtime() -> PagodaRuntime {
    PagodaRuntime::new(serving_slice(SLICE_SMS).expect("a 2-SMM slice is valid"))
}

/// Simulated results from the per-arrival records, plus conservation
/// checks: every arrival completed, was shed, or expired.
fn sim(out: &ServeOutcome, cfg: &ServeConfig, makespan_ps: u64) -> (Sim, Vec<String>) {
    let arrivals: usize = cfg.tenants.iter().filter_map(|t| t.tasks).sum();
    let limits: Vec<f64> = tenants().iter().map(|t| t.limit_us as f64).collect();
    let mut problems = Vec::new();
    let mut sojourns = Vec::new();
    let mut within = 0;
    let mut refused = 0;
    for r in &out.records {
        match (r.outcome, r.sojourn_us) {
            (Outcome::Done, Some(s)) => {
                within += u64::from(s <= limits[r.tenant as usize]);
                sojourns.push(s);
            }
            (Outcome::Shed | Outcome::Expired, None) => refused += 1,
            (o, s) => problems.push(format!(
                "serve_slo record {} is {o:?} with sojourn {s:?}",
                r.seq
            )),
        }
    }
    if out.records.len() != arrivals {
        problems.push(format!(
            "serve_slo resolved {} of {arrivals} arrivals",
            out.records.len()
        ));
    }
    for t in &out.report.tenants {
        if t.offered != t.admitted + t.shed || t.admitted != t.completed + t.expired {
            problems.push(format!(
                "serve_slo tenant {} does not conserve tasks: {t:?}",
                t.tenant
            ));
        }
    }
    (
        Sim::new(arrivals as u64, refused, within, makespan_ps, sojourns),
        problems,
    )
}

impl Workload for ServeSlo {
    type Inputs = Inputs;

    fn setup(&self, seed: u64) -> Inputs {
        let mut cfg = config(seed);
        let start = Instant::now();
        generate(&cfg);
        let gen_s = start.elapsed().as_secs_f64();
        let (obs, prof) = ProfRecorder::recording();
        cfg.obs = obs;
        Inputs {
            cfg,
            rt: runtime(),
            prof,
            gen_s,
        }
    }

    fn run(&self, inputs: Inputs, trace: bool) -> Run {
        let Inputs {
            cfg,
            mut rt,
            prof,
            gen_s,
        } = inputs;
        let watch = Stopwatch::start();
        let (out, spans) = if trace {
            let mut timed = TimedBackend::new(&mut rt);
            let out = serve_on(&cfg, &mut timed);
            (out, Some(timed.into_spans()))
        } else {
            (serve_on(&cfg, &mut rt), None)
        };
        let serve_s = watch.read().wall_s;
        let prof_report = prof.report();
        std::hint::black_box(prof_report.summary());
        let timed = watch.read();

        let out = out.expect("serve_slo config serves");
        let (sim, mut problems) = sim(&out, &cfg, rt.host_now().as_ps());
        problems.extend(phase_sum_problem(&prof_report));
        let mut layers = Layers::new();
        layers.insert("workloads.gen_s", gen_s);
        desim_layers(&mut layers, &[rt.engine_stats()], sim.completed, timed);
        layers.insert("gpu-sim.occupancy", out.report.avg_warp_occupancy);
        layers.insert(
            "pcie.h2d_busy_frac",
            rt.report().h2d_busy.as_ps() as f64 / sim.makespan_ps.max(1) as f64,
        );
        let offered: u64 = out.report.tenants.iter().map(|t| t.offered).sum();
        let admitted: u64 = out.report.tenants.iter().map(|t| t.admitted).sum();
        layers.insert("serve.admit_ratio", admitted as f64 / offered.max(1) as f64);
        if let Some(spans) = spans {
            core_layers(&mut layers, &spans);
            let inside = spans.total();
            layers.insert("serve.self_s", serve_s - inside.secs);
            layers.insert(
                "serve.backend_calls_per_task",
                inside.calls as f64 / sim.completed.max(1) as f64,
            );
            layers.insert("prof.report_s", timed.wall_s - serve_s);
            let snap_start = Instant::now();
            let buf = prof.snapshot();
            layers.insert("obs.snapshot_s", snap_start.elapsed().as_secs_f64());
            layers.insert(
                "obs.captured_per_task",
                captured(&buf) as f64 / sim.completed.max(1) as f64,
            );
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
        let mut cfg = config(seed);
        let rt_cfg = serving_slice(SLICE_SMS).expect("a 2-SMM slice is valid");
        let (obs, rec) = CheckRecorder::recording(Some(CheckLimits::of(&rt_cfg)));
        let audit = Arc::new(QosCheck::weighted_fair());
        cfg.obs = obs;
        cfg.qos_audit = Some(audit.clone());
        let mut rt = PagodaRuntime::new(rt_cfg);
        let out = serve_on(&cfg, &mut rt).expect("serve_slo config serves");
        let (sim, mut problems) = sim(&out, &cfg, rt.host_now().as_ps());
        if !audit.is_clean() {
            problems.push(format!(
                "serve_slo: scheduler audit found {:?}",
                audit.violations().first()
            ));
        }
        let mut protocol = Protocol::default();
        protocol.absorb("serve_slo", &rec);
        protocol.into_checked("serve_slo", sim, problems)
    }
}
