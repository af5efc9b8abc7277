//! What one repetition of a workload produces, and the shape every
//! workload implements.

use std::collections::BTreeMap;

use desim::EngineStats;
use pagoda_check::CheckRecorder;
use pagoda_obs::{Counter, ObsBuffer};
use pagoda_prof::{Phase, ProfReport};

use crate::timing::{Call, Elapsed, Spans};

/// Per-layer values of one run, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Results on the simulated clock. At one seed these must repeat bit
/// for bit, whatever the host did.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Tasks offered to the program.
    pub attempted: u64,
    /// Tasks whose output reached host memory.
    pub completed: u64,
    /// Tasks the program refused by design: shed by admission control
    /// or expired in the queue.
    pub refused: u64,
    /// Completed tasks whose sojourn met their tenant's latency limit
    /// (every completed task, where no limit is declared).
    pub within_limit: u64,
    /// Simulated makespan, summed over runtimes run one after another.
    pub makespan_ps: u64,
    /// Per-task sojourns of completed tasks, microseconds, sorted.
    pub sojourns_us: Vec<f64>,
}

impl Sim {
    /// Builds the record, sorting `sojourns_us`.
    pub fn new(
        attempted: u64,
        refused: u64,
        within_limit: u64,
        makespan_ps: u64,
        mut sojourns_us: Vec<f64>,
    ) -> Sim {
        sojourns_us.sort_by(f64::total_cmp);
        Sim {
            attempted,
            completed: sojourns_us.len() as u64,
            refused,
            within_limit,
            makespan_ps,
            sojourns_us,
        }
    }

    /// Tasks that neither completed nor were refused: lost or stuck.
    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.completed + self.refused)
    }

    /// Nearest-rank percentile of the sojourns.
    pub fn sojourn_us(&self, q: f64) -> f64 {
        let n = self.sojourns_us.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        self.sojourns_us[rank.clamp(1, n) - 1]
    }

    /// The `sim_*` end-to-end metrics and the two outcome fractions.
    pub fn metrics(&self) -> [(&'static str, f64); 5] {
        let attempted = self.attempted.max(1) as f64;
        [
            (
                "sim_tasks_per_s",
                self.completed as f64 / (self.makespan_ps.max(1) as f64 * 1e-12),
            ),
            ("sim_sojourn_p50_us", self.sojourn_us(50.0)),
            ("sim_sojourn_p99_us", self.sojourn_us(99.0)),
            ("slo_attainment", self.within_limit as f64 / attempted),
            ("completed_frac", self.completed as f64 / attempted),
        ]
    }
}

/// One repetition's output.
#[derive(Debug)]
pub struct Run {
    /// Host seconds from the first submit to the final report, on both
    /// clocks.
    pub timed: Elapsed,
    /// Simulated results.
    pub sim: Sim,
    /// Per-layer values (host spans only when traced; counts always).
    pub layers: Layers,
    /// Everything a rerun in the other fleet stepping mode must reproduce
    /// exactly (fleet only).
    pub fingerprint: Option<String>,
    /// Correctness failures found inside the run.
    pub problems: Vec<String>,
}

/// The extra run with the invariant checker attached.
#[derive(Debug)]
pub struct Checked {
    /// Simulated results; must equal the plain runs'.
    pub sim: Sim,
    /// Protocol counters and simulated phase means.
    pub layers: Layers,
    /// Invariant violations and other failures.
    pub problems: Vec<String>,
}

/// A benchmark workload: generated inputs, a timed run over them, and
/// a checked run.
pub trait Workload {
    /// Everything built before the first submit.
    type Inputs;

    /// Generates inputs and constructs the runtime or fleet.
    fn setup(&self, seed: u64) -> Self::Inputs;

    /// Runs the inputs to completion. `trace` takes host spans around
    /// every call into the program.
    fn run(&self, inputs: Self::Inputs, trace: bool) -> Run;

    /// Runs once more with a `pagoda_check::CheckRecorder` attached.
    fn check(&self, seed: u64) -> Checked;

    /// A rerun in the other fleet stepping mode (serial or parallel), for
    /// workloads that run a fleet. It must reproduce the run exactly.
    fn mode_rerun(&self, _seed: u64) -> Option<Run> {
        None
    }
}

/// Host spans and acceptance of the benchmark's calls into core.
pub fn core_layers(layers: &mut Layers, s: &Spans) {
    layers.insert("core.submit_s", s.get(Call::Submit).secs);
    layers.insert("core.sync_s", s.get(Call::Sync).secs);
    layers.insert("core.advance_s", s.get(Call::Advance).secs);
    layers.insert("core.wait_s", s.get(Call::Wait).secs);
    layers.insert("core.submit_calls", s.get(Call::Submit).calls as f64);
    layers.insert("core.sync_calls", s.get(Call::Sync).calls as f64);
    layers.insert("core.advance_calls", s.get(Call::Advance).calls as f64);
    layers.insert(
        "core.submit_accept_ratio",
        s.accepted() as f64 / s.get(Call::Submit).calls.max(1) as f64,
    );
}

/// Adds the engine counters of `stats` to `layers`, per completed task
/// and per CPU second of the timed phase.
pub fn desim_layers(layers: &mut Layers, stats: &[EngineStats], tasks: u64, timed: Elapsed) {
    let sum = |f: fn(&EngineStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let tasks = tasks.max(1) as f64;
    let delivered = sum(|s| s.delivered);
    layers.insert("desim.events_per_task", delivered / tasks);
    layers.insert("desim.events_per_s", delivered / timed.cpu_s);
    layers.insert(
        "desim.comparisons_per_pop",
        sum(|s| s.comparisons) / delivered.max(1.0),
    );
    layers.insert(
        "desim.cancels_per_task",
        (sum(|s| s.cancelled) + sum(|s| s.rescheduled)) / tasks,
    );
    layers.insert(
        "desim.max_queue_len",
        stats.iter().map(|s| s.max_queue_len).max().unwrap_or(0) as f64,
    );
}

/// What the invariant checker saw over one checked run: protocol
/// counters, simulated phase totals and problems, summed over one or
/// more recorders.
#[derive(Debug, Default)]
pub struct Protocol {
    counters: [u64; Counter::ALL.len()],
    phase_ps: [u64; Phase::ALL.len()],
    profiled: u64,
    problems: Vec<String>,
}

impl Protocol {
    /// Runs the end-of-run checks of `rec` and adds its buffer: counters,
    /// and the phase decomposition of its completed tasks.
    pub fn absorb(&mut self, label: &str, rec: &CheckRecorder) {
        let violations = rec.finish();
        if !violations.is_empty() || rec.dropped() > 0 {
            self.problems.push(format!(
                "{label}: {} invariant violations, first {:?}",
                violations.len() as u64 + rec.dropped(),
                violations.first()
            ));
        }
        let buf = rec.snapshot();
        for (slot, c) in self.counters.iter_mut().zip(Counter::ALL) {
            *slot += buf.counter(c);
        }
        let prof = ProfReport::from_buffer(&buf);
        let total = prof.total();
        for (slot, p) in self.phase_ps.iter_mut().zip(Phase::ALL) {
            *slot += total.phase_total_ps(p);
        }
        self.profiled += total.tasks;
        self.problems.extend(phase_sum_problem(&prof));
    }

    fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    fn phase_mean_us(&self, phase: Phase) -> f64 {
        self.phase_ps[phase as usize] as f64 / 1e6 / self.profiled.max(1) as f64
    }

    /// The checked run's result: `sim`, the protocol-counter and phase
    /// layers per completed task, and every problem found, including
    /// `problems` and completed tasks the profile missed.
    pub fn into_checked(self, label: &str, sim: Sim, mut problems: Vec<String>) -> Checked {
        problems.extend(self.problems.iter().cloned());
        if self.profiled != sim.completed {
            problems.push(format!(
                "{label}: profile decomposed {} of {} tasks",
                self.profiled, sim.completed
            ));
        }
        let per_task = |c: &[Counter]| {
            c.iter().map(|&c| self.counter(c)).sum::<u64>() as f64 / sim.completed.max(1) as f64
        };
        let layers = Layers::from([
            ("core.polls_per_task", per_task(&[Counter::TaskTablePolls])),
            (
                "core.copybacks_per_task",
                per_task(&[Counter::TaskTableCopybacks]),
            ),
            (
                "core.sched_decisions_per_task",
                per_task(&[Counter::SchedulerDecisions]),
            ),
            (
                "pcie.h2d_txn_per_task",
                per_task(&[Counter::PcieH2dTransactions]),
            ),
            (
                "pcie.d2h_txn_per_task",
                per_task(&[Counter::PcieD2hTransactions]),
            ),
            (
                "pcie.bytes_per_task",
                per_task(&[Counter::PcieH2dBytes, Counter::PcieD2hBytes]),
            ),
            ("core.mtb_wait_us", self.phase_mean_us(Phase::MtbWait)),
            ("gpu-sim.smm_wait_us", self.phase_mean_us(Phase::SmmWait)),
            ("gpu-sim.exec_us", self.phase_mean_us(Phase::Execution)),
            ("pcie.staging_us", self.phase_mean_us(Phase::Staging)),
        ]);
        Checked {
            sim,
            layers,
            problems,
        }
    }
}

/// Events a recorder captured, over every stream.
pub fn captured(buf: &ObsBuffer) -> u64 {
    (buf.tasks.len()
        + buf.tenants.len()
        + buf.smm.len()
        + buf.mtb.len()
        + buf.devices.len()
        + buf.syncs.len()
        + buf.marks.len()
        + buf.routes.len()) as u64
}

/// The telescoping contract of the phase model: in every group the
/// phases partition the summed sojourn exactly.
pub fn phase_sum_problem(prof: &ProfReport) -> Option<String> {
    prof.groups.iter().find_map(|g| {
        let phases: u64 = Phase::ALL.iter().map(|&p| g.phase_total_ps(p)).sum();
        (phases != g.sojourn.sum()).then(|| {
            format!(
                "prof group {}: phases sum to {phases} ps, sojourns to {} ps",
                g.label,
                g.sojourn.sum()
            )
        })
    })
}
