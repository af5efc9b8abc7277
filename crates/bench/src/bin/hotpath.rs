//! hotpath — the simulation hot path and the cost of observing it,
//! measured end to end. This is the repo's one wall-clock overhead
//! harness.
//!
//! Three sections, one report (`BENCH_hotpath.json`):
//!
//! * `desim` — event-queue microbenchmarks on a synthetic per-lane
//!   completion-prediction workload (the access pattern the gpu-sim
//!   warp engine produces): `fifo` is clean schedule→pop throughput,
//!   `churn` re-aims one lane's armed prediction per round the way a
//!   resident-warp-set change does. `churn_oracle` runs the identical
//!   workload on a lazy-deletion `BinaryHeap` queue — the pre-overhaul
//!   engine design, kept here as a same-host A/B reference — so the
//!   indexed-heap win is re-measured on every run rather than trusted
//!   from a historical number.
//! * `e2e` — `pagoda_sim`-shaped tasks/sec for the full stack with
//!   obs off: the number the paper's throughput claims rest on.
//! * `obs` — the same closed loop in four modes, interleaved within
//!   every rep so host drift hits each mode equally:
//!   - `off`  — `Obs::off()`: instrumentation compiled in, recorder
//!     absent; every obs site is one `Option` discriminant test;
//!   - `null` — a [`NullRecorder`]: dynamic dispatch taken, events
//!     discarded (the dispatch cost alone);
//!   - `mem`  — a [`MemRecorder`]: the full trace buffered;
//!   - `prof` — a [`ProfRecorder`]: the critical-path profiler's tee,
//!     the price of running with attribution on.
//!
//!   The simulated history — and so the device event count — is
//!   byte-identical across modes and reps (asserted); only the wall
//!   clock varies. Each mode's overhead is reported two ways: best-of
//!   reps against `off`'s best (what the gates read), and the median
//!   and IQR of the per-rep *paired* overhead (that rep's mode time
//!   over the same rep's `off` time), which is robust to one slow rep.
//!   One extra untimed prof run supplies the captured stream sizes and
//!   the phase attribution.
//!
//! Gates (exit nonzero on failure), fixed per size:
//! * `churn.ops_per_sec >= churn_oracle.ops_per_sec` — the indexed
//!   queue must beat lazy deletion on its own motivating workload.
//! * best-of overhead: null ≤ 5 %, prof ≤ 10 %, mem ≤ 12 %. `--smoke`
//!   widens them to 15 / 25 / 25 %: its ~3 ms reps are noise-dominated
//!   on a shared host, so smoke only catches gross regressions (the
//!   pre-overhaul recorder cost 26–31 %).
//!
//! Run with `cargo run --release -p pagoda-bench --bin hotpath`
//! (add `--smoke` for the CI-sized run, `--out PATH` to redirect).

use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use desim::{Dur, Engine, SimTime};
use pagoda_bench::{host_cores, narrow_task, write_report_and_gate};
use pagoda_core::{PagodaConfig, PagodaRuntime};
use pagoda_obs::{MemRecorder, NullRecorder, Obs};
use pagoda_prof::{ProfRecorder, ProfSummary};
use pagoda_serve::percentile;
use serde::Serialize;

/// Lanes in the desim microbench — one armed prediction each, like
/// SMMs in a device.
const LANES: u64 = 64;

/// Best-of overhead bounds, percent over the `off` mode.
#[derive(Debug, Clone, Copy, Serialize)]
struct Gates {
    null_pct: f64,
    prof_pct: f64,
    mem_pct: f64,
}

/// The bounds every full-size run must meet.
const FULL_GATES: Gates = Gates {
    null_pct: 5.0,
    prof_pct: 10.0,
    mem_pct: 12.0,
};

/// `--smoke` bounds: wide enough that ~3 ms reps on a shared CI box do
/// not flake, tight enough to catch a recorder that lost its fast path.
const SMOKE_GATES: Gates = Gates {
    null_pct: 15.0,
    prof_pct: 25.0,
    mem_pct: 25.0,
};

/// SplitMix64: deterministic offsets without pulling in a rand crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

#[derive(Debug, Clone, Serialize)]
struct MicroResult {
    rounds: u64,
    /// Queue operations performed (schedules + cancels + pops).
    ops: u64,
    secs: f64,
    ops_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct DesimSection {
    fifo: MicroResult,
    churn: MicroResult,
    churn_oracle: MicroResult,
    /// churn / churn_oracle ops/sec: the live A/B win of the indexed
    /// queue over lazy deletion, measured this run on this host.
    churn_speedup: f64,
}

#[derive(Debug, Clone, Serialize)]
struct E2eSection {
    tasks: u64,
    reps: u64,
    best_ms: f64,
    tasks_per_sec: f64,
    /// Device-engine events delivered (live events only).
    events: u64,
    events_per_sec: f64,
}

/// One measured obs mode.
#[derive(Debug, Clone, Serialize)]
struct ModeResult {
    mode: String,
    /// Best-of-reps wall-clock time for the whole run, milliseconds.
    best_ms: f64,
    /// Device-engine events delivered (identical across modes).
    events: u64,
    /// events / best_ms, in events per wall-clock second.
    events_per_sec: f64,
    /// Best-of regression vs `off`'s best, percent (negative = faster).
    /// The gates read this.
    overhead_pct: f64,
    /// Median over reps of (this rep's time / the same rep's `off`
    /// time − 1), percent. Zero for `off` by definition.
    paired_median_pct: f64,
    /// Interquartile range of the same paired overheads, percent.
    paired_iqr_pct: f64,
}

/// What one recording run captures, by stream — the denominator behind
/// the mem/prof overheads (overhead scales with captured volume, so a
/// regression here shows whether cost-per-event or event count moved).
#[derive(Debug, Clone, Serialize)]
struct Captured {
    tasks: u64,
    tenants: u64,
    smm: u64,
    mtb: u64,
    /// Sum over all counters (engine events dominate).
    counter_total: u64,
}

#[derive(Debug, Clone, Serialize)]
struct ObsSection {
    tasks: u64,
    reps: u64,
    off: ModeResult,
    null: ModeResult,
    mem: ModeResult,
    prof: ModeResult,
    captured: Captured,
    /// Critical-path attribution of the captured run: where its
    /// simulated time went, phase by phase.
    attribution: ProfSummary,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    bench: String,
    smoke: bool,
    host_cores: usize,
    gates: Gates,
    desim: DesimSection,
    e2e: E2eSection,
    obs: ObsSection,
    pass: bool,
}

/// The queue operations both desim microbenches drive. Implemented by
/// the real engine and by the in-bin lazy-deletion oracle, so both see
/// the byte-identical op sequence.
trait Queue {
    fn schedule(&mut self, at: SimTime, lane: u32) -> u64;
    fn cancel(&mut self, key: u64) -> bool;
    fn pop(&mut self) -> Option<u32>;
    fn now(&self) -> SimTime;
}

struct EngineQueue(Engine<u32>);

impl Queue for EngineQueue {
    fn schedule(&mut self, at: SimTime, lane: u32) -> u64 {
        self.0.schedule(at, lane).into_raw()
    }
    fn cancel(&mut self, key: u64) -> bool {
        self.0.cancel(desim::EventKey::from_raw(key))
    }
    fn pop(&mut self) -> Option<u32> {
        self.0.pop().map(|(_, lane)| lane)
    }
    fn now(&self) -> SimTime {
        self.0.now()
    }
}

/// The pre-overhaul queue: a `BinaryHeap` of `(Reverse(time, seq))`
/// with cancellation as a tombstone set consulted at pop time.
/// Cancelled entries stay in the heap as dead weight until their time
/// comes up — exactly the cost profile the indexed heap removes.
#[derive(Default)]
struct LazyQueue {
    heap: BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
    events: Vec<u32>,
    cancelled: HashSet<u64>,
    pending: HashSet<u64>,
    now: SimTime,
    next_seq: u64,
}

impl Queue for LazyQueue {
    fn schedule(&mut self, at: SimTime, lane: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(lane);
        self.heap.push(std::cmp::Reverse((at, seq)));
        self.pending.insert(seq);
        seq
    }
    fn cancel(&mut self, key: u64) -> bool {
        if self.pending.remove(&key) {
            self.cancelled.insert(key);
            true
        } else {
            false
        }
    }
    fn pop(&mut self) -> Option<u32> {
        while let Some(std::cmp::Reverse((at, seq))) = self.heap.pop() {
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.pending.remove(&seq);
            self.now = at;
            return Some(self.events[seq as usize]);
        }
        None
    }
    fn now(&self) -> SimTime {
        self.now
    }
}

/// Clean FIFO throughput: keep `LANES` events in flight, pop one and
/// schedule its replacement. No cancellations — the floor both queue
/// designs should hit.
fn micro_fifo(q: &mut dyn Queue, rounds: u64) -> MicroResult {
    let mut rng = Rng(7);
    for lane in 0..LANES {
        q.schedule(q.now() + Dur::from_ps(1 + rng.next(1_000_000)), lane as u32);
    }
    let start = Instant::now();
    let mut ops = LANES;
    for _ in 0..rounds {
        let lane = q.pop().expect("queue keeps LANES events in flight");
        q.schedule(q.now() + Dur::from_ps(1 + rng.next(1_000_000)), lane);
        ops += 2;
    }
    while q.pop().is_some() {
        ops += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    MicroResult {
        rounds,
        ops,
        secs,
        ops_per_sec: ops as f64 / secs,
    }
}

/// Prediction churn: each round re-aims one lane's armed completion
/// (cancel + schedule), popping a delivery every 8th round — the
/// resident-warp-set-change pattern from the gpu-sim warp engine.
fn micro_churn(q: &mut dyn Queue, rounds: u64) -> MicroResult {
    let mut rng = Rng(13);
    let mut keys: Vec<u64> = (0..LANES)
        .map(|lane| q.schedule(q.now() + Dur::from_ps(1 + rng.next(1_000_000)), lane as u32))
        .collect();
    let start = Instant::now();
    let mut ops = LANES;
    for r in 0..rounds {
        let lane = rng.next(LANES) as usize;
        q.cancel(keys[lane]);
        keys[lane] = q.schedule(q.now() + Dur::from_ps(1 + rng.next(1_000_000)), lane as u32);
        ops += 2;
        if r % 8 == 0 {
            if let Some(lane) = q.pop() {
                keys[lane as usize] =
                    q.schedule(q.now() + Dur::from_ps(1 + rng.next(1_000_000)), lane);
                ops += 2;
            }
        }
    }
    while q.pop().is_some() {
        ops += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    MicroResult {
        rounds,
        ops,
        secs,
        ops_per_sec: ops as f64 / secs,
    }
}

/// Runs `n` narrow tasks with `obs` attached to every layer; returns
/// (wall seconds, device events delivered). The timed region is the
/// runtime's construction, the spawns and `wait_all`.
fn run_once(n: usize, obs: Obs) -> (f64, u64) {
    let task = narrow_task();
    let start = Instant::now();
    let mut rt = PagodaRuntime::new(PagodaConfig::default());
    rt.attach_obs(obs);
    for _ in 0..n {
        baselines::spawn_blocking(&mut rt, &task);
    }
    rt.wait_all();
    assert_eq!(rt.report().tasks as usize, n, "bench run must complete");
    (start.elapsed().as_secs_f64(), rt.engine_stats().delivered)
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_hotpath.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other}; supported: --smoke --out PATH"),
        }
    }
    let (rounds, n, reps, gates) = if smoke {
        (200_000, 768, 11, SMOKE_GATES)
    } else {
        (2_000_000, 4096, 9, FULL_GATES)
    };

    // --- desim microbenches (best of 3, interleaved) ---------------
    let mut fifo: Option<MicroResult> = None;
    let mut churn: Option<MicroResult> = None;
    let mut churn_oracle: Option<MicroResult> = None;
    let keep_best = |slot: &mut Option<MicroResult>, r: MicroResult| {
        if slot.as_ref().is_none_or(|b| r.ops_per_sec > b.ops_per_sec) {
            *slot = Some(r);
        }
    };
    for _ in 0..3 {
        keep_best(
            &mut fifo,
            micro_fifo(&mut EngineQueue(Engine::new()), rounds),
        );
        keep_best(
            &mut churn,
            micro_churn(&mut EngineQueue(Engine::new()), rounds),
        );
        keep_best(
            &mut churn_oracle,
            micro_churn(&mut LazyQueue::default(), rounds),
        );
    }
    let (fifo, churn, churn_oracle) = (
        fifo.expect("ran"),
        churn.expect("ran"),
        churn_oracle.expect("ran"),
    );
    assert_eq!(
        churn.ops, churn_oracle.ops,
        "both queues must see the identical op sequence"
    );
    let desim = DesimSection {
        churn_speedup: churn.ops_per_sec / churn_oracle.ops_per_sec,
        fifo,
        churn,
        churn_oracle,
    };

    // --- end-to-end tasks/sec + obs overhead (interleaved reps) ----
    type ObsCtor = fn() -> Obs;
    let modes: [(&str, ObsCtor); 4] = [
        ("off", Obs::off),
        ("null", || Obs::new(Arc::new(NullRecorder))),
        ("mem", || Obs::with_mem(Arc::new(MemRecorder::new()))),
        ("prof", || ProfRecorder::recording().0),
    ];
    run_once(n.min(256), Obs::off()); // warm-up (page cache, allocator)
    let mut secs: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); modes.len()];
    let mut events = [0u64; 4];
    for rep in 0..reps {
        for (i, (name, mk)) in modes.iter().enumerate() {
            let (s, ev) = run_once(n, mk());
            if rep == 0 {
                events[i] = ev;
            } else {
                assert_eq!(events[i], ev, "{name}: event count must be deterministic");
            }
            secs[i].push(s);
        }
    }
    for ev in &events[1..] {
        assert_eq!(
            events[0], *ev,
            "recorders must not change the simulated history"
        );
    }

    let best: Vec<f64> = secs
        .iter()
        .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let mk_result = |i: usize| {
        let paired: Vec<f64> = (0..reps)
            .map(|r| 100.0 * (secs[i][r] / secs[0][r] - 1.0))
            .collect();
        ModeResult {
            mode: modes[i].0.to_string(),
            best_ms: best[i] * 1e3,
            events: events[i],
            events_per_sec: events[i] as f64 / best[i],
            overhead_pct: 100.0 * (1.0 - best[0] / best[i]),
            paired_median_pct: percentile(&paired, 50.0),
            paired_iqr_pct: percentile(&paired, 75.0) - percentile(&paired, 25.0),
        }
    };
    let e2e = E2eSection {
        tasks: n as u64,
        reps: reps as u64,
        best_ms: best[0] * 1e3,
        tasks_per_sec: n as f64 / best[0],
        events: events[0],
        events_per_sec: events[0] as f64 / best[0],
    };
    // One untimed profiled run: the history is deterministic, so its
    // stream and attribution are what every timed prof rep produced.
    let (captured, attribution) = {
        let (obs_h, rec) = ProfRecorder::recording();
        run_once(n, obs_h);
        let buf = rec.snapshot();
        let captured = Captured {
            tasks: buf.tasks.len() as u64,
            tenants: buf.tenants.len() as u64,
            smm: buf.smm.len() as u64,
            mtb: buf.mtb.len() as u64,
            counter_total: buf.counters.values().sum(),
        };
        (captured, rec.report().summary())
    };
    let obs = ObsSection {
        tasks: n as u64,
        reps: reps as u64,
        off: mk_result(0),
        null: mk_result(1),
        mem: mk_result(2),
        prof: mk_result(3),
        captured,
        attribution,
    };

    let mut failures: Vec<String> = Vec::new();
    if desim.churn_speedup < 1.0 {
        failures.push(format!(
            "indexed queue lost to the lazy-deletion oracle on churn: {:.2}x",
            desim.churn_speedup
        ));
    }
    for (r, gate) in [
        (&obs.null, gates.null_pct),
        (&obs.prof, gates.prof_pct),
        (&obs.mem, gates.mem_pct),
    ] {
        if r.overhead_pct > gate {
            failures.push(format!(
                "{} recorder overhead {:.2}% exceeds the {gate:.1}% gate",
                r.mode, r.overhead_pct
            ));
        }
    }

    println!(
        "desim  fifo {:>12.0} ops/s   churn {:>12.0} ops/s   oracle {:>12.0} ops/s   ({:.2}x)",
        desim.fifo.ops_per_sec,
        desim.churn.ops_per_sec,
        desim.churn_oracle.ops_per_sec,
        desim.churn_speedup,
    );
    println!(
        "e2e    {:>12.0} tasks/s   {:>12.0} events/s   best {:.1} ms",
        e2e.tasks_per_sec, e2e.events_per_sec, e2e.best_ms
    );
    println!(
        "obs    {:>6} {:>10} {:>16} {:>9} {:>13} {:>9}",
        "mode", "best", "events/s", "best-of", "paired-median", "IQR"
    );
    for r in [&obs.off, &obs.null, &obs.mem, &obs.prof] {
        println!(
            "obs    {:>6} {:>7.1} ms {:>16.0} {:>8.2}% {:>12.2}% {:>8.2}%",
            r.mode,
            r.best_ms,
            r.events_per_sec,
            r.overhead_pct,
            r.paired_median_pct,
            r.paired_iqr_pct
        );
    }

    let report = BenchReport {
        bench: "hotpath".to_string(),
        smoke,
        host_cores: host_cores(),
        gates,
        desim,
        e2e,
        obs,
        pass: failures.is_empty(),
    };
    write_report_and_gate(&report, &out, &failures);
    println!("PASS: all hotpath gates met");
}
