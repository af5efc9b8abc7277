//! The two host clocks of a timed phase ([`Stopwatch`]), host-time
//! spans around the benchmark's own calls into a layer's public
//! functions, and [`TimedBackend`], the `Backend` wrapper that takes
//! those spans for code the benchmark does not drive itself (the
//! serving loop).
//!
//! Spans are kept in memory as summed durations plus call counts per
//! [`Call`] kind; nothing is written out until the run ends.

use std::cell::Cell;
use std::time::Instant;

use desim::{Dur, EngineStats, SimTime};
use pagoda_core::trace::TaskTrace;
use pagoda_core::{Capacity, PagodaError, SubmitError, TaskDesc};
use pagoda_host::Backend;
use pagoda_obs::Obs;

/// CPU seconds this process has used so far, user and system, summed
/// over its threads. Unlike wall time it leaves out time the process
/// waited for a core: preempted by another process, or its virtual CPU
/// preempted by the host (steal time).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Fallback where the process CPU clock is not wired up: wall seconds
/// since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Host seconds of one phase on both clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elapsed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (see [`process_cpu_s`]).
    pub cpu_s: f64,
}

/// Reads both host clocks from the moment it was started.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Seconds on both clocks since [`Stopwatch::start`].
    pub fn read(&self) -> Elapsed {
        Elapsed {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu_s,
        }
    }
}

/// The kinds of call a span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// Non-blocking task submission.
    Submit,
    /// Host-view refresh: `sync_table`, `sync`, `check`.
    Sync,
    /// Clock control: `advance_to`.
    Advance,
    /// Blocking completion: `wait`, `wait_all`.
    Wait,
    /// Everything else: capacity probes, clock reads, completion reads,
    /// reports. Counted, not timed: most cost less than the two clock
    /// reads a span takes, so their time stays with the caller.
    Query,
}

const KINDS: usize = 5;

/// Summed host time and call count of one [`Call`] kind.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Span {
    /// Summed host seconds.
    pub secs: f64,
    /// Calls made.
    pub calls: u64,
}

/// Per-kind spans of one layer. Interior mutability lets `&self`
/// trait methods charge their time too.
#[derive(Debug, Default)]
pub struct Spans {
    spans: [Cell<Span>; KINDS],
    accepted: Cell<u64>,
}

impl Spans {
    /// Charges the time since `start` to `kind`.
    pub fn charge(&self, kind: Call, start: Instant) {
        let cell = &self.spans[kind as usize];
        let mut s = cell.get();
        s.secs += start.elapsed().as_secs_f64();
        s.calls += 1;
        cell.set(s);
    }

    /// Counts one call of `kind` without timing it.
    pub fn count(&self, kind: Call) {
        let cell = &self.spans[kind as usize];
        let mut s = cell.get();
        s.calls += 1;
        cell.set(s);
    }

    /// Counts one submission the layer accepted.
    pub fn accept(&self) {
        self.accepted.set(self.accepted.get() + 1);
    }

    /// The span of one kind.
    pub fn get(&self, kind: Call) -> Span {
        self.spans[kind as usize].get()
    }

    /// Submissions accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.get()
    }

    /// Summed host seconds and calls over every kind.
    pub fn total(&self) -> Span {
        self.spans.iter().fold(Span::default(), |acc, c| {
            let s = c.get();
            Span {
                secs: acc.secs + s.secs,
                calls: acc.calls + s.calls,
            }
        })
    }
}

/// Runs `f`, charging its host time to `kind` when `spans` is present.
/// The untraced path is one branch.
pub fn timed<T>(spans: Option<&Spans>, kind: Call, f: impl FnOnce() -> T) -> T {
    match spans {
        None => f(),
        Some(s) => {
            let start = Instant::now();
            let out = f();
            s.charge(kind, start);
            out
        }
    }
}

/// A [`Backend`] that forwards every call to `inner`, charging its host
/// time to a [`Call`] kind (queries are only counted). It adds no simulated time and changes
/// no argument, so the simulated history through it is the history
/// without it.
#[derive(Debug)]
pub struct TimedBackend<'a, B: ?Sized> {
    inner: &'a mut B,
    spans: Spans,
}

impl<'a, B: Backend + ?Sized> TimedBackend<'a, B> {
    /// Wraps `inner` with empty spans.
    pub fn new(inner: &'a mut B) -> Self {
        TimedBackend {
            inner,
            spans: Spans::default(),
        }
    }

    /// The spans taken so far.
    pub fn into_spans(self) -> Spans {
        self.spans
    }

    fn query<T>(&self, f: impl FnOnce(&B) -> T) -> T {
        self.spans.count(Call::Query);
        f(self.inner)
    }

    fn query_mut<T>(&mut self, f: impl FnOnce(&mut B) -> T) -> T {
        self.spans.count(Call::Query);
        f(self.inner)
    }

    fn time_mut<T>(&mut self, kind: Call, f: impl FnOnce(&mut B) -> T) -> T {
        let start = Instant::now();
        let out = f(self.inner);
        self.spans.charge(kind, start);
        out
    }
}

impl<B: Backend + ?Sized> Backend for TimedBackend<'_, B> {
    fn submit(&mut self, tenant: u32, desc: TaskDesc) -> Result<u64, SubmitError> {
        let out = self.time_mut(Call::Submit, |b| b.submit(tenant, desc));
        if out.is_ok() {
            self.spans.accept();
        }
        out
    }

    fn capacity(&self) -> Capacity {
        self.query(|b| b.capacity())
    }

    fn check(&mut self, key: u64) -> Result<bool, PagodaError> {
        self.time_mut(Call::Sync, |b| b.check(key))
    }

    fn wait(&mut self, key: u64) -> Result<SimTime, PagodaError> {
        self.time_mut(Call::Wait, |b| b.wait(key))
    }

    fn observed_done(&self, key: u64) -> bool {
        self.query(|b| b.observed_done(key))
    }

    fn completion_time(&self, key: u64) -> Option<SimTime> {
        self.query(|b| b.completion_time(key))
    }

    fn now(&self) -> SimTime {
        self.query(|b| b.now())
    }

    fn advance_to(&mut self, t: SimTime) {
        self.time_mut(Call::Advance, |b| b.advance_to(t));
    }

    fn sync(&mut self) {
        self.time_mut(Call::Sync, |b| b.sync());
    }

    fn wait_timeout(&self) -> Dur {
        self.query(|b| b.wait_timeout())
    }

    fn warp_occupancy(&mut self) -> f64 {
        self.query_mut(|b| b.warp_occupancy())
    }

    fn traces(&self) -> Vec<TaskTrace> {
        self.query(|b| b.traces())
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.query_mut(|b| b.attach_obs(obs));
    }

    fn engine_stats(&self) -> Vec<EngineStats> {
        self.query(|b| b.engine_stats())
    }

    fn num_devices(&self) -> u32 {
        self.query(|b| b.num_devices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagoda_core::PagodaRuntime;
    use pagoda_serve::{serve_on, serving_slice, ArrivalSpec, Policy, ServeConfig, TenantSpec};
    use workloads::Bench;

    fn config() -> ServeConfig {
        let mut packets = TenantSpec::new("packets", Bench::Des3, 1.2e5);
        packets.queue_cap = 16;
        let mut tiles = TenantSpec::new("tiles", Bench::Mb, 1.0);
        tiles.arrival = ArrivalSpec::Mmpp {
            calm_rate_per_s: 2.0e4,
            burst_rate_per_s: 4.0e5,
            mean_calm_us: 300.0,
            mean_burst_us: 100.0,
        };
        tiles.queue_cap = 8;
        let mut cfg = ServeConfig::new(vec![packets, tiles], Policy::WeightedFair);
        cfg.tasks_per_tenant = 600;
        cfg.seed = 7;
        cfg
    }

    fn slice() -> PagodaRuntime {
        PagodaRuntime::new(serving_slice(2).expect("valid slice"))
    }

    #[test]
    fn timed_backend_leaves_simulated_history_unchanged() {
        let cfg = config();
        let plain = serve_on(&cfg, &mut slice()).expect("serves");
        let mut rt = slice();
        let mut timed = TimedBackend::new(&mut rt);
        let through = serve_on(&cfg, &mut timed).expect("serves");
        let spans = timed.into_spans();

        assert_eq!(
            serde_json::to_string(&plain.records).expect("records encode"),
            serde_json::to_string(&through.records).expect("records encode"),
        );
        assert_eq!(
            serde_json::to_string(&plain.report).expect("report encodes"),
            serde_json::to_string(&through.report).expect("report encodes"),
        );
        let shed: u64 = plain.report.tenants.iter().map(|t| t.shed).sum();
        assert!(shed > 0, "the mix must exercise admission control");

        let submit = spans.get(Call::Submit);
        assert!(submit.calls >= spans.accepted());
        assert_eq!(spans.accepted(), through.traces.len() as u64);
        assert!(spans.get(Call::Sync).calls > 0 && spans.get(Call::Advance).calls > 0);
        assert!(spans.total().secs > 0.0);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let watch = Stopwatch::start();
        let mut x = 0u64;
        while watch.read().cpu_s < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let e = watch.read();
        assert!(x > 0 && e.cpu_s >= 0.02 && e.wall_s > 0.0, "{e:?}");
        assert!(process_cpu_s() >= e.cpu_s);
    }

    #[test]
    fn untraced_timed_runs_the_call_without_a_span() {
        let spans = Spans::default();
        assert_eq!(timed(None, Call::Sync, || 3), 3);
        assert_eq!(timed(Some(&spans), Call::Sync, || 4), 4);
        assert_eq!(spans.get(Call::Sync).calls, 1);
        assert_eq!(spans.total().calls, 1);
    }
}
