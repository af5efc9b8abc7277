//! Golden fingerprint of a fleet whose devices run far ahead of the
//! fleet clock, so that it tracks more tasks than its TaskTables hold:
//! completions a device has already copied back wait, banked, until the
//! causal gate releases them at their fleet instant.
//!
//! The scenario stresses exactly the state the completion harvest keeps
//! between syncs: a `Slow` fault lands while the slowed device holds
//! banked completions (their fleet instants must be remapped through
//! the new clock segment), a `Kill` fault strands in-flight work for
//! resubmission, and the run-ahead window does not divide the polling
//! slice. The serial-vs-parallel tests cannot pin this: both drivers
//! share the harvest code. The golden can — it was recorded before the
//! harvest was made incremental, and a change to which completions a
//! sync releases, or when, shows up as a diff here.
//!
//! Regenerate after an intentional stream change with
//! `PAGODA_UPDATE_GOLDEN=1 cargo test -p pagoda-cluster --test harvest_golden`.

use std::fmt::Write as _;

use desim::{Dur, SimTime};
use pagoda_cluster::{ClusterConfig, ClusterHandle, FaultKind, FaultSpec, Placement};
use pagoda_core::SubmitError;
use pagoda_obs::Obs;
use workloads::{Bench, GenOpts};

const DEVICES: usize = 4;
const TENANTS: u32 = 4;
const TASKS_PER_BENCH: usize = 4_096;
const SLOW_DEVICE: usize = 1;
const SLOW_AT_US: u64 = 25;
const KILL_DEVICE: usize = 3;
const KILL_AT_US: u64 = 47;

/// FNV-1a, 64-bit: a stable digest for the bulky parts of the golden.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn config() -> ClusterConfig {
    let mut cfg = ClusterConfig::uniform(DEVICES);
    cfg.placement = Placement::PowerOfTwo;
    cfg.seed = 11;
    // 7 us does not divide the 20 us polling slice: every idle step
    // crosses partial windows.
    cfg.run_ahead = Dur::from_us(7);
    cfg.faults = vec![
        FaultSpec {
            at: SimTime::from_us(SLOW_AT_US),
            device: SLOW_DEVICE,
            kind: FaultKind::Slow { factor: 3.0 },
        },
        FaultSpec {
            at: SimTime::from_us(KILL_AT_US),
            device: KILL_DEVICE,
            kind: FaultKind::Kill,
        },
    ];
    cfg
}

/// Runs the scenario and renders its fingerprint.
fn fingerprint() -> String {
    let opts = GenOpts {
        seed: 3,
        ..GenOpts::default()
    };
    let des = Bench::Des3.tasks(TASKS_PER_BENCH, &opts);
    let mb = Bench::Mb.tasks(TASKS_PER_BENCH, &opts);
    let tasks: Vec<_> = des.into_iter().zip(mb).flat_map(|(a, b)| [a, b]).collect();

    let cfg = config();
    let entries = cfg.devices[0].total_entries();
    let (obs, rec) = Obs::recording();
    let mut fleet = ClusterHandle::new(cfg).expect("golden config is valid");
    fleet.attach_obs(obs);
    let slice = Dur::from_us(20);
    let mut keys = Vec::with_capacity(tasks.len());
    for (i, mut desc) in tasks.into_iter().enumerate() {
        loop {
            match fleet.submit_for(i as u32 % TENANTS, desc) {
                Ok(k) => {
                    keys.push(k);
                    break;
                }
                Err(SubmitError::Full(d)) => {
                    fleet.sync();
                    if !fleet.capacity().has_room() {
                        let t = fleet.now() + slice;
                        fleet.advance_to(t);
                    }
                    desc = d;
                }
                Err(e) => panic!("golden task rejected: {e}"),
            }
        }
    }
    fleet.wait_all();
    let report = fleet.report();
    let snap = rec.snapshot();

    // The scenario must actually exercise banked completions. A device
    // sample's `outstanding` counts every task the fleet still tracks
    // there; entries the host knows are in use belong to tasks it has
    // not observed done. Any surplus over those is observed-but-gated.
    let banked = |s: &pagoda_obs::DeviceSample| {
        s.outstanding > entries.saturating_sub(s.known_free) && s.alive
    };
    assert!(
        snap.devices.iter().any(|s| s.outstanding > entries),
        "fleet never tracked more tasks than one TaskTable holds"
    );
    assert!(
        snap.devices.iter().any(|s| s.device == SLOW_DEVICE as u32
            && s.at_ps == SimTime::from_us(SLOW_AT_US).as_ps()
            && banked(s)),
        "slow fault did not land while completions were banked"
    );
    assert_eq!(report.slowdowns, 1);
    assert_eq!(report.kills, 1);
    assert!(report.resubmits > 0, "the kill stranded nothing");
    assert_eq!(report.tasks_lost, 0);
    assert_eq!(report.completed, keys.len() as u64);

    let times: Vec<u64> = keys
        .iter()
        .map(|&k| {
            fleet
                .completion_time(k)
                .expect("every task completes")
                .as_ps()
        })
        .collect();
    let times_text = format!("{times:?}");
    let json = snap.to_json();
    let mut out = String::new();
    writeln!(out, "tasks {}", keys.len()).unwrap();
    writeln!(
        out,
        "completion_times last_ps={} fnv1a64={:016x}",
        times.iter().max().expect("non-empty batch"),
        fnv1a(times_text.as_bytes())
    )
    .unwrap();
    writeln!(
        out,
        "recorder_json bytes={} fnv1a64={:016x}",
        json.len(),
        fnv1a(json.as_bytes())
    )
    .unwrap();
    for (i, s) in fleet.engine_stats().iter().enumerate() {
        writeln!(out, "engine_stats[{i}] {s:?}").unwrap();
    }
    writeln!(out, "report {report:?}").unwrap();
    out
}

#[test]
fn banked_harvest_matches_golden() {
    let actual = fingerprint();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/harvest.txt");
    if std::env::var_os("PAGODA_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} ({e}); regenerate with PAGODA_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "fleet harvest diverged from the committed golden"
    );
}
