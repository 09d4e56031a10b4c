//! Pins what a run with open-loop arrival sources can be observed to do,
//! against values committed in `golden/arrival_fingerprint.txt`.
//!
//! One line per cell: the four arrival families (Poisson, MMPP,
//! bounded-Pareto, diurnal) × {below the concurrency cap, at it} × {one
//! source, three}, plus two cells with a fault window. Each line holds the
//! streaming arrival digest, the dispatch count, the peak queue depth, the
//! per-source counters and a digest of the whole recorded trace. Every
//! cell runs beside a small closed-loop population and is cut into
//! `run_until` slices at awkward instants, so queued events interleave with
//! arrivals and arrivals stay pending across slice boundaries.
//!
//! The golden was recorded while arrivals were still `Event::Arrival`
//! entries on the event queue. `scenario/tests/shard_equivalence.rs`
//! compares the inline and threaded feeds of one merge loop with each
//! other; these committed values are the witness that does not share code
//! with what it checks. To re-record after a *deliberate* model change,
//! paste the "actual" block the failing test prints over the golden file.

use std::fmt::Write as _;
use std::sync::Arc;
use throttledb_engine::{
    ArrivalSourceConfig, FaultKind, FaultSpec, Server, ServerConfig, WorkloadProfiles,
};
use throttledb_sim::{ArrivalProcess, SimDuration, SimTime};
use throttledb_workload::Fnv64;

const GOLDEN: &str = include_str!("golden/arrival_fingerprint.txt");

/// Simulated length of every cell.
const RUN_SECS: u64 = 900;

/// Slice boundaries in microseconds: none of them on a broker tick, the
/// last one the end of the run.
const SLICES_US: [u64; 4] = [77_000_003, 301_234_567, 640_000_001, RUN_SECS * 1_000_000];

const FAMILIES: [&str; 4] = ["poisson", "mmpp", "pareto", "diurnal"];

/// The arrival process of `family`, its rate scaled by `scale`.
fn process(family: &str, scale: f64) -> ArrivalProcess {
    match family {
        "poisson" => ArrivalProcess::Poisson {
            rate_per_sec: 2.0 * scale,
        },
        "mmpp" => ArrivalProcess::Mmpp {
            calm_rate_per_sec: 0.5 * scale,
            burst_rate_per_sec: 8.0 * scale,
            mean_calm_secs: 30.0,
            mean_burst_secs: 6.0,
        },
        "pareto" => ArrivalProcess::BoundedPareto {
            alpha: 1.5,
            min_secs: 0.2 / scale,
            max_secs: 60.0 / scale,
        },
        "diurnal" => ArrivalProcess::Diurnal {
            base_rate_per_sec: 1.5 * scale,
            amplitude: 0.8,
            period_secs: 120.0,
        },
        other => panic!("unknown arrival family {other}"),
    }
}

/// `count` sources of one family. Below the cap they are slow and wide
/// (nothing sheds at the door); at the cap they are fast and narrow
/// (nearly everything does). Later sources run at a fraction of the first
/// one's rate so their instants interleave instead of coinciding.
fn sources(family: &str, at_cap: bool, count: usize) -> Vec<ArrivalSourceConfig> {
    (0..count)
        .map(|i| {
            let thin = 1.0 / (1 + i) as f64;
            let (scale, cap) = if at_cap {
                (12.0, 2 + i as u32)
            } else {
                (0.1, 4096)
            };
            ArrivalSourceConfig {
                name: format!("{family}-{i}"),
                process: process(family, scale * thin),
                class: 0,
                max_in_flight: cap,
                modeled_clients: 1_000,
            }
        })
        .collect()
}

/// Three overlapping fault windows: a compile stall, lost CPUs and a
/// memory leak (whose `LeakStep` events ride the queue between arrivals).
fn faults() -> Vec<FaultSpec> {
    let window = |start, secs, kind| FaultSpec {
        start: SimTime::ZERO + SimDuration::from_secs(start),
        duration: SimDuration::from_secs(secs),
        kind,
    };
    vec![
        window(120, 200, FaultKind::CompileStall { multiplier: 5.0 }),
        window(250, 150, FaultKind::SlotLoss { slots: 5 }),
        window(
            300,
            240,
            FaultKind::MemoryLeak {
                total_bytes: 1 << 30,
                steps: 12,
            },
        ),
    ]
}

/// One cell's line. Cells with faults also run the class circuit breaker,
/// so arrivals are shed by it as well as by the cap.
fn fingerprint(
    label: &str,
    arrivals: Vec<ArrivalSourceConfig>,
    faults: &[FaultSpec],
    profiles: &Arc<WorkloadProfiles>,
) -> String {
    let mut config = ServerConfig::quick(4, true);
    config.breaker.enabled = !faults.is_empty();
    config.duration = SimDuration::from_secs(RUN_SECS);
    config.warmup = SimDuration::ZERO;
    config.slice = SimDuration::from_secs(60);
    config.seed = 2007;
    config.arrivals = arrivals;
    let clients = config.clients;
    let mut server = Server::new(config, Arc::clone(profiles));
    server.enable_trace();
    server.install_faults(faults);
    server.set_active_clients(clients);
    server.begin();
    for at in SLICES_US {
        server.run_until(SimTime::from_micros(at));
    }
    let mut trace = Fnv64::new();
    let events = server.take_trace();
    for event in &events {
        trace.update(format!("{event:?}\n").as_bytes());
    }
    let m = server.finish();
    let mut line = format!(
        "{label} digest={:016x} events={} peak_depth={} trace={:016x}/{}",
        m.arrival_digest,
        m.events_dispatched,
        m.peak_queue_depth,
        trace.finish(),
        events.len(),
    );
    for s in &m.arrival_sources {
        let _ = write!(
            line,
            " {}={}/{}/{}/{}/{}",
            s.name, s.arrivals, s.admitted, s.shed, s.completed, s.failed
        );
    }
    line
}

#[test]
fn every_arrival_cell_reproduces_its_committed_fingerprint() {
    let profiles = Arc::new(WorkloadProfiles::characterize_sales(&ServerConfig::quick(
        4, true,
    )));
    let mut actual = String::new();
    for family in FAMILIES {
        for at_cap in [false, true] {
            for count in [1, 3] {
                let regime = if at_cap { "at_cap" } else { "below_cap" };
                actual.push_str(&fingerprint(
                    &format!("{family} {regime} sources={count}"),
                    sources(family, at_cap, count),
                    &[],
                    &profiles,
                ));
                actual.push('\n');
            }
        }
    }
    for at_cap in [false, true] {
        let regime = if at_cap { "at_cap" } else { "below_cap" };
        // One source of each of three families under the fault windows.
        let mixed = ["poisson", "mmpp", "diurnal"]
            .iter()
            .flat_map(|family| sources(family, at_cap, 1))
            .collect();
        actual.push_str(&fingerprint(
            &format!("faulted {regime} sources=3"),
            mixed,
            &faults(),
            &profiles,
        ));
        actual.push('\n');
    }

    let mismatches: Vec<String> = GOLDEN
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n   got {got}"))
        .collect();
    assert!(
        mismatches.is_empty() && GOLDEN.lines().count() == actual.lines().count(),
        "arrival fingerprints moved ({} of {} lines):\n{}\n--- actual ---\n{actual}",
        mismatches.len(),
        actual.lines().count(),
        mismatches.join("\n"),
    );
}
