//! Edge cases of the one event loop ([`Server::run_until`]): arrivals,
//! broker ticks and queued events that share an instant, arrivals on the
//! window boundary and at the end of the run, and windows cut at arbitrary
//! places and on tick instants.
//!
//! The fixed cases use *metronome* sources — a bounded-Pareto process
//! whose bounds round to one gap — so arrival instants are known to the
//! microsecond and the expected decision order can be written down and
//! folded into a digest by hand.

use crate::config::{ArrivalSourceConfig, ServerConfig};
use crate::fault::{FaultKind, FaultSpec};
use crate::machine::scaled_budget;
use crate::metrics::RunMetrics;
use crate::profile::WorkloadProfiles;
use crate::server::{Event, Server};
use crate::trace::TraceEvent;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use throttledb_sim::{ArrivalProcess, SimDuration, SimTime};
use throttledb_workload::Fnv64;

fn profiles() -> Arc<WorkloadProfiles> {
    static PROFILES: OnceLock<Arc<WorkloadProfiles>> = OnceLock::new();
    PROFILES
        .get_or_init(|| {
            Arc::new(WorkloadProfiles::characterize_sales(&ServerConfig::quick(
                4, true,
            )))
        })
        .clone()
}

const SEC: u64 = 1_000_000;

fn at(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

/// A source that fires every `period_secs` seconds, to the microsecond.
fn metronome(period_secs: u64, cap: u32) -> ArrivalSourceConfig {
    let period = period_secs as f64;
    ArrivalSourceConfig {
        name: format!("every-{period_secs}s"),
        // Every gap the sampler can draw rounds to `period` whole seconds.
        process: ArrivalProcess::BoundedPareto {
            alpha: 1.5,
            min_secs: period,
            max_secs: period + 4e-7,
        },
        class: 0,
        max_in_flight: cap,
        modeled_clients: 1,
    }
}

/// No closed-loop clients, no OLTP (so an admitted query outlives every
/// run here and a capped source stays at its cap), `duration_us` long.
fn config(duration_us: u64, sources: Vec<ArrivalSourceConfig>) -> ServerConfig {
    let mut config = ServerConfig::quick(0, true);
    config.duration = SimDuration::from_micros(duration_us);
    config.warmup = SimDuration::ZERO;
    config.slice = SimDuration::from_secs(1);
    config.oltp_fraction = 0.0;
    config.arrivals = sources;
    config
}

fn started(config: ServerConfig) -> Server {
    let mut server = Server::new(config, profiles());
    server.enable_trace();
    server.begin();
    server
}

/// The arrival digest of a decision sequence `(instant µs, source, code)`,
/// folded by the workload crate's FNV-1a rather than the server's own.
fn digest_of(decisions: &[(u64, u32, u8)]) -> u64 {
    let mut hash = Fnv64::new();
    for &(at_us, source, code) in decisions {
        hash.update(&at_us.to_le_bytes());
        hash.update(&source.to_le_bytes());
        hash.update(&[code]);
    }
    hash.finish()
}

#[test]
fn an_arrival_and_a_queued_event_at_one_instant_fire_in_seq_order() {
    let mut server = Server::new(config(10 * SEC, vec![metronome(1, 64)]), profiles());
    server.enable_trace();
    // Fault 0 is scheduled before `begin` reserves the source's first
    // sequence number; fault 1 lies beyond the run and is fired by hand
    // below.
    let stall = FaultKind::CompileStall { multiplier: 2.0 };
    server.install_faults(&[
        FaultSpec {
            start: at(3 * SEC),
            duration: SimDuration::from_secs(1),
            kind: stall,
        },
        FaultSpec {
            start: at(1_000 * SEC),
            duration: SimDuration::from_secs(1),
            kind: stall,
        },
    ]);
    server.begin();
    server.run_until(at(5 * SEC + 500_000));
    // The arrival at 6 s already holds its sequence number, so a queue
    // event scheduled now for that instant comes after it.
    server
        .queue
        .schedule(at(6 * SEC), Event::FaultBegin { index: 1 });
    server.run_until(at(7 * SEC));
    let order: Vec<&'static str> = server
        .take_trace()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Submitted { at: t, .. } if t == at(3 * SEC) => Some("arrival@3"),
            TraceEvent::FaultInjected { fault: 0, .. } => Some("fault@3"),
            TraceEvent::Submitted { at: t, .. } if t == at(6 * SEC) => Some("arrival@6"),
            TraceEvent::FaultInjected { fault: 1, .. } => Some("fault@6"),
            _ => None,
        })
        .collect();
    assert_eq!(order, ["fault@3", "arrival@3", "arrival@6", "fault@6"]);
}

#[test]
fn a_broker_tick_and_a_queued_event_at_one_instant_fire_in_seq_order() {
    // A grant collapse shows when a tick ran: the tick applies the active
    // collapse to the class grant budget. The source never fires.
    let mut server = Server::new(config(60 * SEC, vec![metronome(1_000, 1)]), profiles());
    let collapse = |start, scale| FaultSpec {
        start,
        duration: SimDuration::from_secs(1_000),
        kind: FaultKind::GrantCollapse { scale },
    };
    // Fault 0 is queued before `begin` reserves the first tick, so at 10 s
    // it precedes the tick there, whose sequence number the tick at 5 s
    // reserved. Fault 1 lies beyond the run and is fired by hand below.
    server.install_faults(&[
        collapse(at(10 * SEC), 0.5),
        collapse(at(10_000 * SEC), 0.25),
    ]);
    server.begin();
    let budget = |server: &Server| server.machine.memory.grant_budget(0);
    server.run_until(at(10 * SEC));
    let full = budget(&server);
    server.run_until(at(10 * SEC + 1));
    assert_eq!(
        budget(&server),
        scaled_budget(full, 0.5),
        "fault 0, then the tick"
    );
    // The tick at 15 s already holds its sequence number, so an event
    // queued now for that instant comes after it.
    server.run_until(at(12 * SEC));
    server
        .queue
        .schedule(at(15 * SEC), Event::FaultBegin { index: 1 });
    server.run_until(at(15 * SEC + 1));
    assert_eq!(
        budget(&server),
        scaled_budget(full, 0.5),
        "the tick, then fault 1"
    );
    server.run_until(at(20 * SEC + 1));
    assert_eq!(budget(&server), scaled_budget(full, 0.125));
    assert_eq!(server.metrics.dispatch.broker_tick, 5);
}

#[test]
fn a_broker_tick_and_an_arrival_at_one_instant_fire_in_seq_order() {
    // (metronome period, shared instant, tick first). Every 5 s the source
    // and the tick share an instant, and the arrival goes first: its
    // reservation dates from `begin` or from the arrival 5 s back, the
    // tick's from the end of the tick 5 s back. Every 3 s they meet at
    // 15 s, where the tick goes first: its reservation dates from 10 s,
    // the arrival's from 12 s.
    for (period, secs, tick_first) in [(5, 5, false), (5, 10, false), (3, 15, true)] {
        // Admitting, and at the cap (the bulk-shed run, bounded by the tick).
        for cap in [64, 1] {
            let tag = format!("every {period} s at {secs} s, cap={cap}");
            let mut server = started(config(60 * SEC, vec![metronome(period, cap)]));
            server.run_until(at(secs * SEC));
            let tick = server.next_tick.expect("a tick is pending");
            let (arrival, _) = server.arrival_plane.candidate();
            assert_eq!(
                (tick.0, arrival.0),
                (at(secs * SEC), at(secs * SEC)),
                "{tag}"
            );
            assert_eq!(tick < arrival, tick_first, "{tag}");
            let ticks = server.metrics.dispatch.broker_tick;
            let offered = server.arrivals_offered();
            server.run_until(at(secs * SEC + 1));
            assert_eq!(server.metrics.dispatch.broker_tick, ticks + 1, "{tag}");
            assert_eq!(server.arrivals_offered(), offered + 1, "{tag}");
            // Each reserved its successor as it fired: whichever went first
            // now holds the smaller sequence number.
            let next_tick = server.next_tick.expect("a further tick").1;
            let next_arrival = server.arrival_plane.reserved[0].expect("a further arrival");
            assert_eq!(next_tick < next_arrival, tick_first, "{tag}");
            // The rest in one window: at the cap, one long bulk-shed run
            // that must stop at each tick.
            server.run_until(at(60 * SEC));
            assert_eq!(server.finish().dispatch.broker_tick, 12, "{tag}");
        }
    }
}

#[test]
fn windows_that_end_on_tick_instants_change_nothing() {
    let run = |cut: bool| {
        let mut config = ServerConfig::quick(6, true);
        config.duration = SimDuration::from_secs(120);
        config.warmup = SimDuration::ZERO;
        config.slice = SimDuration::from_secs(30);
        config.arrivals = vec![
            metronome(5, 2),
            ArrivalSourceConfig {
                name: "poisson".to_string(),
                process: ArrivalProcess::Poisson { rate_per_sec: 3.0 },
                class: 0,
                max_in_flight: 4,
                modeled_clients: 100,
            },
        ];
        let mut server = Server::new(config, profiles());
        server.enable_trace();
        server.set_active_clients(6);
        server.begin();
        if cut {
            // Every tick instant, the first one (0 s) included.
            for k in 0..24 {
                server.run_until(at(k * 5 * SEC));
            }
        }
        server.run_until(at(120 * SEC));
        let trace = server.take_trace();
        observable(trace, server.finish())
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn two_sources_at_one_instant_fire_in_reservation_order() {
    // Source 0 fires every second, source 1 every other second. At the even
    // seconds both fire, and source 1 goes first although its index is
    // larger: its reservation dates from its previous arrival, two seconds
    // back, source 0's from one second back.
    let instants: [(u64, u32); 9] = [
        (1, 0),
        (2, 1),
        (2, 0),
        (3, 0),
        (4, 1),
        (4, 0),
        (5, 0),
        (6, 1),
        (6, 0),
    ];
    for (cap, label) in [(64, "admitting"), (1, "at the cap")] {
        // With room for one query each, a source's first arrival is admitted
        // and the rest are shed at the cap (the bulk-shed run's path).
        let mut seen = [false; 2];
        let expected: Vec<(u64, u32, u8)> = instants
            .iter()
            .map(|&(secs, source)| {
                let first = !std::mem::replace(&mut seen[source as usize], true);
                (secs * SEC, source, u8::from(cap == 1 && !first))
            })
            .collect();
        let sources = vec![metronome(1, cap), metronome(2, cap)];
        let mut server = started(config(6 * SEC + 500_000, sources));
        server.run_until(at(20 * SEC));
        let m = server.finish();
        assert_eq!(m.arrival_digest, digest_of(&expected), "{label}");
        assert_eq!(m.arrivals, 9);
        assert_eq!(m.dispatch.external_arrivals, 9);
    }
}

#[test]
fn an_arrival_on_the_boundary_waits_for_the_next_window() {
    for cap in [64, 1] {
        let tag = format!("cap={cap}");
        let mut server = started(config(10 * SEC, vec![metronome(1, cap)]));
        // Strictly before: the arrival at 3 s is not part of [0, 3 s).
        server.run_until(at(3 * SEC));
        assert_eq!(server.arrivals_offered(), 2, "{tag}");
        assert_eq!(server.now(), at(3 * SEC), "{tag}");
        // An empty window moves nothing.
        server.run_until(at(3 * SEC));
        assert_eq!(server.arrivals_offered(), 2, "{tag}");
        server.run_until(at(3 * SEC + 1));
        assert_eq!(server.arrivals_offered(), 3, "{tag}");
        server.run_until(at(10 * SEC));
        assert_eq!(server.arrivals_offered(), 9, "{tag}");
    }
}

#[test]
fn a_source_whose_next_gap_reaches_the_end_of_the_run_stops() {
    // (run length, arrivals): a gap that lands past the end, one that lands
    // exactly on it, and a first gap that already overshoots.
    for (duration_us, arrivals) in [(3 * SEC + 500_000, 3), (3 * SEC, 2), (SEC / 2, 0)] {
        for cap in [64, 1] {
            let mut server = started(config(duration_us, vec![metronome(1, cap)]));
            // Windows past the end of the run find nothing more to fire.
            server.run_until(at(duration_us));
            server.run_until(at(30 * SEC));
            let m = server.finish();
            assert_eq!(m.arrivals, arrivals, "{duration_us} µs, cap={cap}");
            assert_eq!(m.dispatch.external_arrivals, arrivals);
        }
    }
}

/// Everything two runs of one schedule must agree on.
fn observable(trace: Vec<TraceEvent>, m: RunMetrics) -> impl PartialEq + std::fmt::Debug {
    let sources: Vec<[u64; 5]> = m
        .arrival_sources
        .iter()
        .map(|s| [s.arrivals, s.admitted, s.shed, s.completed, s.failed])
        .collect();
    (
        (m.arrival_digest, m.events_dispatched, m.peak_queue_depth),
        (m.dispatch, sources),
        (m.completed.total(), m.failed.total(), m.retries_abandoned),
        trace,
    )
}

proptest! {
    /// Where the windows are cut is not observable. The reference run stops
    /// only where a knob changes (`set_mean_think_time`,
    /// `set_grant_budget_scale`); the sliced run also stops at arbitrary
    /// other instants, zero-length windows included.
    #[test]
    fn cutting_a_run_into_windows_changes_nothing(
        knobs in (0u64..1_000_000, 0u32..4),
        source_knobs in proptest::collection::vec((0u8..4, 1u32..12, 1u32..6), 1..4),
        changes in proptest::collection::vec((1u64..300, 5u64..60, 30u32..100), 0..3),
        cuts in proptest::collection::vec(0u64..300 * SEC, 0..8),
    ) {
        let (seed, clients) = knobs;
        let sources: Vec<ArrivalSourceConfig> = source_knobs
            .iter()
            .enumerate()
            .map(|(i, &(kind, rate, cap))| {
                let rate = rate as f64;
                let process = match kind {
                    0 => ArrivalProcess::Poisson { rate_per_sec: rate },
                    1 => ArrivalProcess::Mmpp {
                        calm_rate_per_sec: rate * 0.2,
                        burst_rate_per_sec: rate * 3.0,
                        mean_calm_secs: 20.0,
                        mean_burst_secs: 4.0,
                    },
                    2 => ArrivalProcess::BoundedPareto {
                        alpha: 1.5,
                        min_secs: 0.5 / rate,
                        max_secs: 30.0,
                    },
                    _ => ArrivalProcess::Diurnal {
                        base_rate_per_sec: rate,
                        amplitude: 0.7,
                        period_secs: 50.0,
                    },
                };
                ArrivalSourceConfig {
                    name: format!("src-{i}"),
                    process,
                    class: 0,
                    max_in_flight: cap,
                    modeled_clients: 1_000,
                }
            })
            .collect();
        let run = |extra_cuts: &[u64]| {
            let mut config = ServerConfig::quick(clients, true);
            config.duration = SimDuration::from_secs(300);
            config.warmup = SimDuration::ZERO;
            config.slice = SimDuration::from_secs(30);
            config.seed = seed;
            config.arrivals = sources.clone();
            let mut server = Server::new(config, profiles());
            server.enable_trace();
            server.set_active_clients(clients);
            server.begin();
            // (instant µs, knob change to apply on reaching it)
            let mut stops: Vec<(u64, Option<(u64, u32)>)> = changes
                .iter()
                .map(|&(secs, think, scale)| (secs * SEC, Some((think, scale))))
                .chain(extra_cuts.iter().map(|&us| (us, None)))
                .collect();
            stops.sort();
            for (us, change) in stops {
                server.run_until(at(us));
                if let Some((think_secs, scale_percent)) = change {
                    server.set_mean_think_time(SimDuration::from_secs(think_secs));
                    server.set_grant_budget_scale(scale_percent as f64 / 100.0);
                }
            }
            server.run_until(at(300 * SEC));
            let trace = server.take_trace();
            observable(trace, server.finish())
        };
        prop_assert_eq!(run(&[]), run(&cuts));
    }
}
