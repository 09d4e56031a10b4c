//! Figure 2 of the paper, played against the gateway ladder. Figures 3–5,
//! table 2 and the ablation are scenario grids printed by `throttledb-bench`.

use throttledb_core::{GatewayLadder, LadderDecision, ThrottleConfig};
use throttledb_sim::{GaugeTimeline, SimDuration, SimTime};

/// Figure 2: the compilation-throttling example — three compilations whose
/// memory growth is gated by the ladder while background compilations hold
/// gateway slots. Returns one memory timeline per query, whose flat portions
/// are the blocked spans.
pub fn figure2_timeline() -> Vec<(String, GaugeTimeline)> {
    const MB: u64 = 1 << 20;
    let mut ladder = GatewayLadder::new(ThrottleConfig::for_cpus(1));

    // Background compilations occupy three of the four small-gateway slots
    // and the single medium slot, so Q1/Q2/Q3 contend exactly as in Figure 2.
    let background: Vec<_> = (0..3).map(|_| ladder.begin_task()).collect();
    for b in &background {
        ladder.report_memory(*b, 5 * MB, SimTime::ZERO);
    }
    let blocker = ladder.begin_task();
    ladder.report_memory(blocker, 40 * MB, SimTime::ZERO);

    // Q1 grows fast, Q2 slower, Q3 arrives later and is blocked behind Q2.
    let specs = [
        ("Q1", 0u64, 12 * MB, 140 * MB),
        ("Q2", 5, 6 * MB, 70 * MB),
        ("Q3", 20, 8 * MB, 60 * MB),
    ];
    let mut timelines: Vec<(String, GaugeTimeline)> = specs
        .iter()
        .map(|(name, _, _, _)| (name.to_string(), GaugeTimeline::new(*name)))
        .collect();
    let tasks: Vec<_> = specs.iter().map(|_| ladder.begin_task()).collect();
    let mut bytes = vec![0u64; specs.len()];
    let mut blocked = vec![false; specs.len()];
    let mut done = vec![false; specs.len()];

    for second in 0..240u64 {
        let now = SimTime::from_secs(second);
        // Background holders release over time, just like the unnamed "other
        // queries" of the paper's example.
        if second == 60 {
            ladder.finish_task(blocker, now);
        }
        if second == 90 {
            ladder.finish_task(background[0], now);
        }
        for (i, (_, start, rate, peak)) in specs.iter().enumerate() {
            if done[i] || second < *start {
                continue;
            }
            if !blocked[i] {
                bytes[i] = (bytes[i] + rate).min(*peak);
            }
            match ladder.report_memory(tasks[i], bytes[i], now) {
                LadderDecision::Proceed => {
                    blocked[i] = false;
                    if bytes[i] >= *peak {
                        done[i] = true;
                        ladder.finish_task(tasks[i], now);
                        timelines[i].1.record(now, bytes[i]);
                        timelines[i].1.record(now + SimDuration::from_secs(1), 0);
                        continue;
                    }
                }
                LadderDecision::Wait { .. } => blocked[i] = true,
                LadderDecision::FinishBestEffort => {
                    done[i] = true;
                    ladder.finish_task(tasks[i], now);
                }
            }
            timelines[i].1.record(now, bytes[i]);
        }
    }
    timelines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shows_blocking_plateaus_and_release() {
        let timelines = figure2_timeline();
        assert_eq!(timelines.len(), 3);
        let q1 = &timelines[0].1;
        let q2 = &timelines[1].1;
        // Every query eventually frees its memory.
        for (name, t) in &timelines {
            assert!(t.max_value() > 0, "{name} never allocated");
            assert_eq!(
                t.samples().last().map(|(_, v)| *v),
                Some(0),
                "{name} must finish"
            );
        }
        // Q1's growth is interrupted by at least one blocked plateau of
        // several seconds (the flat portions of the paper's figure).
        assert!(
            q1.longest_plateau() >= SimDuration::from_secs(5),
            "Q1 plateau {:?}",
            q1.longest_plateau()
        );
        assert!(q2.longest_plateau() >= SimDuration::from_secs(5));
        // Q1 reaches a higher peak than Q2 (it is the bigger query).
        assert!(q1.max_value() > q2.max_value());
    }
}
