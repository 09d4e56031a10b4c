//! The paper's own result, pinned: the five printers behind the figure 3,
//! 4 and 5, table 2 and ablation binaries must reproduce the committed
//! transcripts byte for byte, at both scales.
//!
//! A transcript is the five binaries' output concatenated in that order,
//! e.g. for the quick one:
//!
//! ```text
//! for b in figure3_throughput_30 figure4_throughput_35 figure5_throughput_40 \
//!          table2_client_sweep ablation_gateways; do
//!     ./target/release/$b quick 2007
//! done > crates/bench/tests/golden/paper_printers_quick_2007.txt
//! ```
//!
//! CI runs exactly that loop and diffs it against the same file, which
//! covers the binaries' argument parsing on top of this test. A mismatch
//! is a change of the paper's numbers: find out why before re-recording.
//! In the debug profile this also runs the unthrottled leg under the
//! resource pools' debug invariants.

use throttledb_bench::experiment::{ablation_table, figure, table2};
use throttledb_scenario::Scale;

fn transcript(scale: Scale, seed: u64) -> String {
    [
        figure(3, scale, seed),
        figure(4, scale, seed),
        figure(5, scale, seed),
        table2(scale, seed),
        ablation_table(scale, seed),
    ]
    .concat()
}

#[test]
fn quick_transcript_is_unchanged() {
    assert_eq!(
        transcript(Scale::Quick, 2007),
        include_str!("golden/paper_printers_quick_2007.txt")
    );
}

#[test]
fn paper_transcript_is_unchanged() {
    assert_eq!(
        transcript(Scale::Paper, 2007),
        include_str!("golden/paper_printers_paper_2007.txt")
    );
}
