//! Golden test: the paper's tables at smoke scale, rendered through the
//! runner's table exactly as `run-experiments` prints them, are
//! byte-identical to `paper_tables_smoke.txt`, the committed stdout of
//!
//! ```text
//! run-experiments table1 fig1 fig4 fig5 fig6 fig7 --scale smoke --threads 2
//! ```
//!
//! The tables carry no timings, so any diff is a change in the numbers.
//! Threads are pinned because the task layout follows the thread count,
//! and the StackMR rows move with the layout.  Re-pin deliberately, with
//! the command above, when a change is meant to move a table.

use smr_bench::experiments::{ExperimentScale, ExperimentSet, EXPERIMENTS};

#[test]
fn smoke_paper_tables_are_byte_identical_to_the_committed_capture() {
    let mut set = ExperimentSet::new(ExperimentScale::Smoke, 2, 2011);
    let mut stdout = String::new();
    for name in ["table1", "fig1", "fig4", "fig5", "fig6", "fig7"] {
        let (_, run) = EXPERIMENTS
            .iter()
            .find(|(known, _)| *known == name)
            .expect("every paper artefact is a row of the runner's table");
        for table in run(&mut set).expect("paper tables have no failing self-check") {
            stdout.push_str(&format!("{table}\n"));
        }
    }
    assert_eq!(stdout, include_str!("paper_tables_smoke.txt"));
}
