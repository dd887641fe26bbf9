//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (Section 6) on the synthetic stand-in datasets.
//!
//! | Experiment | Paper artefact | Function |
//! |---|---|---|
//! | `table1` | Table 1 — dataset characteristics | [`experiments::table1`] |
//! | `fig1`–`fig3` | Figures 1–3 — matching value and #iterations vs #edges | [`experiments::quality_and_iterations`] |
//! | `fig4` | Figure 4 — StackMR capacity violations | [`experiments::violations`] |
//! | `fig5` | Figure 5 — GreedyMR any-time convergence | [`experiments::anytime`] |
//! | `fig6` | Figure 6 — edge-similarity distributions | [`experiments::similarity_distribution`] |
//! | `fig7` | Figure 7 — capacity distributions | [`experiments::capacity_distribution`] |
//!
//! [`experiments::EXPERIMENTS`] is that table in code; the binary
//! `run-experiments` dispatches on it:
//!
//! ```text
//! cargo run --release -p smr_bench --bin run-experiments -- all
//! cargo run --release -p smr_bench --bin run-experiments -- fig1 --scale smoke
//! ```
//!
//! Each experiment prints a plain-text table; `EXPERIMENTS.md` at the
//! workspace root records a captured run next to the paper's own numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod pipeline;
pub mod report;

pub use experiments::{ExperimentScale, ExperimentSet};
pub use pipeline::DatasetInstance;
pub use report::Table;
