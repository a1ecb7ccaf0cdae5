//! # lardb-bench — the §5 experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | target | paper | binary |
//! |---|---|---|
//! | Figure 1 | Gram matrix, 6 platforms × dims {10,100,1000} | `fig1_gram` |
//! | Figure 2 | linear regression, same grid | `fig2_linreg` |
//! | Figure 3 | distance computation, same grid | `fig3_distance` |
//! | Figure 4 | per-operation breakdown, tuple vs vector Gram | `fig4_breakdown` |
//! | §4.1 | optimizer plan choice + shuffle volumes | `plan_example` |
//!
//! The "platforms" are lardb itself in the paper's three SQL styles
//! (tuple-based, vector-based, block-based) and the three miniature
//! comparator engines from `lardb-baselines`. Scales are CLI-tunable and
//! default far below the paper's 10-machine EC2 runs — the *shape* of the
//! results (who wins, by roughly what factor, where the crossovers are) is
//! the reproduction target, not absolute times. Cells that must run at a
//! reduced row count to stay inside a laptop budget are marked with the
//! count used.

pub mod args;
pub mod platforms;
pub mod report;

pub use args::Args;
pub use platforms::{Platform, RunOutcome, Workload, ALL_PLATFORMS};
pub use report::{figure, format_duration};
