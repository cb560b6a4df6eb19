#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Execution simulator for loop nests: the reproduction's ground truth.
//!
//! The paper's estimates (distinct accesses, maximum window size) are
//! closed-form; the authors validate them against the real codes. We have
//! no embedded board, so this crate *executes* nests faithfully instead:
//!
//! * [`exec`] — lexicographic interpretation of (possibly transformed)
//!   nests, evaluating max/min/ceil/floor bounds exactly;
//! * [`window`] — exact reference-window tracking (§2.3): for every
//!   iteration `I`, the set of elements touched at or before `I` that are
//!   touched again after `I`; its maximum cardinality is the exact MWS and
//!   equals the minimum on-chip buffer that captures all reuse;
//! * [`memory`] — a synthetic scratchpad capacity/energy/area/latency
//!   model (CACTI-shaped, documented in DESIGN.md) quantifying the §1
//!   motivation: smaller working sets ⇒ smaller memories ⇒ less energy.
//!
//! # Example
//!
//! Example 8's exact window behaviour:
//!
//! ```
//! use loopmem_sim::{try_simulate_with_threads, AnalysisBudget};
//!
//! let nest = loopmem_ir::parse(r#"
//!     array X[200]
//!     for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }
//! "#).unwrap();
//! let stats = try_simulate_with_threads(&nest, false, 1, &AnalysisBudget::unlimited()).unwrap();
//! assert_eq!(stats.mws_total, 44); // the closed form estimates 50
//! ```
//!
//! Outside this crate, `loopmem::Session` is the front door to both
//! simulator verbs (a nest, a program).

pub mod budget;
pub mod dense;
pub mod exec;
pub mod faults;
mod fold;
pub mod layout;
pub mod memory;
pub mod program;
pub mod replacement;
pub mod reuse_distance;
pub mod window;

pub use budget::{
    analytic_nest_bounds, analytic_program_bounds, panic_message, AnalysisBudget, BudgetTracker,
    CancelToken,
};
pub use dense::{bench_pass1, bench_pass1_interleaved, shard_map, sweep_threads, thread_count};
pub use exec::{
    count_iterations, for_each_iteration, outer_range, try_for_each_inner_run,
    try_for_each_iteration_outer,
};
pub use faults::{FaultKind, FaultPlan, INJECTED_PANIC};
pub use layout::{line_analysis, AddressMap, Layout, LineStats};
pub use memory::{MemoryReport, ScratchpadModel};
pub use program::{
    failed_nest_bounds, try_simulate_program_tracked, GovernedProgramSim, ProgramSimResult,
};
pub use replacement::{min_perfect_capacity, miss_curve, misses, Policy, Trace};
pub use reuse_distance::ReuseHistogram;
pub use window::{
    oracle_simulate, simulate_hashmap, simulate_hashmap_with_profile, try_simulate_tracked,
    try_simulate_with_threads, ArrayStats, SimResult,
};
