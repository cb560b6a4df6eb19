#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `loopmem-core` — the paper's contribution: estimating and reducing the
//! memory requirements of nested loops.
//!
//! Reproduction of J. Ramanujam, J. Hong, M. Kandemir, A. Narayan,
//! *"Reducing Memory Requirements of Nested Loops for Embedded Systems"*,
//! DAC 2001. The crate implements both halves of the paper:
//!
//! **Estimation** (§3) — how many distinct array elements does a nest touch,
//! and how large does its reference window get?
//!
//! * [`distinct`] — dependence-based distinct-access formulas: exact for
//!   uniformly generated references with full-rank (`d = n`) and
//!   rank-deficient (`d = n−1`) access matrices, and tight bounds for
//!   non-uniformly generated references ([`nonuniform`]);
//! * [`mws`] — maximum-window-size closed forms: eq. (2) for 2-deep nests
//!   under a unimodular transformation and the §4.3 formula for 3-deep
//!   nests, plus the continuous objective the optimizer minimizes;
//! * [`estimator`] — one-call memory analysis combining the formulas with
//!   the exact simulator.
//!
//! **Optimization** (§4) — find a legal, tileable unimodular transformation
//! minimizing the MWS:
//!
//! * [`transform`] — applies a unimodular matrix to a nest, regenerating
//!   bounds by Fourier–Motzkin and rewriting every reference;
//! * [`optimize`] — the compound-transformation search (branch-and-bound
//!   over the leading row, unimodular completion, exact re-evaluation),
//!   with the paper's two points of comparison as selectable baselines:
//!   interchange+reversal only (Eisenbeis et al.) and Li–Pingali
//!   access-matrix completion.
//!
//! [`Session`] is the entry point to every simulation, search and sizing:
//! it carries the thread count, budget, search mode, trace sink and
//! certificate switch into each call.
//!
//! # Quickstart
//!
//! ```
//! use loopmem_core::{estimator::analyze_memory, Session};
//!
//! // Example 8 of the paper.
//! let nest = loopmem_ir::parse(r#"
//!     array X[200]
//!     for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }
//! "#).unwrap();
//!
//! let before = analyze_memory(&nest).unwrap();
//! let opt = Session::new().optimize(&nest).unwrap();
//! assert_eq!(before.mws_exact, Session::new().simulate(&nest).unwrap().mws_total);
//! assert!(opt.mws_after < before.mws_exact);
//! assert_eq!(opt.mws_after, 21); // the paper's "actual minimum MWS"
//! ```

pub mod bnb;
pub mod cert;
pub mod chaos;
pub mod classify;
pub mod distinct;
pub mod estimator;
pub mod fusion;
pub mod mws;
pub mod nonuniform;
pub mod optimize;
pub mod program_opt;
pub mod scratchpad;
pub mod session;
pub mod symbolic;
pub mod tile;
pub mod transform;
pub mod union_count;

pub use bnb::{try_branch_and_bound, BnbResult};
pub use cert::{
    certify_bnb, certify_bounds, certify_degraded, certify_fusion, certify_governed_scratchpad,
    certify_optimization, certify_sizing, trace_certificates,
};
pub use chaos::{chaos_program, chaos_source, ChaosReport};
pub use classify::{classify_formulas, ArrayClassification};
pub use distinct::{
    analytic_mws_bounds, estimate_distinct, estimate_distinct_exact, DistinctEstimate, Method,
};
pub use estimator::{analyze_memory, MemoryAnalysis};
pub use fusion::{fuse, FusionError};
pub use mws::{estimate_nest_mws, three_level_estimate, two_level_estimate, two_level_objective};
pub use optimize::{memo_stats, Optimization, SearchMode};
pub use program_opt::GovernedProgramOptimization;
pub use scratchpad::{FusionStep, GovernedScratchpad, NestTerm, ScratchpadPlan, ScratchpadSizing};
pub use session::Session;
pub use symbolic::{distinct_formulas, Poly, SymbolicEstimate};
pub use tile::{tile, tile_count, TileError};
pub use transform::{apply_transform, TransformError};
pub use union_count::exact_union_count;
