#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Integer polyhedra for loop-nest analysis.
//!
//! This crate plays the role the paper assigns to the *exact but expensive*
//! counting techniques of Clauss \[3\] and Pugh \[15\]: ground truth for the
//! fast dependence-based estimators of `loopmem-core`. It also provides the
//! Fourier–Motzkin machinery that regenerates loop bounds after a unimodular
//! transformation (§4's code generation step), and the subscript ranges
//! that size the dense simulator's touch tables.
//!
//! * [`Constraint`] / [`Polyhedron`] — systems of affine inequalities
//!   `a·x + c ≥ 0` over the iteration vector, and the range of an affine
//!   function over them ([`Polyhedron::affine_range`]);
//! * [`fm`] — exact Fourier–Motzkin elimination with redundancy pruning,
//!   and a checked form that never panics ([`fm::try_eliminate`]);
//! * [`enumerate`] — lexicographic lattice-point enumeration (holes
//!   introduced by projection are filtered against the original system, so
//!   enumeration is exact);
//! * [`count`] — exact distinct-access counting for whole nests;
//! * [`bounds_gen`] — loop-bound regeneration from a projected polyhedron.
//!
//! # Example
//!
//! Counting the distinct elements of Example 4 (`A[2i+5j+1]`, 20×10):
//!
//! ```
//! let nest = loopmem_ir::parse(r#"
//!     array A[111]
//!     for i = 1 to 20 { for j = 1 to 10 { A[2i + 5j + 1]; } }
//! "#).unwrap();
//! let exact = loopmem_poly::count::distinct_accesses(&nest);
//! assert_eq!(exact[&loopmem_ir::ArrayId(0)], 80); // the paper's A_d
//! ```

pub mod bounds_gen;
pub mod constraint;
pub mod count;
pub mod enumerate;
pub mod fm;

pub use bounds_gen::{regenerate_loops, BoundsGenError};
pub use constraint::{Constraint, Polyhedron};
pub use count::{count_points, distinct_accesses};
pub use enumerate::for_each_point;
