//! Distinct-access estimation (§3 of the paper).
//!
//! The number of distinct elements a nest references is the quantity that
//! actually has to fit in memory, and it is usually far below both the
//! declared array sizes and the iteration count because of reuse. The
//! paper's estimators read the reuse straight off the dependence structure:
//!
//! * `d = n`, `r` uniformly generated references (§3.1): one dependence per
//!   reference pair; the reuse claimed by the designated sink reference is
//!   `Σ Π_k (N_k − |δ_k|)` and `A_d = r·Π N_k − reuse`;
//! * `d = n − 1`, single reference (§3.2): reuse flows along the access
//!   matrix's null-space vector `v` and `A_d = Π N_k − Π (N_k − |v_k|)`;
//! * non-uniformly generated references (§3.2): exact distances do not
//!   exist; value-range bounds with coefficient-gap corrections give a
//!   close interval (module [`crate::nonuniform`]).
//!
//! One private case analysis decides, per referenced array, which of these
//! forms (plus the separable product and the inclusion–exclusion union)
//! applies at the nest's extents, and evaluates it. The numeric estimates,
//! the closed-form MWS bounds, the analyzer's classification
//! ([`crate::classify_formulas`]) and the symbolic formulas
//! ([`crate::distinct_formulas`]) all read its outcome. It never
//! enumerates: an array outside every form (the paper's omitted
//! multi-offset case, entangled kernels, non-rectangular nests) has no
//! estimate here, and [`crate::analyze_memory`] takes its exact count from
//! the dense simulation instead.

use crate::nonuniform;
use loopmem_dep::uniform::{uniform_groups, UniformGroup};
use loopmem_dep::vectors::lex_positive;
use loopmem_ir::{ArrayId, Bounds, BoundsMethod, LoopNest};
use loopmem_linalg::hnf::solve_diophantine;
use loopmem_linalg::integer_nullspace;
use std::collections::HashMap;

/// How an estimate was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// §3.1 closed form (`d = n`, uniformly generated).
    FullRankFormula,
    /// §3.2 null-space closed form (`d < n`, single reference).
    NullspaceFormula,
    /// Product of per-dimension counts for accesses whose subscript rows
    /// read disjoint loop variables (our documented extension; exact).
    SeparableProduct,
    /// Exact union of shifted boxes by inclusion–exclusion (our
    /// documented extension; fixes the §3.1 formula's overlap blindness).
    InclusionExclusion,
    /// §3.2 non-uniform value-range bounds.
    NonUniformBounds,
    /// No closed form applies: the exact count is the dense simulation's
    /// (reported by [`crate::analyze_memory`], never by the estimators).
    Enumerated,
}

/// A distinct-access estimate: an interval `[lower, upper]` plus the method
/// that produced it. Exact results have `lower == upper`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistinctEstimate {
    /// Lower bound on the distinct-access count.
    pub lower: i64,
    /// Upper bound on the distinct-access count.
    pub upper: i64,
    /// Provenance of the numbers.
    pub method: Method,
}

impl DistinctEstimate {
    pub(crate) fn exact(value: i64, method: Method) -> Self {
        DistinctEstimate {
            lower: value,
            upper: value,
            method,
        }
    }

    /// `true` when the interval is a single point.
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }

    /// The exact value, when there is one.
    pub fn value(&self) -> Option<i64> {
        self.is_exact().then_some(self.lower)
    }
}

/// Reuse volume of one dependence distance over extents `N_k`:
/// `Π_k max(0, N_k − |δ_k|)` — the shaded overlap region of Figure 1.
///
/// ```
/// // Example 1: dependence (3,2) on a 10×10 nest reuses 56 elements.
/// assert_eq!(loopmem_core::distinct::reuse_volume(&[10, 10], &[3, 2]), 56);
/// ```
pub fn reuse_volume(extents: &[i64], delta: &[i64]) -> i64 {
    assert_eq!(extents.len(), delta.len(), "arity mismatch");
    extents
        .iter()
        .zip(delta)
        .map(|(&n, &d)| (n - d.abs()).max(0))
        .product()
}

/// Estimates the distinct-access count of every array the §3 closed forms
/// cover at this nest's extents.
///
/// An array outside every form (or any array of a non-rectangular nest,
/// or of one whose numbers would overflow the forms' `i64` arithmetic) is
/// absent: no estimate beats the exact count, which only the simulation
/// provides ([`crate::analyze_memory`]). The cost is polynomial in the
/// nest description, never in the iteration count, so budget-governed
/// callers can use it on nests far too large to sweep.
pub fn estimate_distinct(nest: &LoopNest) -> HashMap<ArrayId, DistinctEstimate> {
    estimates(nest, false)
}

/// Like [`estimate_distinct`], but replaces the §3.1 multi-reference
/// formula with the exact inclusion–exclusion union count
/// ([`crate::union_count`]) wherever it applies — our improvement over
/// the paper, exact for any number of full-rank uniformly generated
/// references.
pub fn estimate_distinct_exact(nest: &LoopNest) -> HashMap<ArrayId, DistinctEstimate> {
    estimates(nest, true)
}

fn estimates(nest: &LoopNest, union: bool) -> HashMap<ArrayId, DistinctEstimate> {
    cases(nest, union)
        .into_iter()
        .filter_map(|c| Some((c.array, c.estimate?)))
        .collect()
}

/// Guaranteed MWS bounds without running anything: a nest's reference
/// window can never exceed the distinct elements it touches, so the summed
/// distinct uppers bound the MWS from above whenever every referenced
/// array has a single-group closed form (the Example-6 interval is not
/// used); otherwise the interval-analysis union-box enclosure
/// ([`loopmem_sim::analytic_nest_bounds`]) stands. Governed searches
/// return these bounds when a budget trips before the exact answer lands.
pub fn analytic_mws_bounds(nest: &LoopNest) -> Bounds {
    let base = loopmem_sim::analytic_nest_bounds(nest);
    let mut upper = 0u64;
    for case in cases(nest, false) {
        match case.estimate {
            Some(e) if case.group_count == 1 => {
                upper = upper.saturating_add(e.upper.max(0) as u64);
            }
            _ => return base,
        }
    }
    if upper < base.upper {
        Bounds {
            lower: 0,
            upper,
            method: BoundsMethod::ClosedForm,
        }
    } else {
        base
    }
}

/// One referenced array's §3 case: the structural facts of its references
/// and the closed form that applies at the nest's extents.
pub(crate) struct Case {
    pub(crate) array: ArrayId,
    /// Rank of the (first group's) access matrix.
    pub(crate) rank: usize,
    /// Integer null-space basis of the access matrix; empty unless the
    /// array forms a single group.
    pub(crate) kernel: Vec<Vec<i64>>,
    pub(crate) group_count: usize,
    pub(crate) ref_count: usize,
    /// §3.1 evidence: the distance from every other reference to the
    /// designated sink (pairs without an integer distance reuse nothing).
    pub(crate) sink_distances: Vec<Vec<i64>>,
    /// The evaluated closed form; `None` when none applies.
    pub(crate) estimate: Option<DistinctEstimate>,
}

/// The §3 case analysis of every referenced array (declared-but-unused
/// arrays are omitted). `union` selects the inclusion–exclusion count for
/// full-rank multi-reference groups ([`estimate_distinct_exact`]).
pub(crate) fn cases(nest: &LoopNest, union: bool) -> Vec<Case> {
    let groups = uniform_groups(nest);
    let ranges = nest
        .rectangular_ranges()
        .filter(|ranges| closed_forms_fit(&groups, ranges));
    let mut out = Vec::new();
    for (a, _) in nest.arrays().iter().enumerate() {
        let id = ArrayId(a);
        let mine: Vec<&UniformGroup> = groups.iter().filter(|g| g.array == id).collect();
        let Some(first) = mine.first() else {
            continue; // declared but never referenced
        };
        let mut case = Case {
            array: id,
            rank: first.matrix.rank(),
            kernel: if mine.len() == 1 {
                integer_nullspace(&first.matrix)
            } else {
                Vec::new()
            },
            group_count: mine.len(),
            ref_count: mine.iter().map(|g| g.len()).sum(),
            sink_distances: Vec::new(),
            estimate: None,
        };
        if let Some(ranges) = &ranges {
            case.estimate = closed_form(&mut case, &mine, ranges, nest.depth(), union);
        }
        out.push(case);
    }
    out
}

/// The overflow guards every closed form shares: the forms multiply loop
/// extents and sum one term per reference, so the iteration volume times
/// the widest group stays well inside `i64`, and subscript coefficients
/// and offsets stay small enough that dependence-distance arithmetic is
/// exact. (The separable and Example-6 forms also check the value ranges
/// they multiply; see [`nonuniform::single_function_count`].)
fn closed_forms_fit(groups: &[UniformGroup], ranges: &[(i64, i64)]) -> bool {
    let volume: i128 = ranges.iter().fold(1i128, |acc, &(lo, hi)| {
        acc.saturating_mul((i128::from(hi) - i128::from(lo) + 1).max(0))
    });
    let widest = groups.iter().map(|g| g.len() as i128).max().unwrap_or(1);
    let small = |v: i64| v.abs() <= 1 << 31;
    volume.saturating_mul(widest + 1) < 1 << 62
        && groups.iter().all(|g| {
            (0..g.matrix.nrows()).all(|r| g.matrix.row(r).iter().copied().all(small))
                && g.members
                    .iter()
                    .all(|(_, o, _)| o.iter().copied().all(small))
        })
}

/// Decides which closed form applies to one array's groups over the
/// rectangular `ranges`, records its evidence in `case`, and evaluates it.
fn closed_form(
    case: &mut Case,
    groups: &[&UniformGroup],
    ranges: &[(i64, i64)],
    depth: usize,
    union: bool,
) -> Option<DistinctEstimate> {
    let [g] = groups else {
        // Several access matrices: Example-6 value-range bounds, which
        // need one-dimensional subscripts.
        if groups.iter().any(|g| g.matrix.nrows() != 1) {
            return None;
        }
        return nonuniform::estimate_groups(groups, ranges);
    };
    let extents: Vec<i64> = ranges
        .iter()
        .map(|&(lo, hi)| (hi - lo + 1).max(0))
        .collect();
    let iterations: i64 = extents.iter().product();
    if case.rank == depth {
        if union && g.len() > 1 {
            if let Some(e) = crate::union_count::exact_union_count(g, ranges) {
                return Some(e);
            }
        }
        // §3.1: sum the reuse each reference's dependence to the sink claims.
        case.sink_distances = sink_distances(g)?;
        let reuse: i64 = case
            .sink_distances
            .iter()
            .map(|d| reuse_volume(&extents, d))
            .sum();
        return Some(DistinctEstimate::exact(
            g.len() as i64 * iterations - reuse,
            Method::FullRankFormula,
        ));
    }
    // References with identical offsets touch identical elements, so only
    // the distinct offsets matter (this covers accumulation statements
    // like `C[i][j] = C[i][j] + ...`). Several distinct offsets to a
    // rank-deficient access is the case the paper omits ("multiple
    // references ... not discussed for lack of space").
    let mut offsets: Vec<&Vec<i64>> = g.members.iter().map(|(_, o, _)| o).collect();
    offsets.sort();
    offsets.dedup();
    if offsets.len() > 1 {
        return None;
    }
    if let [v] = case.kernel.as_slice() {
        // §3.2: reuse along the null-space vector.
        return Some(DistinctEstimate::exact(
            iterations - reuse_volume(&extents, v),
            Method::NullspaceFormula,
        ));
    }
    // Kernel of dimension ≥ 2: when no loop variable feeds two subscript
    // rows (motion estimation's `R[8cy + py][8cx + px]`), the image is a
    // Cartesian product and the count is the product of per-row counts.
    let (d, n) = (g.matrix.nrows(), g.matrix.ncols());
    if (0..n).any(|col| (0..d).filter(|&row| g.matrix[(row, col)] != 0).count() > 1) {
        return None;
    }
    let mut product: i64 = 1;
    for row in 0..d {
        let count = nonuniform::single_function_count(g.matrix.row(row), ranges)?;
        product = product.checked_mul(count)?;
    }
    Some(DistinctEstimate::exact(product, Method::SeparableProduct))
}

/// §3.1 evidence: solves `A·δ = c_other − c_sink` for each non-sink
/// reference. The sink is the member whose incoming distances are all
/// lexicographically non-negative (it exists for uniformly generated
/// groups; ties collapse to equal offsets); `None` when no member
/// qualifies.
fn sink_distances(g: &UniformGroup) -> Option<Vec<Vec<i64>>> {
    let offsets: Vec<&Vec<i64>> = g.members.iter().map(|(_, o, _)| o).collect();
    let r = offsets.len();
    // Distance from member `a` toward member `b`: A·δ = c_a − c_b.
    let dist = |a: usize, b: usize| -> Option<Vec<i64>> {
        let rhs: Vec<i64> = offsets[a]
            .iter()
            .zip(offsets[b])
            .map(|(&x, &y)| x - y)
            .collect();
        solve_diophantine(&g.matrix, &rhs).map(|s| s.particular)
    };
    // Pick the sink: all incoming distances lex-positive or zero.
    let sink = (0..r).find(|&s| {
        (0..r).filter(|&o| o != s).all(|o| {
            dist(o, s)
                .map(|d| lex_positive(&d) || d.iter().all(|&x| x == 0))
                .unwrap_or(true) // no integer distance = no constraint
        })
    })?;
    Some(
        (0..r)
            .filter(|&o| o != sink)
            .filter_map(|o| dist(o, sink))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::parse;

    /// The estimate of the nest's first array, which must have one.
    fn first_estimate(nest: &LoopNest) -> DistinctEstimate {
        estimate_distinct(nest)[&ArrayId(0)]
    }

    #[test]
    fn reuse_volume_examples() {
        // Example 1(a)/(b): (10−3)(10−2) = 56 for dependence (3, 2).
        assert_eq!(reuse_volume(&[10, 10], &[3, 2]), 56);
        assert_eq!(reuse_volume(&[10, 10], &[-3, 2]), 56); // signs ignored
        assert_eq!(reuse_volume(&[10, 10], &[11, 0]), 0); // out of range
    }

    #[test]
    fn example2_exact() {
        // A_d = 2·N1·N2 − (N1−1)(N2−2).
        let nest = parse(
            "array A[30][30]\nfor i = 1 to 25 { for j = 1 to 20 { A[i][j] = A[i-1][j+2]; } }",
        )
        .unwrap();
        let e = first_estimate(&nest);
        assert_eq!(e.method, Method::FullRankFormula);
        assert_eq!(e.value(), Some(2 * 500 - 24 * 18));
        // Cross-check against enumeration (r = 2 is exact).
        assert_eq!(
            e.value().unwrap() as u64,
            loopmem_poly::count::distinct_accesses_for(&nest, ArrayId(0))
        );
    }

    #[test]
    fn example3_reproduces_papers_139() {
        let nest = parse(
            "array A[11][11]\n\
             for i = 1 to 10 { for j = 1 to 10 {\n\
               A[i][j] = A[i-1][j] + A[i][j-1] + A[i-1][j-1];\n\
             } }",
        )
        .unwrap();
        let e = first_estimate(&nest);
        assert_eq!(e.method, Method::FullRankFormula);
        // reuse = 90 + 90 + 81 = 261; A_d = 400 − 261 = 139 (the paper's
        // number; the true union is 121 — see DESIGN.md).
        assert_eq!(e.value(), Some(139));
    }

    #[test]
    fn example4_exact_80() {
        let nest =
            parse("array A[111]\nfor i = 1 to 20 { for j = 1 to 10 { A[2i + 5j + 1]; } }").unwrap();
        let e = first_estimate(&nest);
        assert_eq!(e.method, Method::NullspaceFormula);
        assert_eq!(e.value(), Some(80));
    }

    #[test]
    fn example5_exact_1869() {
        let nest = parse(
            "array A[61][51]\n\
             for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
        )
        .unwrap();
        let e = first_estimate(&nest);
        assert_eq!(e.method, Method::NullspaceFormula);
        assert_eq!(e.value(), Some(1869));
    }

    #[test]
    fn example6_bounds() {
        let nest = parse(
            "array A[200]\n\
             for i = 1 to 20 { for j = 1 to 20 { A[3i + 7j - 10] = A[4i - 3j + 60]; } }",
        )
        .unwrap();
        let e = first_estimate(&nest);
        assert_eq!(e.method, Method::NonUniformBounds);
        assert_eq!(e.lower, 179); // the paper's lower bound
        assert_eq!(e.upper, 191); // the paper's upper bound
                                  // Exact count (182) sits inside.
        let exact = loopmem_poly::count::distinct_accesses_for(&nest, ArrayId(0)) as i64;
        assert!(e.lower <= exact && exact <= e.upper);
    }

    #[test]
    fn single_full_rank_reference_counts_iterations() {
        let nest =
            parse("array A[10][20]\nfor i = 1 to 10 { for j = 1 to 20 { A[i][j]; } }").unwrap();
        let e = first_estimate(&nest);
        assert_eq!(e.value(), Some(200));
        assert_eq!(e.method, Method::FullRankFormula);
    }

    #[test]
    fn pairs_without_integer_distance_contribute_no_reuse() {
        // A[2i][j] and A[2i+1][j]: disjoint parity classes, distinct
        // accesses are simply 2·N1·N2.
        let nest = parse(
            "array A[25][12]\nfor i = 1 to 10 { for j = 1 to 10 { A[2i][j] = A[2i+1][j]; } }",
        )
        .unwrap();
        let e = first_estimate(&nest);
        assert_eq!(e.value(), Some(200));
        assert_eq!(
            loopmem_poly::count::distinct_accesses_for(&nest, ArrayId(0)),
            200
        );
    }

    #[test]
    fn transformed_nest_falls_back_to_enumeration() {
        // No closed form covers a triangular nest; the exact count comes
        // from the simulation, which analyze_memory reports as Enumerated.
        let nest =
            parse("array A[10][10]\nfor i = 1 to 10 { for j = i to 10 { A[i][j]; } }").unwrap();
        assert!(estimate_distinct(&nest).is_empty());
        assert!(estimate_distinct_exact(&nest).is_empty());
        let e = crate::analyze_memory(&nest).unwrap().distinct[&ArrayId(0)];
        assert_eq!(e.method, Method::Enumerated);
        assert_eq!(e.value(), Some(55));
    }

    #[test]
    fn rank_deficient_multi_ref_enumerates() {
        // Example 8's X: two offsets to a rank-deficient access, the case
        // the paper omits; the simulation counts it exactly.
        let nest = parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap();
        assert!(estimate_distinct(&nest).is_empty());
        let e = crate::analyze_memory(&nest).unwrap().distinct[&ArrayId(0)];
        assert_eq!(e.method, Method::Enumerated);
        assert_eq!(
            e.value(),
            Some(loopmem_poly::count::distinct_accesses_for(&nest, ArrayId(0)) as i64)
        );
    }

    #[test]
    fn separable_product_on_motion_estimation_reference() {
        // R[8cy + py][8cx + px]: rows over disjoint variable pairs.
        let nest = parse(
            "array R[40][40]\n\
             for cy = 1 to 3 { for cx = 1 to 3 { for py = 1 to 16 { for px = 1 to 16 {\n\
               R[8*cy + py][8*cx + px];\n\
             } } } }",
        )
        .unwrap();
        let e = first_estimate(&nest);
        assert_eq!(e.method, Method::SeparableProduct);
        assert_eq!(e.value(), Some(32 * 32));
        assert_eq!(
            loopmem_poly::count::distinct_accesses_for(&nest, ArrayId(0)),
            1024
        );
    }

    #[test]
    fn separable_product_rejected_when_rows_share_variables() {
        // A[3i + k][j + k]: both rows read k — not separable, and the
        // kernel is 1-dimensional so the §3.2 formula applies instead.
        let nest = parse(
            "array A[61][51]\n\
             for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
        )
        .unwrap();
        assert_eq!(first_estimate(&nest).method, Method::NullspaceFormula);
    }

    #[test]
    fn accumulator_array_uses_separable_product() {
        // S[cy][cx] written and read with identical subscripts in a 4-deep
        // nest: offsets dedup, kernel dimension 2, rows separable.
        let nest = parse(
            "array S[3][3]\n\
             for cy = 1 to 3 { for cx = 1 to 3 { for py = 1 to 4 { for px = 1 to 4 {\n\
               S[cy][cx] = S[cy][cx] + 1;\n\
             } } } }",
        )
        .unwrap();
        let e = first_estimate(&nest);
        assert_eq!(e.method, Method::SeparableProduct);
        assert_eq!(e.value(), Some(9));
    }

    #[test]
    fn unreferenced_arrays_are_skipped() {
        let nest = parse("array A[10]\narray B[10]\nfor i = 1 to 10 { A[i]; }").unwrap();
        let all = estimate_distinct(&nest);
        assert!(all.contains_key(&ArrayId(0)));
        assert!(!all.contains_key(&ArrayId(1)));
    }
}
