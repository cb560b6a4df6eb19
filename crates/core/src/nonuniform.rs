//! Bounds for non-uniformly generated references (§3.2, Example 6).
//!
//! With different access matrices, reference pairs have direction — not
//! distance — dependences, so the reuse formulas do not apply. For
//! one-dimensional affine access functions the paper bounds the distinct
//! count from the value ranges:
//!
//! * **upper bound** — the union of the ranges can cover at most
//!   `UB_max − LB_min + 1` values;
//! * **lower bound** — a single function `p·i + q·j + c` with coprime
//!   coefficients over a (large enough) box misses exactly `(p−1)(q−1)`
//!   values inside its span (Frobenius-gap structure), so it alone
//!   contributes `span + 1 − (p−1)(q−1)` distinct values; the union is at
//!   least the largest single-function count.
//!
//! Example 6 reproduces exactly: `179 ≤ actual ≤ 191`.

use crate::distinct::{DistinctEstimate, Method};
use loopmem_dep::uniform::UniformGroup;
use loopmem_linalg::gcd::gcd_slice;

/// Value range `(min, max)` of `Σ p_k x_k + c` over the box `ranges`, or
/// `None` when it leaves `±2⁶¹`, where the spans and gap counts built from
/// it could overflow `i64`.
fn value_range(coeffs: &[i64], constant: i64, ranges: &[(i64, i64)]) -> Option<(i64, i64)> {
    let mut lo = i128::from(constant);
    let mut hi = lo;
    for (&p, &(a, b)) in coeffs.iter().zip(ranges) {
        let (p, a, b) = (i128::from(p), i128::from(a), i128::from(b));
        if p >= 0 {
            lo += p * a;
            hi += p * b;
        } else {
            lo += p * b;
            hi += p * a;
        }
    }
    let limit = 1i128 << 61;
    (-limit <= lo && hi <= limit).then_some((lo as i64, hi as i64))
}

/// Exact distinct-value count of one affine function over a box, valid
/// when every extent exceeds the magnitude of the complementary
/// coefficient (the regime of all the paper's kernels). Returns `None`
/// when the closed form does not apply (more than two non-zero
/// coefficients with gaps, degenerate boxes, extents too small, or values
/// too large for exact `i64` arithmetic).
pub fn single_function_count(coeffs: &[i64], ranges: &[(i64, i64)]) -> Option<i64> {
    let g = gcd_slice(coeffs);
    if g == 0 {
        return Some(1); // constant function
    }
    // Distinct values are invariant under dividing by the content.
    let reduced: Vec<i64> = coeffs.iter().map(|&p| p / g).collect();
    let (lo, hi) = value_range(&reduced, 0, ranges)?;
    let span = hi - lo;
    let nz: Vec<(i64, i64)> = reduced
        .iter()
        .zip(ranges)
        .filter(|(&p, _)| p != 0)
        .map(|(&p, &(a, b))| (p.abs(), b - a + 1))
        .collect();
    match nz.as_slice() {
        [] => Some(1),
        [(_, n)] => Some(*n),
        [(p, n1), (q, n2)] => {
            // Gap count (p−1)(q−1) holds once each extent can bridge the
            // other coefficient's stride.
            if *n1 > *q && *n2 > *p {
                Some(span + 1 - (p - 1) * (q - 1))
            } else {
                None
            }
        }
        _ => {
            // Three or more free strides: the image is dense inside its
            // span when the extents dominate the coefficients.
            let max_coeff = nz.iter().map(|(p, _)| *p).max().expect("non-empty");
            let min_extent = nz.iter().map(|(_, n)| *n).min().expect("non-empty");
            (min_extent > max_coeff).then_some(span + 1)
        }
    }
}

/// §3.2 bounds for several uniformly generated groups referencing the same
/// array through one-dimensional subscripts (the caller checks that).
/// Returns `None` when a single-function count is unavailable at these
/// extents.
pub(crate) fn estimate_groups(
    groups: &[&UniformGroup],
    ranges: &[(i64, i64)],
) -> Option<DistinctEstimate> {
    let mut union_lo = i64::MAX;
    let mut union_hi = i64::MIN;
    let mut best_single = 0i64;
    for g in groups {
        let coeffs = g.matrix.row(0);
        for (_, offset, _) in &g.members {
            let (lo, hi) = value_range(coeffs, offset[0], ranges)?;
            union_lo = union_lo.min(lo);
            union_hi = union_hi.max(hi);
        }
        best_single = best_single.max(single_function_count(coeffs, ranges)?);
    }
    let upper = union_hi - union_lo + 1;
    let lower = best_single.min(upper);
    Some(DistinctEstimate {
        lower,
        upper,
        method: Method::NonUniformBounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_dep::uniform::uniform_groups;
    use loopmem_ir::parse;

    #[test]
    fn single_function_counts_match_brute_force() {
        // f = 3i + 7j over 20×20: span 0..=180 relative, 179 values.
        assert_eq!(
            single_function_count(&[3, 7], &[(1, 20), (1, 20)]),
            Some(3 * 19 + 7 * 19 + 1 - 12)
        );
        // f = 4i − 3j: (4−1)(3−1) = 6 gaps.
        assert_eq!(
            single_function_count(&[4, -3], &[(1, 20), (1, 20)]),
            Some(4 * 19 + 3 * 19 + 1 - 6)
        );
        // Single variable: one value per iteration of that loop.
        assert_eq!(single_function_count(&[0, 5], &[(1, 20), (1, 8)]), Some(8));
        // Content > 1 reduces: 4i + 10j ~ 2i + 5j.
        assert_eq!(
            single_function_count(&[4, 10], &[(1, 20), (1, 10)]),
            single_function_count(&[2, 5], &[(1, 20), (1, 10)]),
        );
        // Constant function.
        assert_eq!(single_function_count(&[0, 0], &[(1, 5), (1, 5)]), Some(1));
    }

    #[test]
    fn single_function_brute_force_sweep() {
        // Validate the closed form against enumeration for a grid of
        // coefficient pairs.
        for p in 1..=5i64 {
            for q in 1..=5i64 {
                for (s1, s2) in [(1i64, 1i64), (1, -1), (-1, 1)] {
                    let coeffs = [s1 * p, s2 * q];
                    let ranges = [(1, 12), (1, 12)];
                    let Some(predicted) = single_function_count(&coeffs, &ranges) else {
                        continue;
                    };
                    let mut vals = std::collections::HashSet::new();
                    for i in 1..=12 {
                        for j in 1..=12 {
                            vals.insert(coeffs[0] * i + coeffs[1] * j);
                        }
                    }
                    assert_eq!(
                        predicted,
                        vals.len() as i64,
                        "mismatch for coeffs {coeffs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn example6_bounds_match_paper() {
        let nest = parse(
            "array A[200]\n\
             for i = 1 to 20 { for j = 1 to 20 { A[3i + 7j - 10] = A[4i - 3j + 60]; } }",
        )
        .unwrap();
        let groups = uniform_groups(&nest);
        let refs: Vec<&UniformGroup> = groups.iter().collect();
        let e = estimate_groups(&refs, &[(1, 20), (1, 20)]).unwrap();
        assert_eq!(e.lower, 179);
        assert_eq!(e.upper, 191);
    }

    #[test]
    fn three_variable_dense_case() {
        // i + j + k over 6³: dense span.
        let c = single_function_count(&[1, 1, 1], &[(1, 6), (1, 6), (1, 6)]);
        assert_eq!(c, Some(16)); // values 3..=18
    }

    #[test]
    fn too_small_extents_refuse_closed_form() {
        // 5i + 7j over 3×3: extents cannot bridge the strides.
        assert_eq!(single_function_count(&[5, 7], &[(1, 3), (1, 3)]), None);
    }

    #[test]
    fn multidimensional_groups_are_rejected() {
        // Example-6 bounds need one-dimensional subscripts: a transpose's
        // two groups get no estimate.
        let nest = parse(
            "array A[10][10]\n\
             for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[j][i]; } }",
        )
        .unwrap();
        assert!(crate::estimate_distinct(&nest).is_empty());
    }

    #[test]
    fn values_beyond_exact_arithmetic_refuse_closed_form() {
        let near_max = (1i64 << 62, (1i64 << 62) + 9);
        assert_eq!(single_function_count(&[1, 2], &[near_max, (1, 9)]), None);
        assert_eq!(single_function_count(&[1, 2], &[(1, 9), (1, 9)]), Some(25));
    }
}
