//! Maximum-window-size closed forms (§2.3, §4.1–§4.3).
//!
//! The reference window of an array at iteration `I` holds every element
//! already touched that will be touched again; its peak size (MWS) is the
//! minimum buffer that captures all reuse on-chip. `loopmem-sim` measures
//! MWS exactly; this module provides the paper's *closed forms*, which are
//! what the optimizer can afford to evaluate inside its search loop:
//!
//! * [`two_level_estimate`] — eq. (2): a 2-deep nest with uniformly
//!   generated references `α₁·i + α₂·j + c` under a transformation whose
//!   leading row is `(a, b)`;
//! * [`two_level_objective`] — the same quantity without the floor, the
//!   continuous objective minimized by §4.2's branch and bound
//!   (its value at `a=2, b=3` is the paper's 22, vs. the exact 21);
//! * [`three_level_estimate`] — §4.3: a 3-deep nest from the reuse
//!   (null-space) vector (Example 10's 540);
//! * [`lex_delay_estimate`] — our documented generalization for full-rank
//!   accesses: the number of iterations separating dependent iterations.

use loopmem_linalg::Rational;

/// Maximum trip count of the inner loop after a transformation with
/// leading row `(a, b)` over an `N₁ × N₂` rectangular nest (`maxspan`,
/// §4.1): the inner loop walks the lattice direction `(b, −a)`, so its
/// span is limited by whichever axis it exhausts first.
///
/// Returns the floored integer count. `(0, 0)` is rejected.
///
/// # Panics
///
/// Panics if `a == 0 && b == 0` or extents are not positive.
pub fn maxspan(row: (i64, i64), n: (i64, i64)) -> i64 {
    let (a, b) = row;
    let (n1, n2) = n;
    assert!(a != 0 || b != 0, "zero leading row");
    assert!(n1 > 0 && n2 > 0, "extents must be positive");
    let s1 = if b != 0 {
        Some((n1 - 1) / b.abs())
    } else {
        None
    };
    let s2 = if a != 0 {
        Some((n2 - 1) / a.abs())
    } else {
        None
    };
    match (s1, s2) {
        (Some(x), Some(y)) => x.min(y) + 1,
        (Some(x), None) => x + 1,
        (None, Some(y)) => y + 1,
        (None, None) => unreachable!("row is non-zero"),
    }
}

/// Rational (un-floored) maxspan, for the optimizer's objective.
pub fn maxspan_rational(row: (i64, i64), n: (i64, i64)) -> Rational {
    let (a, b) = row;
    let (n1, n2) = n;
    assert!(a != 0 || b != 0, "zero leading row");
    let s1 = (b != 0).then(|| Rational::new((n1 - 1) as i128, b.unsigned_abs() as i128));
    let s2 = (a != 0).then(|| Rational::new((n2 - 1) as i128, a.unsigned_abs() as i128));
    let s = match (s1, s2) {
        (Some(x), Some(y)) => x.min(y),
        (Some(x), None) => x,
        (None, Some(y)) => y,
        (None, None) => unreachable!(),
    };
    s + Rational::ONE
}

/// Eq. (2): estimated MWS of a 2-deep nest with uniformly generated
/// references `α₁·i + α₂·j + c_k` under a unimodular transformation with
/// leading row `(a, b)`:
/// `MWS ≈ maxspan · |α₂·a − α₁·b|`.
///
/// When `α₂·a − α₁·b = 0` the outer loop tracks the access function and
/// every inner iteration revisits one element: the window collapses to 1
/// (Example 7's compound transformation).
///
/// ```
/// // Example 8's original loop (identity transformation): 10·5 = 50.
/// assert_eq!(loopmem_core::two_level_estimate((2, 5), (1, 0), (25, 10)), 50);
/// // §4.2's optimum (a,b) = (2,3): 5·4 = 20 (exact value is 21).
/// assert_eq!(loopmem_core::two_level_estimate((2, 5), (2, 3), (25, 10)), 20);
/// ```
pub fn two_level_estimate(alpha: (i64, i64), row: (i64, i64), n: (i64, i64)) -> i64 {
    let w = weight(alpha, row);
    if w == 0 {
        return 1;
    }
    maxspan(row, n).saturating_mul(w)
}

/// Eq. (2)'s weight `|α₂·a − α₁·b|`, saturated at `i64::MAX`.
fn weight(alpha: (i64, i64), row: (i64, i64)) -> i64 {
    let w = i128::from(alpha.1) * i128::from(row.0) - i128::from(alpha.0) * i128::from(row.1);
    i64::try_from(w.unsigned_abs()).unwrap_or(i64::MAX)
}

/// The continuous variant of [`two_level_estimate`] — §4.2's
/// branch-and-bound objective. At `α = (2,5)`, `row = (2,3)`,
/// `n = (25,10)` it evaluates to the paper's 22.
pub fn two_level_objective(alpha: (i64, i64), row: (i64, i64), n: (i64, i64)) -> Rational {
    let w = weight(alpha, row);
    if w == 0 {
        return Rational::ONE;
    }
    maxspan_rational(row, n) * Rational::from(w)
}

/// §4.3: estimated MWS of a 3-deep rectangular nest whose array reuses
/// along the (lexicographically positive) vector `d = (d₁, d₂, d₃)`:
///
/// * `d₂ ≤ 0`: `d₁(N₂−|d₂|)(N₃−|d₃|) + 1`
/// * `d₂ > 0`: `d₁(N₂−|d₂|)(N₃−|d₃|) + d₂(N₃−|d₃|)`
///
/// Example 10 (`d = (1,3,±3)`, `N = (10,20,30)`) yields the paper's 540.
///
/// # Panics
///
/// Panics if `d₁ < 0` (normalize reuse vectors lex-positive first).
pub fn three_level_estimate(d: (i64, i64, i64), n: (i64, i64, i64)) -> i64 {
    let (d1, d2, d3) = d;
    assert!(d1 >= 0, "reuse vector must be lexicographically positive");
    let (_, n2, n3) = n;
    let base = d1 * (n2 - d2.abs()).max(0) * (n3 - d3.abs()).max(0);
    if d2 <= 0 {
        base + 1
    } else {
        base + d2 * (n3 - d3.abs()).max(0)
    }
}

/// Our generalization for full-rank (`d = n`) accesses, documented in
/// DESIGN.md: a dependence of distance `δ` keeps its element live for the
/// number of iterations executed between source and sink,
/// `Σ_k δ_k · Π_{j>k} N_j`, so the window is at most one element per
/// intervening iteration (each iteration introduces at most one new live
/// element per uniformly generated group). The estimate is the maximum
/// over the dependence distances, plus the element entering at the sink.
pub fn lex_delay_estimate(distances: &[Vec<i64>], extents: &[i64]) -> i64 {
    distances
        .iter()
        .map(|d| lex_delay(d, extents))
        .fold(0, i64::max)
        .saturating_add(1)
}

/// Iterations a lexicographic sweep of a box with these `extents` takes
/// to cover distance `d`: `Σ_k |d_k| · Π_{j>k} N_j`, saturating.
pub(crate) fn lex_delay(d: &[i64], extents: &[i64]) -> i64 {
    assert_eq!(d.len(), extents.len(), "arity mismatch");
    let (mut delay, mut inner) = (0i64, 1i64);
    for k in (0..d.len()).rev() {
        delay = delay.saturating_add(d[k].saturating_abs().saturating_mul(inner));
        inner = inner.saturating_mul(extents[k]);
    }
    delay
}

/// Closed-form MWS estimate for a whole rectangular nest, without
/// simulation (the per-group §2.3 sum): eq. (2) at the identity
/// transformation for 2-deep 1-D uniformly generated groups, the §4.3
/// formula for 3-deep rank-deficient groups, and the lexicographic-delay
/// bound for everything else. Returns `None` for non-rectangular nests.
///
/// This is the cheap counterpart of the simulated `mws_total` — an
/// estimate, not a bound (it can fall below the exact MWS, e.g. on
/// `rasta_flt` or a transpose), used for quick sizing and by the
/// optimizer's candidate ranking.
pub fn estimate_nest_mws(nest: &loopmem_ir::LoopNest) -> Option<i64> {
    use loopmem_dep::uniform::uniform_groups;
    use loopmem_linalg::integer_nullspace;
    let ranges = nest.rectangular_ranges()?;
    if ranges.iter().any(|&(lo, hi)| hi < lo) {
        return Some(0); // an empty box touches nothing
    }
    let extents: Vec<i64> = ranges.iter().map(|&(lo, hi)| hi - lo + 1).collect();
    let n = nest.depth();
    let deps = loopmem_dep::analyze(nest);
    let mut total = 0i64;
    for g in uniform_groups(nest) {
        if n == 2 && g.matrix.nrows() == 1 {
            let alpha = (g.matrix[(0, 0)], g.matrix[(0, 1)]);
            total += two_level_estimate(alpha, (1, 0), (extents[0], extents[1]));
            continue;
        }
        let kernel = integer_nullspace(&g.matrix);
        if n == 3 && kernel.len() == 1 && g.len() == 1 {
            let v = loopmem_dep::vectors::make_lex_positive(&kernel[0]);
            total += three_level_estimate((v[0], v[1], v[2]), (extents[0], extents[1], extents[2]));
            continue;
        }
        let distances: Vec<Vec<i64>> = deps
            .iter()
            .filter(|d| d.array == g.array)
            .map(|d| d.distance.clone())
            .collect();
        if !distances.is_empty() {
            total += lex_delay_estimate(&distances, &extents);
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::parse;

    fn simulate(nest: &loopmem_ir::LoopNest) -> loopmem_sim::SimResult {
        crate::Session::new().simulate(nest).unwrap()
    }

    #[test]
    fn maxspan_identity_rows() {
        // Row (1,0): inner loop is the original j loop => span N2.
        assert_eq!(maxspan((1, 0), (20, 30)), 30);
        // Row (0,1): interchange => span N1.
        assert_eq!(maxspan((0, 1), (20, 30)), 20);
    }

    #[test]
    fn maxspan_skewed_row() {
        // Row (2,3) over 25×10: min(24/3, 9/2) + 1 = min(8,4)+1 = 5.
        assert_eq!(maxspan((2, 3), (25, 10)), 5);
        assert_eq!(
            maxspan_rational((2, 3), (25, 10)),
            loopmem_linalg::Rational::new(11, 2)
        );
    }

    #[test]
    fn paper_4_2_objective_is_22() {
        let obj = two_level_objective((2, 5), (2, 3), (25, 10));
        assert_eq!(obj, loopmem_linalg::Rational::from(22));
    }

    #[test]
    fn example7_estimates() {
        let alpha = (2, -3);
        let n = (20, 30);
        // Original: row (1,0): 30·3 = 90 (Eisenbeis reports 89; exact 86).
        assert_eq!(two_level_estimate(alpha, (1, 0), n), 90);
        // Interchange: row (0,1): 20·2 = 40 (paper 41; exact 37).
        assert_eq!(two_level_estimate(alpha, (0, 1), n), 40);
        // Compound with leading row parallel to alpha: window collapses.
        assert_eq!(two_level_estimate(alpha, (2, -3), n), 1);
    }

    #[test]
    fn example10_is_540() {
        assert_eq!(three_level_estimate((1, 3, 3), (10, 20, 30)), 540);
        assert_eq!(three_level_estimate((1, 3, -3), (10, 20, 30)), 540);
    }

    #[test]
    fn three_level_nonpositive_d2_gets_plus_one() {
        // d = (1, 0, 2) over (10, 20, 30): 1·20·28 + 1 = 561.
        assert_eq!(three_level_estimate((1, 0, 2), (10, 20, 30)), 561);
        // Innermost-only reuse: d = (0,0,1): window of 1 element.
        assert_eq!(three_level_estimate((0, 0, 1), (10, 20, 30)), 1);
    }

    #[test]
    fn lex_delay_for_stencils() {
        // A[i][j] = A[i-1][j] over 16×16: distance (1,0) => 16 iterations
        // between def and use, window ≈ 17 (simulator: 16..17).
        assert_eq!(lex_delay_estimate(&[vec![1, 0]], &[16, 16]), 17);
        // Distance (0,1): immediate reuse, window 2.
        assert_eq!(lex_delay_estimate(&[vec![0, 1]], &[16, 16]), 2);
        // Maximum over several distances.
        assert_eq!(lex_delay_estimate(&[vec![0, 1], vec![1, 1]], &[16, 16]), 18);
    }

    #[test]
    #[should_panic(expected = "zero leading row")]
    fn zero_row_panics() {
        maxspan((0, 0), (10, 10));
    }

    #[test]
    fn nest_level_estimate_covers_the_paper_examples() {
        // Example 8 original order: eq. (2) gives 50.
        let e8 = parse(
            "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap();
        // One uniformly generated group -> a single eq.(2) term of 50.
        assert_eq!(estimate_nest_mws(&e8), Some(50));
    }

    #[test]
    fn nest_level_estimate_example10_is_540() {
        let e10 = parse(
            "array A[61][51]\n\
             for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
        )
        .unwrap();
        assert_eq!(estimate_nest_mws(&e10), Some(540));
    }

    #[test]
    fn nest_level_estimate_upper_bounds_simulation() {
        for src in [
            "array A[66][66]\nfor i = 2 to 64 { for j = 1 to 64 { A[i][j] = A[i-1][j] + A[i][j]; } }",
            "array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }",
        ] {
            let nest = parse(src).unwrap();
            let est = estimate_nest_mws(&nest).unwrap();
            let exact = simulate(&nest).mws_total as i64;
            assert!(exact <= est + 1, "{src}: exact {exact} vs est {est}");
        }
    }

    #[test]
    fn non_rectangular_returns_none() {
        let tri =
            parse("array A[10][10]\nfor i = 1 to 10 { for j = i to 10 { A[i][j]; } }").unwrap();
        assert_eq!(estimate_nest_mws(&tri), None);
    }
}
