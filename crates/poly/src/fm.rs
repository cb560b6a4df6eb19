//! Fourier–Motzkin elimination.
//!
//! Eliminating variable `k` from `{L: a·x + c ≥ 0, a_k > 0}` (lower bounds)
//! and `{U: b·x + d ≥ 0, b_k < 0}` (upper bounds) produces one combined
//! constraint per (L, U) pair: `a_k·U + (−b_k)·L`. The result is the exact
//! rational shadow; integer holes are handled downstream by re-checking
//! enumerated points against the original system.

use crate::constraint::{Constraint, Polyhedron};

/// Eliminates variable `k`, returning the shadow polyhedron (same arity;
/// the eliminated variable simply no longer appears in any constraint).
///
/// # Panics
///
/// Panics if `k` is out of range, or if a combined coefficient leaves
/// `i64` (see [`try_eliminate`] for the checked form).
pub fn eliminate(p: &Polyhedron, k: usize) -> Polyhedron {
    try_eliminate(p, k, usize::MAX).expect("fourier-motzkin overflow")
}

/// [`eliminate`] for callers that must not panic: `None` when a combined
/// coefficient or constant leaves `i64`, or when the shadow would hold
/// more than `cap` constraints. The cap is checked before any pair is
/// combined (against the count before deduplication), so it bounds the
/// work as well as the result.
///
/// # Panics
///
/// Panics if `k` is out of range.
pub fn try_eliminate(p: &Polyhedron, k: usize, cap: usize) -> Option<Polyhedron> {
    assert!(k < p.nvars(), "variable index out of range");
    let mut lowers = Vec::new();
    let mut uppers = Vec::new();
    let mut rest = Vec::new();
    for c in p.constraints() {
        match c.coeffs[k].cmp(&0) {
            std::cmp::Ordering::Greater => lowers.push(c),
            std::cmp::Ordering::Less => uppers.push(c),
            std::cmp::Ordering::Equal => rest.push(c),
        }
    }
    if lowers
        .len()
        .saturating_mul(uppers.len())
        .saturating_add(rest.len())
        > cap
    {
        return None;
    }
    let mut out = Polyhedron::universe(p.nvars());
    for c in rest {
        out.add(c.clone());
    }
    for l in &lowers {
        for u in &uppers {
            let a = l.coeffs[k] as i128; // > 0
            let b = -(u.coeffs[k] as i128); // > 0
            let coeffs = l
                .coeffs
                .iter()
                .zip(&u.coeffs)
                .map(|(&lc, &uc)| combine(b, lc, a, uc))
                .collect::<Option<Vec<i64>>>()?;
            let constant = combine(b, l.constant, a, u.constant)?;
            debug_assert_eq!(coeffs[k], 0);
            out.add(Constraint::new(coeffs, constant));
        }
    }
    Some(out)
}

/// `b·lc + a·uc` in `i64`, or `None` when it does not fit. The products
/// are below 2¹²⁶ in magnitude, so the `i128` sum is exact.
fn combine(b: i128, lc: i64, a: i128, uc: i64) -> Option<i64> {
    (b * lc as i128 + a * uc as i128).try_into().ok()
}

/// Eliminates every variable with index `>= keep`, leaving constraints over
/// the `keep`-variable prefix only. Eliminating innermost-first keeps the
/// intermediate systems small and matches loop-bound generation order.
pub fn project_prefix(p: &Polyhedron, keep: usize) -> Polyhedron {
    let mut out = p.clone();
    for k in (keep..p.nvars()).rev() {
        out = eliminate(&out, k);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> Polyhedron {
        // i in 1..=10, j in i..=10.
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::new(vec![1, 0], -1));
        p.add(Constraint::new(vec![-1, 0], 10));
        p.add(Constraint::new(vec![-1, 1], 0)); // j >= i
        p.add(Constraint::new(vec![0, -1], 10));
        p
    }

    #[test]
    fn eliminate_inner_of_triangle() {
        let shadow = eliminate(&tri(), 1);
        // Shadow on i: 1 <= i <= 10 (j's existence needs i <= 10, implied).
        assert!(shadow.constraints().iter().all(|c| c.coeffs[1] == 0));
        assert!(shadow.contains(&[1, 999]));
        assert!(shadow.contains(&[10, -5]));
        assert!(!shadow.contains(&[11, 0]));
        assert!(!shadow.contains(&[0, 0]));
    }

    #[test]
    fn shadow_is_projection_for_boxes() {
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::new(vec![1, 0], -2));
        p.add(Constraint::new(vec![-1, 0], 7));
        p.add(Constraint::new(vec![0, 1], 4));
        p.add(Constraint::new(vec![0, -1], 9));
        let s = eliminate(&p, 0);
        // j constraints survive untouched; i constraints vanish pairwise.
        assert!(s.contains(&[0, 0]));
        assert!(!s.contains(&[0, -5]));
        assert!(!s.contains(&[0, 10]));
    }

    #[test]
    fn skewed_projection() {
        // u = i + j with i,j in 1..=3: u ranges over 2..=6.
        // Variables: (u, i); j = u - i gives 1 <= u - i <= 3, 1 <= i <= 3.
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::new(vec![0, 1], -1));
        p.add(Constraint::new(vec![0, -1], 3));
        p.add(Constraint::new(vec![1, -1], -1));
        p.add(Constraint::new(vec![-1, 1], 3));
        let shadow = project_prefix(&p, 1);
        assert_eq!(shadow.var_range(0), Some((2, 6)));
    }

    #[test]
    fn projection_detects_emptiness() {
        let mut p = Polyhedron::universe(1);
        p.add(Constraint::new(vec![1], -10)); // x >= 10
        p.add(Constraint::new(vec![-1], 5)); // x <= 5
        let s = eliminate(&p, 0);
        assert!(s
            .constraints()
            .iter()
            .any(|c| c.is_trivial() && c.constant < 0));
    }
}
